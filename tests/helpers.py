"""Seeded random generators and brute-force references shared by the test modules."""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import lcm

from pasynch import (
    CheckResult,
    Dist,
    HALF,
    InputError,
    LiftedPa,
    Pa,
    ScheduleSearchResult,
    SearchResult,
    TwinPa,
    Value1Instance,
    Word,
    ZERO,
    matrix_oracle,
    outcome,
)
from pasynch import cli

LETTER_POOL = ("a", "b", "c")


def random_dist(rng: random.Random, states, max_den: int = 8) -> dict[str, Fraction]:
    """Random rational distribution: a composition of a denominator <= max_den."""
    den = rng.randint(1, max_den)
    cuts = sorted(rng.randint(0, den) for _ in range(len(states) - 1))
    bounds = [0, *cuts, den]
    parts = [bounds[i + 1] - bounds[i] for i in range(len(states))]
    return {s: Fraction(n, den) for s, n in zip(states, parts) if n}


def random_pa(
    rng: random.Random,
    *,
    max_states: int = 6,
    max_letters: int = 3,
    max_den: int = 8,
    dirac_initial: bool = False,
    min_accepting: int = 0,
) -> Pa:
    n = rng.randint(1, max_states)
    k = rng.randint(1, max_letters)
    states = tuple(f"q{i}" for i in range(n))
    letters = LETTER_POOL[:k]
    delta = {(q, a): random_dist(rng, states, max_den) for q in states for a in letters}
    if dirac_initial:
        initial = {states[0]: 1}
    else:
        initial = random_dist(rng, states, max_den)
    accepting = tuple(rng.sample(states, rng.randint(min_accepting, n)))
    return Pa(states, letters, initial, delta, accepting)


def random_value1_instance(
    rng: random.Random,
    *,
    max_states: int = 6,
    max_letters: int = 3,
    max_den: int = 8,
) -> Value1Instance:
    pa = random_pa(
        rng,
        max_states=max_states,
        max_letters=max_letters,
        max_den=max_den,
        dirac_initial=True,
        min_accepting=1,
    )
    return Value1Instance(pa)


def random_word(rng: random.Random, alphabet, max_len: int, min_len: int = 0) -> Word:
    length = rng.randint(min_len, max_len)
    return tuple(rng.choice(alphabet) for _ in range(length))


# small, prime powers, two large primes, a product of three primes
DENOMINATORS = (
    lambda rng: rng.randint(1, 8),
    lambda rng: 2 ** rng.randint(0, 12),
    lambda rng: 3 ** rng.randint(0, 8),
    lambda rng: 1000003,
    lambda rng: 2 ** 61 - 1,
    lambda rng: 97 * 89 * 83,
)


def _composition(rng, states, den, short: bool):
    """Masses n_i / den on `states`; they sum to 1, or below 1 when `short`."""
    total = rng.randint(0, den - 1) if short and den > 1 else den
    cuts = sorted(rng.randint(0, total) for _ in range(len(states) - 1))
    bounds = [0, *cuts, total]
    return {q: Fraction(bounds[i + 1] - bounds[i], den)
            for i, q in enumerate(states) if bounds[i + 1] > bounds[i]}


def family_pa(rng: random.Random) -> Pa:
    """A random automaton of 1-6 states over 1-3 letters whose rows draw
    their denominators from one to three of the `DENOMINATORS` families;
    in about 30% of them, rows may sum below 1."""
    n = rng.randint(1, 6)
    states = tuple(f"q{i}" for i in range(n))
    letters = ("a", "b", "c")[:rng.randint(1, 3)]
    families = rng.sample(DENOMINATORS, rng.randint(1, 3))
    short = rng.random() < 0.3

    def dist(may_be_short):
        den = rng.choice(families)(rng)
        return _composition(rng, states, den, may_be_short and rng.random() < 0.5)

    delta = {(q, a): dist(short) for q in states for a in letters}
    return Pa(states, letters, dist(False), delta, rng.sample(states, rng.randint(0, n)))


def rebuilt(c: TwinPa, **changes) -> TwinPa:
    """`c` rebuilt through the `TwinPa` constructor, which runs every role
    check again, with `changes` in place of the fields they name."""
    fields = dict(pa=c.pa, twin_of=c.twin_of, hash=c.hash, q0=c.q0, q0_hat=c.q0_hat,
                  q_f=c.q_f, q_n=c.q_n, dollar=c.dollar)
    return TwinPa(**{**fields, **changes})


def corrupted(c: TwinPa, state: str, letter: str, row: dict) -> TwinPa:
    """Replace one delta row of a twin, keeping the role metadata."""
    delta = dict(c.pa.delta)
    delta[(state, letter)] = Dist(row)
    return rebuilt(c, pa=Pa(c.pa.states, c.pa.alphabet, c.pa.initial, delta, c.pa.accepting))


def scored_shortlex(pa: Pa, max_len: int) -> list[tuple[Word, Fraction]]:
    """Every word up to `max_len` in shortest-then-lex order, with its
    acceptance probability. As in `matrix_oracle`, each letter is a dense
    `Fraction` matrix, built once; each word's mass vector is its
    parent's times its last letter's matrix, so no word is simulated
    from the start and `Kernel` plays no part."""
    n = len(pa.states)
    index = {q: i for i, q in enumerate(pa.states)}
    matrices = []
    for a in pa.alphabet:
        m = [[ZERO] * n for _ in range(n)]
        for q in pa.states:
            for target, p in pa.row(q, a).items():
                m[index[q]][index[target]] = p
        matrices.append((a, m))
    accepting = [index[q] for q in pa.accepting]
    layer = [((), [pa.initial.mass(q) for q in pa.states])]  # (word, vector), in lex order
    scored = []
    for length in range(max_len + 1):
        scored.extend((word, sum((vec[i] for i in accepting), ZERO)) for word, vec in layer)
        if length < max_len:
            layer = [(word + (a,), [sum((vec[r] * m[r][col] for r in range(n) if vec[r]), ZERO)
                                    for col in range(n)])
                     for word, vec in layer for a, m in matrices]
    return scored


def _scored(b: Value1Instance, max_len: int, scored) -> list[tuple[Word, Fraction]]:
    if scored is None:
        return scored_shortlex(b.pa, max_len)
    return [entry for entry in scored if len(entry[0]) <= max_len]


def reference_search(b: Value1Instance, max_len: int, scored=None) -> SearchResult:
    """Brute-force `bounded_value_search`: the first shortlex word of
    highest probability. `scored`, from `scored_shortlex` at any length
    bound of at least `max_len`, saves scoring the words again."""
    scored = _scored(b, max_len, scored)
    best_word, best_prob = scored[0]
    for word, p in scored:
        if p > best_prob:
            best_word, best_prob = word, p
    return SearchResult(best_word, best_prob, len(scored), exhausted=True)


def reference_schedule(b: Value1Instance, k: int, max_len: int,
                       scored=None) -> ScheduleSearchResult:
    """Brute-force `witness_schedule_search`: a fresh shortlex scan per
    rung. `explored` is where the resumed scan stands, one past the last
    word found, or every word when a rung fails. `scored` is as for
    `reference_search`."""
    scored = _scored(b, max_len, scored)
    found: list[Word] = []
    explored = 0
    for i in range(1, k + 1):
        threshold = 1 - Fraction(1, 2 ** i)
        hit = next((n for n, (_, p) in enumerate(scored) if p > threshold), None)
        if hit is None:
            return ScheduleSearchResult(tuple(found), False, i, len(scored))
        found.append(scored[hit][0])
        explored = hit + 1
    return ScheduleSearchResult(tuple(found), True, None, explored)


def reference_step(pa: Pa, d: Dist, letter: str) -> Dist:
    """The per-entry `Fraction` stepping loop that the integer kernel
    replaced: push each unit of mass along its transition row."""
    if letter not in pa.letter_set:
        raise InputError(f"unknown letter {letter!r}")
    acc: dict[str, Fraction] = {}
    for q, p in d.nonzero():
        for target, m in pa.row(q, letter).nonzero():
            acc[target] = acc.get(target, ZERO) + p * m
    return Dist(acc)


def reference_outcome(pa: Pa, word) -> list[Dist]:
    """`outcome` on top of `reference_step`."""
    dists = [pa.initial]
    for a in pa.check_word(word):
        dists.append(reference_step(pa, dists[-1], a))
    return dists


def reference_pairs(pa: Pa, word, names) -> list[tuple[tuple[int, ...], int]]:
    """The run of `word` as integer pairs over `names`, from `reference_outcome`.

    Each denominator is the lcm of the masses' reduced denominators, so
    every pair is in lowest terms."""
    pairs = []
    for d in reference_outcome(pa, word):
        masses = [d.mass(q) for q in names]
        den = lcm(*(p.denominator for p in masses))
        pairs.append((tuple(p.numerator * (den // p.denominator) for p in masses), den))
    return pairs


def reference_parse_pa(text: str) -> Pa:
    """The automaton of a `.pa` document that `parse_pa` accepts, built
    line by line through the public `Dist` and `Pa` constructors, so that
    every name and value is checked again and no row object is shared."""
    fields: dict[str, list[str]] = {}
    delta: dict[tuple[str, str], Dist] = {}
    for line in text.splitlines():
        key, _, rest = line.partition(":")
        tokens = rest.split()
        if key == "row":
            delta[(tokens[0], tokens[1])] = Dist(dict(zip(tokens[2::2], tokens[3::2])))
        else:
            fields[key] = tokens
    initial = Dist(dict(zip(fields["initial"][::2], fields["initial"][1::2])))
    return Pa(fields["states"], fields["letters"], initial, delta, fields["accepting"])


def reference_validate(pa: Pa) -> tuple[str, ...]:
    """The violations of `Pa.validate`, found key by key with a
    `Dist.total()` `Fraction` for every row."""
    v: list[str] = []
    for names, what in ((pa.states, "state name"), (pa.alphabet, "letter")):
        seen: set[str] = set()
        for x in names:
            if not x:
                v.append("empty state name" if what == "state name" else "empty letter")
            elif x in seen:
                v.append(f"duplicate {what} {x!r}")
            seen.add(x)
    for q, _ in pa.initial.items():
        if q not in pa.state_set:
            v.append(f"initial mass on unknown state {q!r}")
    if pa.initial.total() != 1:
        v.append(f"initial distribution sums to {pa.initial.total()}")
    for (q, a) in pa.delta:
        if q not in pa.state_set:
            v.append(f"delta row for unknown state {q!r}")
        elif a not in pa.letter_set:
            v.append(f"delta row for unknown letter {a!r}")
    for q in pa.states:
        for a in pa.alphabet:
            row = pa.delta.get((q, a))
            if row is None:
                v.append(f"delta incomplete at ({q},{a})")
                continue
            for target, _ in row.items():
                if target not in pa.state_set:
                    v.append(f"row ({q},{a}) targets unknown state {target!r}")
            if row.total() != 1:
                v.append(f"row ({q},{a}) sums to {row.total()}")
    for q in pa.accepting:
        if q not in pa.state_set:
            v.append(f"accepting state {q!r} not a state")
    return tuple(v)


def reference_check_p1(c: TwinPa, v1, v2) -> CheckResult:
    """`check_p1` on the `Dist`s of two `outcome` runs, state by state."""
    w1, w2 = c.pa.check_word(v1), c.pa.check_word(v2)
    full = outcome(c.pa, w1 + (c.hash,) + w2)
    fresh_run = outcome(c.pa, w2)
    for i in range(len(w2) + 1):
        for q in c.pa.states:
            lhs, rhs = full[len(w1) + 1 + i].mass(q), fresh_run[i].mass(q)
            if lhs != rhs:
                return CheckResult(False, f"step {i}, state {q}: {lhs} != {rhs}")
    return CheckResult(True)


def reference_check_p2(a: LiftedPa, c: TwinPa, w) -> CheckResult:
    """`check_p2` on the `Dist`s of two `outcome` runs, state by state;
    the caller passes a word without commit or reset letters."""
    run_a, run_c = outcome(a.pa, w), outcome(c.pa, w)
    for i, (da, dc) in enumerate(zip(run_a, run_c)):
        if da.mass(a.q_f) or dc.mass(a.q_f):
            return CheckResult(False, f"step {i}: success sink carries mass "
                                      f"({da.mass(a.q_f)} lifted, {dc.mass(a.q_f)} twinned)")
        for q in a.pa.states:
            if q == a.q_f:
                continue
            want, got, got_hat = HALF * da.mass(q), dc.mass(q), dc.mass(c.twin_of[q])
            if got != want or got_hat != want:
                return CheckResult(False, f"step {i}, state {q}: twin pair carries "
                                          f"({got}, {got_hat}), expected {want} each")
    return CheckResult(True)


def reference_absorb(c: TwinPa, prefix, horizon: int) -> CheckResult:
    """`dollar_absorption_check` on `matrix_oracle` runs: of the prefix,
    then of the prefix followed by every word of one and of two non-reset
    letters, within the horizon. The caller passes a horizon >= 0 and a
    prefix with a commit letter after its last reset letter."""
    w = tuple(prefix)
    resets = [i for i, a in enumerate(w) if a == c.hash]
    j = w.index(c.dollar, resets[-1] + 1 if resets else 0)
    qn, qn_hat = c.q_n, c.twin_of[c.q_n]
    pair = Dist({qn: HALF, qn_hat: HALF})
    run = matrix_oracle(c.pa, w)
    d = run[j + 1]
    stray = sorted(d.support() - {c.q_f, qn, qn_hat})
    if stray:
        return CheckResult(False, f"step {j + 1}: mass outside the sinks, on {stray}")
    if d.mass(qn) != d.mass(qn_hat):
        return CheckResult(False, f"step {j + 1}: failure pair unbalanced "
                                  f"({d.mass(qn)} vs {d.mass(qn_hat)})")
    end = j + 1 + horizon
    for i in range(j + 2, min(end, len(w)) + 1):
        if run[i] != pair:
            return CheckResult(False, f"step {i}: expected the half/half failure pair, "
                                      f"got {run[i]}")
    letters = [a for a in c.pa.alphabet if a != c.hash]
    for n in (1, 2):
        if len(w) + n > end:
            break
        for x in product(letters, repeat=n):
            got = matrix_oracle(c.pa, w + x)[-1]
            if got != pair:
                return CheckResult(False, f"step {len(w) + n} via {x[-1]!r}: expected the "
                                          f"half/half failure pair, got {got}")
    return CheckResult(True)


def reference_main(argv) -> int:
    """`cli.main` with every argv parsed by the top-level parser, which
    hands a command's arguments on to its subparser."""
    try:
        args = cli._build_parser()[0].parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    return cli._run(args)
