"""Distribution evolution: step, outcome, acceptance, traces."""
import copy
import pickle
import random
import sys
from fractions import Fraction
from itertools import accumulate, product
from math import gcd, lcm, prod
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pasynch import (
    Dist,
    InputError,
    NormTrace,
    Pa,
    TraceEntry,
    acceptance_probability,
    b_half,
    b_one,
    lasso_trace,
    lift,
    matrix_oracle,
    max_norm_from,
    norm_trace,
    outcome,
    parse_pa,
    serialize_pa,
    step,
    twin,
)
from pasynch import semantics
from pasynch.core import _base_fraction, _big_below, _coprime_fraction, _lowest
from pasynch.semantics import Kernel, _dense_step, lasso_stream
from helpers import (
    family_pa,
    random_dist,
    random_pa,
    random_value1_instance,
    random_word,
    reference_outcome,
    reference_pairs,
    reference_step,
)

HALF = Fraction(1, 2)


def test_step_dirac_chain():
    pa = b_one().pa
    assert step(pa, Dist.dirac("s0"), "a") == Dist.dirac("sA")


def test_step_single_row_split():
    pa = b_half().pa
    assert step(pa, Dist.dirac("s0"), "a") == Dist({"sA": HALF, "sR": HALF})


def test_step_on_twin_pair():
    c = twin(lift(b_one()))
    got = step(c.pa, c.pa.initial, "a")
    assert got == Dist({"sA": HALF, c.twin_of["sA"]: HALF})


def test_step_unknown_letter():
    with pytest.raises(InputError, match="unknown letter"):
        step(b_one().pa, Dist.dirac("s0"), "z")


def test_outcome_empty_word():
    pa = b_one().pa
    assert outcome(pa, ()) == [pa.initial]


def test_outcome_deterministic():
    assert outcome(b_one().pa, ("a",)) == [Dist.dirac("s0"), Dist.dirac("sA")]


def test_outcome_b_half_two_steps():
    flip = Dist({"sA": HALF, "sR": HALF})
    assert outcome(b_half().pa, ("a", "a")) == [Dist.dirac("s0"), flip, flip]


def test_outcome_names_bad_position():
    with pytest.raises(InputError, match="letter 'z' at position 1"):
        outcome(b_one().pa, ("a", "z"))


def test_acceptance_b_one():
    assert acceptance_probability(b_one().pa, ("a",)) == 1


def test_acceptance_b_half():
    assert acceptance_probability(b_half().pa, ("a",)) == HALF


def test_acceptance_empty_accepting_set():
    pa = b_one().pa
    bare = type(pa)(pa.states, pa.alphabet, pa.initial, pa.delta, accepting=())
    for w in ((), ("a",), ("a", "a")):
        assert acceptance_probability(bare, w) == 0


def test_acceptance_of_empty_word_reads_initial():
    assert acceptance_probability(b_one().pa, ()) == 0


def test_norm_trace_dirac_chain():
    assert norm_trace(b_one().pa, ("a",)).norms == (1, 1)


def test_norm_trace_b_half():
    assert norm_trace(b_half().pa, ("a", "a")).norms == (1, HALF, HALF)


def test_norm_trace_twin_concentrates_on_commit():
    c = twin(lift(b_one()))
    trace = norm_trace(c.pa, ("a", c.dollar))
    assert trace.norms == (HALF, HALF, 1)
    assert trace[2].dist == Dist.dirac(c.q_f)


def test_norm_trace_length_counts_the_start():
    trace = norm_trace(b_half().pa, ("a", "a", "a"))
    assert len(trace) == len(trace.entries) == 4


def test_norm_trace_invariants():
    c = twin(lift(b_half()))
    trace = norm_trace(c.pa, ("a", c.dollar, c.hash, "a"))
    assert trace[0].dist == c.pa.initial and trace[0].letter is None
    for entry in trace:
        assert entry.norm == entry.dist.norm()
        assert entry.dist.total() == 1


def test_lasso_trivial_loop():
    assert lasso_trace(b_one().pa, (), ("a",), 3).norms == (1, 1, 1, 1)


def test_lasso_commit_positions():
    c = twin(lift(b_one()))
    trace = lasso_trace(c.pa, ("a", c.dollar), (c.hash, "a", c.dollar), 2)
    assert trace.norms == (HALF, HALF, 1, HALF, HALF, 1, HALF, HALF, 1)
    assert [e.step for e in trace if e.norm == 1] == [2, 5, 8]


def test_lasso_zero_reps_is_stem_trace():
    pa = b_half().pa
    assert lasso_trace(pa, ("a",), ("a",), 0).norms == norm_trace(pa, ("a",)).norms


def test_lasso_rejects_empty_loop():
    with pytest.raises(InputError, match="loop must be nonempty"):
        lasso_trace(b_one().pa, ("a",), (), 1)


def test_lasso_rejects_negative_reps():
    with pytest.raises(InputError):
        lasso_trace(b_one().pa, (), ("a",), -1)


def _synthetic_trace(norms):
    entries = tuple(
        TraceEntry(i, None if i == 0 else "a", Dist({"q": n}), Fraction(n))
        for i, n in enumerate(norms)
    )
    return NormTrace(entries)


def test_max_norm_first_occurrence_wins_ties():
    trace = _synthetic_trace([Fraction(1, 2), Fraction(3, 4), Fraction(3, 4)])
    assert max_norm_from(trace, 0) == (Fraction(3, 4), 1)


def test_max_norm_from_last_entry():
    trace = _synthetic_trace([Fraction(1, 2), Fraction(3, 4), Fraction(1, 4)])
    assert max_norm_from(trace, 2) == (Fraction(1, 4), 2)


def test_max_norm_from_b_half_trace():
    trace = norm_trace(b_half().pa, ("a", "a"))
    assert max_norm_from(trace, 1) == (HALF, 1)


def test_max_norm_start_out_of_range():
    trace = norm_trace(b_one().pa, ("a",))
    with pytest.raises(InputError):
        max_norm_from(trace, 2)
    with pytest.raises(InputError):
        max_norm_from(trace, -1)


def test_prefix_consistency_spot():
    pa = b_half().pa
    u, w = ("a",), ("a", "a")
    assert outcome(pa, u + w)[len(u)] == outcome(pa, u)[len(u)]


# -- malformed automata: the error surfaces where mass first needs the bad entry

def test_missing_row_raises_when_mass_reaches_it():
    pa = Pa(("p", "q"), ("a",), {"p": 1}, {("p", "a"): {"q": 1}})
    assert outcome(pa, ("a",)) == [Dist.dirac("p"), Dist.dirac("q")]
    for run in (outcome, norm_trace, acceptance_probability):
        with pytest.raises(InputError, match=r"^delta incomplete at \(q,a\)$"):
            run(pa, ("a", "a"))
    with pytest.raises(InputError, match=r"^delta incomplete at \(q,a\)$"):
        step(pa, Dist({"p": 0, "q": 1}), "a")


def test_step_refuses_user_mass_outside_the_automaton():
    pa = Pa(("p", "q"), ("a",), {"p": 1}, {("p", "a"): {"q": 1}})
    for mass in ({"z": 1}, {"p": HALF, "z": HALF}, {"q": HALF, "z": HALF}):
        # outside mass is refused before the missing row of q is reached
        with pytest.raises(InputError, match="^unknown state 'z'$"):
            step(pa, Dist(mass), "a")
    # an explicit zero there moves nothing
    assert step(pa, Dist({"z": 0, "p": 1}), "a") == Dist.dirac("q")


def test_kernel_is_compiled_once_per_automaton():
    c = twin(lift(b_half()))
    k = Kernel.of(c.pa)
    assert Kernel.of(c.pa) is k
    outcome(c.pa, ("a", c.dollar))
    step(c.pa, c.pa.initial, c.hash)
    assert Kernel.of(c.pa) is k
    assert Kernel.of(twin(lift(b_half())).pa) is not k


def test_row_target_outside_states_raises_on_the_next_step():
    pa = Pa(("p",), ("a",), {"p": 1}, {("p", "a"): {"z": 1}})
    assert outcome(pa, ("a",))[-1] == Dist.dirac("z")
    for run in (outcome, norm_trace, acceptance_probability):
        with pytest.raises(InputError, match="^unknown state 'z'$"):
            run(pa, ("a", "a"))


def test_initial_mass_outside_states_raises_on_the_first_step():
    pa = Pa(("p",), ("a",), {"z": 1}, {("p", "a"): {"p": 1}})
    assert outcome(pa, ()) == [Dist.dirac("z")]
    for run in (outcome, norm_trace, acceptance_probability):
        with pytest.raises(InputError, match="^unknown state 'z'$"):
            run(pa, ("a",))
    # an explicit zero on an unknown name moves no mass and raises nothing
    zero = Pa(("p",), ("a",), {"z": 0, "p": 1}, {("p", "a"): {"p": 1}})
    assert outcome(zero, ("a", "a"))[-1] == Dist.dirac("p")


def test_rows_summing_below_one_lose_mass():
    pa = Pa(("p",), ("a",), {"p": 1}, {("p", "a"): {"p": HALF}})
    assert norm_trace(pa, ("a", "a")).norms == (1, HALF, Fraction(1, 4))
    assert outcome(pa, ("a", "a"))[-1] == Dist({"p": Fraction(1, 4)})


def test_mass_past_one_is_an_input_error():
    pa = Pa(("p", "q"), ("a",), {"p": 1},
            {("p", "a"): {"p": 1, "q": 1}, ("q", "a"): {"q": 1}})
    assert outcome(pa, ("a",))[-1] == Dist({"p": 1, "q": 1})
    with pytest.raises(InputError, match=r"probability 2 outside \[0, 1\]"):
        outcome(pa, ("a", "a"))


# -- the integer kernel against the per-entry Fraction loop it replaced

def _assert_matches_reference(pa, word):
    want = reference_outcome(pa, word)
    assert outcome(pa, word) == want
    trace = norm_trace(pa, word)
    assert [e.dist for e in trace] == want
    assert trace.norms == tuple(d.norm() for d in want)
    assert acceptance_probability(pa, word) == sum(
        (want[-1].mass(q) for q in pa.accepting), Fraction(0))


def test_kernel_matches_reference_on_the_oracle_corpus():
    # the corpus of acceptance criterion 9
    rng = random.Random(0xFEED)
    for _ in range(500):
        pa = random_pa(rng)
        _assert_matches_reference(pa, random_word(rng, pa.alphabet, 20))


@pytest.mark.parametrize("instance", [b_half, b_one])
def test_kernel_matches_reference_on_twins(instance):
    c = twin(lift(instance()))
    for n in range(5):
        for word in product(c.pa.alphabet, repeat=n):
            _assert_matches_reference(c.pa, word)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_step_matches_reference_on_user_dists(seed):
    rng = random.Random(seed)
    pa = random_pa(rng)
    mass = random_dist(rng, pa.states)
    # explicit zero entries are stored by Dist and must move nothing
    mass.update({q: 0 for q in rng.sample(pa.states, rng.randint(0, len(pa.states)))
                 if q not in mass})
    d = Dist(mass)
    for a in pa.alphabet:
        got, want = step(pa, d, a), reference_step(pa, d, a)
        assert got == want
        assert dict(got.nonzero()) == dict(want.nonzero())
        assert got.norm() == want.norm()
    _assert_matches_reference(pa, random_word(rng, pa.alphabet, 12))


def test_step_reduces_primes_outside_the_kernel_base():
    # every denominator of the automaton is 1, so its base is 1, and the
    # 3 of the user's distribution is a prime `advance` does not take out
    pa = Pa(("x", "y"), ("a",), {"x": 1}, {("x", "a"): {"x": 1}, ("y", "a"): {"x": 1}})
    d = Dist({"x": Fraction(1, 3), "y": Fraction(2, 3)})
    got = step(pa, d, "a")
    assert got._ints[1:3] == ((1, 0), 1)  # the pair, read before the map is made
    assert got == reference_step(pa, d, "a") == Dist.dirac("x")


# -- reduction over the kernel's base: lowest terms for every denominator family

def _assert_same_fraction(got, want):
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert got == want and hash(got) == hash(want)
    assert str(got) == str(want) and repr(got) == repr(want)
    back = pickle.loads(pickle.dumps(got))
    assert type(back) is Fraction and (back.numerator, back.denominator) == (
        want.numerator, want.denominator)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_walk_pairs_are_lowest_terms_over_every_denominator_family(seed):
    rng = random.Random(seed)
    pa = family_pa(rng)
    k = Kernel.of(pa)
    word = random_word(rng, pa.alphabet, 40)
    pairs = list(k.walk(word))
    assert pairs == reference_pairs(pa, word, k.names)
    for v, den in pairs:
        assert gcd(den, *v) == 1
        _assert_same_fraction(k.norm((v, den)), Fraction(max(v, default=0), den))
    trace = norm_trace(pa, word)
    assert [e.norm for e in trace] == [Fraction(max(v, default=0), den) for v, den in pairs]
    # a kernel-built distribution's masses are reduced over the base too
    for e, (v, den) in zip(trace.entries[1:], pairs[1:]):
        for q, x in zip(k.names, v):
            _assert_same_fraction(e.dist.mass(q), Fraction(x, den))
    v, den = pairs[-1]
    _assert_same_fraction(acceptance_probability(pa, word),
                          Fraction(sum(x for q, x in zip(k.names, v) if q in pa.accepting), den))


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_weights_step_back_like_the_matrix_oracle(seed):
    # P(u·x) = <v, w_x> / (D * Λ^|x|) for the pair (v, D) of u and the
    # weights w_x of x, built by the shared back steps one letter back at
    # a time, up to three letters, on the template and on the columns
    rng = random.Random(seed)
    pa = family_pa(rng)
    u = random_word(rng, pa.alphabet, 6)
    v, den = list(Kernel.of(pa).walk(u))[-1]
    x = tuple(rng.choice(pa.alphabet) for _ in range(3))
    with pytest.MonkeyPatch.context() as mp:
        kernels = _both_paths(pa, mp)
    runs = []
    for k in kernels:
        lam, steps = k.shared_steps()
        for a in pa.alphabet:
            w = steps[a][1](k.accept[0])
            assert [Fraction(y, lam) for y in w] == [
                sum((pa.delta[(q, a)].mass(t) for t in pa.accepting), Fraction(0))
                for q in pa.states]
        weights, den_x, run = k.accept[0], 1, []
        for i in reversed(range(len(x))):
            weights, den_x = steps[x[i]][1](weights), den_x * lam
            final = matrix_oracle(pa, u + x[i:])[-1]
            want = sum((final.mass(q) for q in pa.accepting), Fraction(0))
            assert Fraction(sum(map(mul, v, weights)), den * den_x) == want
            run.append(tuple(weights))
        runs.append(run)
    assert runs[0] == runs[1]  # unreduced, so equal as integers


def test_step_masses_are_lowest_terms_past_the_base():
    # base 1; the pair (2, 1, 3) / 6 is in lowest terms, but the mass
    # 2/6 on x still holds a 2 that no reduction over the base takes out
    names = ("x", "y", "z")
    pa = Pa(names, ("a",), {"x": 1}, {(q, "a"): {q: 1} for q in names})
    d = Dist({"x": Fraction(1, 3), "y": Fraction(1, 6), "z": HALF})
    got = step(pa, d, "a")
    assert got._ints[1:3] == ((2, 1, 3), 6)  # the pair, read before the map is made
    for q in names:
        _assert_same_fraction(got.mass(q), d.mass(q))
    assert got == d and hash(got) == hash(d) and str(got) == str(d)


def _assert_slots(got, want):
    assert type(got) is Fraction
    assert (got._numerator, got._denominator) == (want._numerator, want._denominator)


def _walk_in_lowest_terms(pa, word):
    """The walk of `word`, checked: every pair in lowest terms, every norm
    (`Kernel.norm` and the trace's) and every trace mass with the slots
    of `Fraction(x, den)`."""
    k = Kernel.of(pa)
    pairs = list(k.walk(word))
    trace = norm_trace(pa, word)
    assert len(trace) == len(pairs)
    for (v, den), e in zip(pairs, trace):
        assert gcd(den, *v) == 1
        top = Fraction(max(v, default=0), den)
        _assert_slots(k.norm((v, den)), top)
        _assert_slots(e.norm, top)
        for q, x in zip(k.names, v):
            _assert_slots(e.dist.mass(q), Fraction(x, den))
    return pairs


def _quarter_pa():
    """p keeps 4^-n after a^n; `c` collapses the pair (1, 4^n - 1) / 4^n onto
    p, leaving (4^n, 0) / 4^n, a common factor 4^n. The base is 4 and big
    is 4^14, so the `c` step divides once up to n = 13, and from n = 14 on
    one round cannot take it all out and the walk hands the pair to
    `_lowest`."""
    return Pa(("p", "q"), ("a", "c"), {"p": 1},
              {("p", "a"): {"p": Fraction(1, 4), "q": Fraction(3, 4)}, ("q", "a"): {"q": 1},
               ("p", "c"): {"p": 1}, ("q", "c"): {"p": 1}})


def test_walk_reduces_a_common_factor_past_the_base(monkeypatch):
    pa = _quarter_pa()
    assert (Kernel.of(pa)._big, Kernel.of(pa)._below) == (4 ** 14, 4 ** 13)
    rounds = []

    def counted(*args):
        rounds.append(args[3])
        return _lowest(*args)
    monkeypatch.setattr(semantics, "_lowest", counted)
    for n in range(61):
        rounds.clear()
        pairs = _walk_in_lowest_terms(pa, ("a",) * n + ("c",))
        assert pairs[-2][1] == 4 ** n
        assert pairs[-1] == ((1, 0), 1)
        # once for the walk and once for the trace's walk, at the step onto p
        assert rounds == ([4 ** n] * 2 if n >= 14 else [])


def test_walk_reduces_the_start_denominator():
    # no row has a 3 in its denominator; only the start does
    pa = Pa(("p", "q"), ("a", "c"), {"p": Fraction(1, 3), "q": Fraction(2, 3)},
            {("p", "a"): {"p": HALF, "q": HALF}, ("q", "a"): {"q": 1},
             ("p", "c"): {"p": 1}, ("q", "c"): {"p": 1}})
    for n in range(4):
        pairs = list(Kernel.of(pa).walk(("a",) * n + ("c",)))
        assert pairs[-2][1] == 3 * 2 ** n
        assert pairs[-1] == ((1, 0), 1)


# -- one-round reduction: `big` and `below` over the kernel's base

@pytest.mark.parametrize("base, big", [(1, 1), (2, 2 ** 29), (4, 4 ** 14), (6, 6 ** 11),
                                       (840, 840 ** 3), (2 ** 15 + 1, 2 ** 15 + 1),
                                       (2 ** 30, 2 ** 30), (2 ** 31 - 1, 2 ** 31 - 1)])
def test_big_is_the_largest_power_below_one_digit(base, big):
    assert _big_below(base) == (big, big // base)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_lowest_divides_out_the_whole_common_factor(seed):
    # a denominator over the base's primes, numerators with common powers
    # of them past `big`, and primes of their own
    rng = random.Random(seed)
    primes = rng.sample((2, 3, 5, 7, 2 ** 31 - 1), rng.randint(0, 3))
    base = prod(p ** rng.randint(1, 3) for p in primes)
    den = prod(p ** rng.randint(0, 90) for p in primes)
    common = prod(p ** rng.randint(0, 90) for p in primes)
    nums = tuple(common * rng.choice((0, 1, 11, rng.randrange(10 ** 40)))
                 for _ in range(rng.randint(0, 4)))
    got, got_den = _lowest(*_big_below(base), nums, den)
    g = gcd(den, *nums)
    assert (tuple(got), got_den) == (tuple(x // g for x in nums), den // g)
    assert gcd(got_den, *got) == 1


def test_walk_on_a_base_of_one():
    # every row and the start are Diracs, so the base is 1 and so is big
    pa = Pa(("x", "y", "z"), ("a", "b"), {"x": 1},
            {("x", "a"): {"y": 1}, ("y", "a"): {"z": 1}, ("z", "a"): {"x": 1},
             ("x", "b"): {"x": 1}, ("y", "b"): {"x": 1}, ("z", "b"): {"z": 1}}, ("z",))
    k = Kernel.of(pa)
    assert (k._big, k._below) == (1, 1)
    word = random_word(random.Random(1), pa.alphabet, 60)
    pairs = _walk_in_lowest_terms(pa, word)
    assert all(den == 1 for _, den in pairs)
    assert acceptance_probability(pa, word) == pairs[-1][0][2]
    # a user distribution brings primes of its own, which `step` takes out
    d = Dist({"x": Fraction(1, 3), "y": Fraction(1, 6), "z": HALF})
    got = step(pa, d, "a")
    assert got._ints[1:3] == ((3, 2, 1), 6)
    assert got == reference_step(pa, d, "a")


def test_walk_on_a_base_past_one_digit():
    # a row denominator of 2^31 - 1, a prime: big is the base itself, below
    # is 1, and each power of it in a common factor takes its own round
    m = 2 ** 31 - 1
    pa = Pa(("p", "q"), ("a", "c"), {"p": 1},
            {("p", "a"): {"p": Fraction(1, m), "q": Fraction(m - 1, m)}, ("q", "a"): {"q": 1},
             ("p", "c"): {"p": 1}, ("q", "c"): {"p": 1}}, ("p",))
    k = Kernel.of(pa)
    assert (k._big, k._below) == (m, 1)
    for n in (0, 1, 2, 7, 60):
        pairs = _walk_in_lowest_terms(pa, ("a",) * n + ("c",))
        assert pairs[-2] == ((1, m ** n - 1), m ** n)
        assert pairs[-1] == ((1, 0), 1)
    rng = random.Random(2)
    for _ in range(5):
        word = random_word(rng, pa.alphabet, 60)
        pairs = _walk_in_lowest_terms(pa, word)
        assert acceptance_probability(pa, word) == Fraction(pairs[-1][0][0], pairs[-1][1])


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_base_fraction_is_the_reduced_fraction(data):
    # a denominator over a base's primes, past big, and a numerator that
    # shares some of their powers; 0 included
    primes = data.draw(st.lists(st.sampled_from((2, 3, 5, 7, 2 ** 31 - 1)), max_size=3,
                                unique=True))
    base = prod(p ** data.draw(st.integers(1, 3)) for p in primes)
    den = prod(p ** data.draw(st.integers(0, 80)) for p in primes)
    common = prod(p ** data.draw(st.integers(0, 80)) for p in primes)
    num = common * data.draw(st.one_of(st.just(0), st.integers(1, 10 ** 40)))
    got = _base_fraction(*_big_below(base), num, den)
    want = Fraction(num, den)
    assert type(got) is Fraction and gcd(got._numerator, got._denominator) == 1
    _assert_slots(got, want)
    _assert_same_fraction(got, want)


@pytest.mark.parametrize("num, den", [(0, 1), (1, 1), (1, 2), (2, 3), (5, 2 ** 61 - 1),
                                      (3 ** 40, 2 ** 70 * 7)])
def test_coprime_fraction_is_a_plain_fraction(num, den):
    got = _coprime_fraction(num, den)
    want = Fraction(num, den)
    _assert_same_fraction(got, want)
    _assert_same_fraction(copy.copy(got), want)
    _assert_same_fraction(copy.deepcopy(got), want)
    assert got + HALF == want + HALF and got * 3 == want * 3
    assert (got < HALF) == (want < HALF) and float(got) == float(want)


def test_kernel_dists_read_like_built_ones():
    c = twin(lift(b_half()))
    quarter = Fraction(1, 4)
    built = Dist({q: quarter for q in ("sA", "sR", c.twin_of["sA"], c.twin_of["sR"])})
    kernel_made = outcome(c.pa, ("a", c.hash, "a"))[3]
    assert dict(kernel_made.items()) == dict(built.items())
    assert hash(kernel_made) == hash(built)
    assert repr(kernel_made) == repr(built)


def test_lasso_stream_checks_letters_up_front():
    pa = b_one().pa
    with pytest.raises(InputError, match="letter 'z' at position 2"):
        lasso_stream(pa, ("a", "a"), ("z",), 1)
    # a loop repeated zero times is not part of the word
    assert len(lasso_stream(pa, ("a",), ("z",), 0)) == 2


def test_lasso_stream_refuses_words_past_maxsize():
    pa = b_one().pa
    with pytest.raises(InputError, match="too long"):
        lasso_stream(pa, (), ("a", "a"), sys.maxsize // 2 + 1)
    stream = lasso_stream(pa, ("a",), ("a",), sys.maxsize - 2)
    assert len(stream.entries) == sys.maxsize
    assert [e.step for e, _ in zip(stream, range(3))] == [0, 1, 2]


# -- the straight-line template against the itemgetter columns and the references

def _is_template(step_function):
    return step_function.__code__.co_filename.startswith("<dense step")


def _both_paths(pa, monkeypatch):
    """`pa`'s kernel on the template path and on the column path."""
    kernels = []
    for bound, dense in ((sys.maxsize, True), (-1, False)):
        monkeypatch.setattr(semantics, "DENSE_MAX_NAMES", bound)
        k = Kernel(pa)
        assert all(_is_template(f) == dense for _, *steps, _, _ in k._letters.values()
                   for f in steps)
        assert _is_template(k._divide) == dense
        kernels.append(k)
    monkeypatch.undo()
    return kernels


@pytest.mark.parametrize("n", range(semantics.DENSE_MAX_NAMES + 1))
def test_template_divides_every_entry(n):
    rng = random.Random(0xD1 + n)
    divide = _dense_step(n).divide
    assert _is_template(divide)
    for _ in range(30):
        g = rng.choice((1, 2, 3, 4 ** 14, rng.randrange(1, 10 ** 12)))
        v = tuple(rng.choice((0, 1, g, g * rng.randrange(10 ** 40), rng.randrange(10 ** 200)))
                  for _ in range(n))
        assert divide(v, g) == tuple([x // g for x in v])


def _walk_counting_divisions(k, word):
    """The pairs of `k.walk(word)` and how many steps called `k._divide`."""
    divisions = []
    divide = k._divide

    def counted(v, g):
        divisions.append(g)
        return divide(v, g)
    k._divide = counted
    try:
        return list(k.walk(word)), len(divisions)
    finally:
        k._divide = divide


def test_each_path_divides_like_the_reference(monkeypatch):
    pa = _quarter_pa()
    dense, columns = _both_paths(pa, monkeypatch)
    assert dense._divide is _dense_step(2).divide and columns._divide is semantics._divide
    for n in (0, 1, 7, 13, 14, 15, 40):
        word = ("a",) * n + ("c", "a")
        want = [_pair(d, ("p", "q")) for d in
                accumulate(word, lambda d, a: reference_step(pa, d, a), initial=pa.initial)]
        for k in (dense, columns):
            pairs, divisions = _walk_counting_divisions(k, word)
            assert pairs == want
            # the c step divides once while 4^n divides `below`; past that
            # `_lowest` divides in rounds of its own
            assert divisions == (1 if 1 <= n <= 13 else 0)
            assert pairs[n + 1] == ((1, 0), 1)


def _run(steps):
    """The values `steps` yields, ending in the text of the `InputError`
    that stops it, if one does."""
    run = []
    try:
        for x in steps:
            run.append(x)
    except InputError as exc:
        run.append(str(exc))
    return run


def _pair(d, names):
    masses = [d.mass(q) for q in names]
    den = lcm(*(p.denominator for p in masses))
    return tuple(p.numerator * (den // p.denominator) for p in masses), den


def _reference_weights(pa, names, letter, after):
    """A back step as masses, from the rows themselves: state `i` sends
    `sum_t row_i(t) * x[t] / den` on; a missing row sends nothing."""
    x, den = after
    at = dict(zip(names, x))
    rows = (pa.delta.get((q, letter)) for q in names)
    return [sum((p * Fraction(at[t], den) for t, p in row.items()), Fraction(0))
            if row else Fraction(0) for row in rows]


def _reference_forward(pa, names, letter, pair):
    """A forward step as masses, from the rows themselves, with no check:
    target `t` gets `sum_i x[i] / den * row_i(t)`; a missing row sends
    nothing."""
    x, den = pair
    got = dict.fromkeys(names, Fraction(0))
    for q, xq in zip(names, x):
        row = pa.delta.get((q, letter))
        for t, p in row.items() if row else ():
            got[t] += Fraction(xq, den) * p
    return list(got.values())


def _assert_paths_agree(pa, rng, monkeypatch, words=4):
    dense, columns = _both_paths(pa, monkeypatch)
    names = dense.names
    assert columns.names == names and dense.start == columns.start
    for _ in range(words):
        word = random_word(rng, pa.alphabet, 10)
        got = _run(dense.walk(word))
        assert got == _run(columns.walk(word))
        want = _run(accumulate(word, lambda d, a: reference_step(pa, d, a), initial=pa.initial))
        assert got == [x if isinstance(x, str) else _pair(x, names) for x in want]
        if set(names) == pa.state_set and all((q, a) in pa.delta
                                              for q in pa.states for a in pa.alphabet):
            assert dense.dist(got[-1]) == matrix_oracle(pa, word)[-1]
    (lam, dense_steps), (lam_columns, column_steps) = dense.shared_steps(), columns.shared_steps()
    assert lam == lam_columns
    for a in pa.alphabet:
        # a letter over Λ lends its own steps; the others are rescaled on
        # the kernel's own path
        for k, steps, template in ((dense, dense_steps, True), (columns, column_steps, False)):
            assert (steps[a][0] is k._letters[a][1]) == (k._letters[a][0] == lam)
            assert all(_is_template(f) == template for f in steps[a])
        after = (tuple(rng.choice((0, 1, rng.randrange(10 ** 30))) for _ in names),
                 rng.randint(1, 10 ** 6))
        (forward, back), (column_forward, column_back) = dense_steps[a], column_steps[a]
        w = tuple(back(after[0]))
        assert w == tuple(column_back(after[0]))  # unreduced, so equal as integers
        assert [Fraction(x, after[1] * lam) for x in w] == _reference_weights(pa, names, a, after)
        v = forward(after[0])
        assert v == column_forward(after[0])
        assert ([Fraction(x, after[1] * lam) for x in v]
                == _reference_forward(pa, names, a, after))


def _random_defective_pa(rng, n):
    """A random automaton of `n` states over `a, b` with numerators as
    distinct as `max_den` 60 makes them and at most one defect: a missing
    row, or a row that sends mass into the undeclared name `z`."""
    states = tuple(f"q{i}" for i in range(n))
    delta = {(q, a): random_dist(rng, states, 60) for q in states for a in "ab"}
    defect = rng.choice((None, "missing", "undeclared")) if states else None
    key = rng.choice(sorted(delta)) if defect else None
    if defect == "missing":
        del delta[key]
    elif defect == "undeclared":
        third = Fraction(1, 3)
        delta[key] = {"z": third, **{q: p * 2 * third for q, p in delta[key].items()}}
    return Pa(states, ("a", "b"), random_dist(rng, states, 60), delta,
              rng.sample(states, rng.randint(0, n)))


@pytest.mark.parametrize("n", range(semantics.DENSE_MAX_NAMES + 5))
def test_template_and_columns_step_like_the_references(n, monkeypatch):
    # the default kernel takes the template up to the bound and columns past it
    assert (n <= semantics.DENSE_MAX_NAMES) == _is_template(Kernel(
        Pa(tuple(f"q{i}" for i in range(n)), ("a",), {}, {}))._letters["a"][1])
    rng = random.Random(0x5EED + n)
    for _ in range(6):
        _assert_paths_agree(_random_defective_pa(rng, n), rng, monkeypatch)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int/str digit limit before CPython 3.10.7")
def test_constants_past_the_digit_limit_never_meet_it(monkeypatch):
    # 10^4400 has more digits than the default limit lets str() convert
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        _dense_step.cache_clear()  # compile the template under the limit too
        tiny = Fraction(1, 10 ** 4400)
        pa = Pa(("p", "q"), ("a", "b"), {"p": 1},
                {("p", "a"): {"p": tiny, "q": 1 - tiny}, ("q", "a"): {"p": 1},
                 ("p", "b"): {"q": 1}, ("q", "b"): {"p": tiny, "q": 1 - tiny}}, ("q",))
        for k in _both_paths(pa, monkeypatch):
            assert k._letters["a"][0] == 10 ** 4400
        _assert_paths_agree(pa, random.Random(3), monkeypatch)
    finally:
        sys.set_int_max_str_digits(limit)


def test_state_names_and_letters_that_read_as_python_never_reach_the_template(monkeypatch):
    states = ("v0); import os #", "c0_0", "x0", "make", "forward", "0", "]", "1/2")
    letters = ("c0_1", "return x", "x1 = 7")
    rng = random.Random(11)
    delta = {(q, a): random_dist(rng, states, 60) for q in states for a in letters}
    pa = Pa(states, letters, {states[0]: 1}, delta, states[::3])
    _assert_paths_agree(pa, rng, monkeypatch, words=8)


def _compiled(k: Kernel) -> dict:
    """Everything a kernel compiled, comparable across kernels: per letter
    `L_a`, the step errors and the numerators (a column getter read on
    the indices it maps)."""
    ids = range(len(k.names))
    letters = {a: (den, errors, consts if isinstance(consts, tuple)
                   else [(get(ids), nums) for get, nums in consts])
               for a, (den, _, _, errors, consts) in k._letters.items()}
    return {"names": k.names, "start": k.start, "accept": k.accept, "base": (k._big, k._below),
            "letters": letters}


# seeds 5 and 6 make twins of 13 and 17 names, which step on columns
@pytest.mark.parametrize("seed, max_states, names", [(1, 3, 5), (3, 6, 7), (5, 7, 13),
                                                     (6, 7, 17)])
def test_kernels_of_shared_and_copied_rows_are_equal(seed, max_states, names):
    rng = random.Random(seed)
    c = twin(lift(random_value1_instance(rng, max_states=max_states)))
    assert len(c.pa.states) == names
    parsed = parse_pa(serialize_pa(c)).pa
    pa = c.pa
    copied = Pa(pa.states, pa.alphabet, Dist(dict(pa.initial.items())),
                {key: Dist(dict(row.items())) for key, row in pa.delta.items()}, pa.accepting)
    twin_rows, parse_rows = ({id(r) for r in x.delta.values()} for x in (pa, parsed))
    assert len(twin_rows) < len(pa.delta) and len(parse_rows) < len(parsed.delta)
    assert len({id(r) for r in copied.delta.values()}) == len(copied.delta)
    kernels = [Kernel(x) for x in (pa, parsed, copied)]
    want = _compiled(kernels[0])
    assert all(_compiled(k) == want for k in kernels[1:])
    for _ in range(20):
        word = random_word(rng, pa.alphabet, 8)
        runs = [list(k.walk(word)) for k in kernels]
        assert runs[1] == runs[0] and runs[2] == runs[0]


# -- the walk's per-step tests run only where they can fire

def _merging_pa():
    """A valid automaton: `a` merges both states into `p`, `b` swaps them."""
    return Pa(("p", "q"), ("a", "b"), {"p": 1},
              {("p", "a"): {"p": 1}, ("q", "a"): {"p": 1},
               ("p", "b"): {"q": 1}, ("q", "b"): {"p": 1}})


def test_an_over_full_start_raises_on_a_valid_automaton(monkeypatch):
    over_full = Dist({"p": 1, "q": 1})
    want = [_pair(over_full, ("p", "q")), _pair(over_full, ("p", "q")),
            "probability 2 outside [0, 1]"]
    reference = _run(accumulate(("b", "a", "b"), lambda d, a: reference_step(_merging_pa(), d, a),
                                initial=over_full))
    assert [x if isinstance(x, str) else _pair(x, ("p", "q")) for x in reference] == want
    for k in _both_paths(_merging_pa(), monkeypatch):
        assert k._valid and k.names == ("p", "q")
        assert _run(k.walk(("b", "a", "b"), k.ints(over_full))) == want
    for bound in (sys.maxsize, -1):  # `step` on each path's kernel
        monkeypatch.setattr(semantics, "DENSE_MAX_NAMES", bound)
        pa = _merging_pa()
        Kernel.of(pa)
        monkeypatch.undo()
        assert step(pa, over_full, "b") == over_full
        with pytest.raises(InputError, match=r"^probability 2 outside \[0, 1\]$"):
            step(pa, over_full, "a")


def test_a_start_below_one_walks_like_the_reference(monkeypatch):
    rng = random.Random(22)
    for _ in range(20):
        pa = random_pa(rng)
        assert pa.validate().ok
        masses = random_dist(rng, pa.states, 12)
        d = Dist({q: p * Fraction(rng.randint(0, 6), 7) for q, p in masses.items()})
        assert d.total() < 1
        word = random_word(rng, pa.alphabet, 12)
        want = [_pair(x, pa.states)
                for x in accumulate(word, lambda x, a: reference_step(pa, x, a), initial=d)]
        for k in _both_paths(pa, monkeypatch):
            assert k._valid and list(k.walk(word, k.ints(d))) == want
        assert all(step(pa, x, a) == reference_step(pa, x, a)
                   for x in (Dist(masses), d) for a in pa.alphabet)


def test_only_a_walk_that_can_fail_takes_a_max(monkeypatch):
    calls = []

    def counted(v):
        calls.append(v)
        return max(v)
    monkeypatch.setattr(semantics, "max", counted, raising=False)
    word = ("a", "b") * 5
    valid = _merging_pa()
    leaky = Pa(("p", "q"), ("a", "b"), {"p": 1},
               {("p", "a"): {"p": HALF}, ("q", "a"): {"p": 1},
                ("p", "b"): {"q": 1}, ("q", "b"): {"p": 1}})
    assert not leaky.validate().ok
    for pa, checked in ((valid, False), (leaky, True)):
        k = Kernel.of(pa)
        # an over-full start is checked at every step, on either automaton
        for start, w, takes in ((None, word, checked),
                                (k.ints(Dist({"p": HALF, "q": HALF})), word, checked),
                                (k.ints(Dist({"p": 1, "q": HALF})), ("b", "b"), True)):
            calls.clear()
            assert len(list(k.walk(w, start))) == len(w) + 1
            assert len(calls) == (len(w) if takes else 0)
        calls.clear()
        trace = norm_trace(pa, word)
        # and the trace takes one max a step, for its norm
        assert len(calls) == (len(word) if checked else 0) + len(word)
        assert trace.norms[1:] == tuple(Fraction(max(v), den)
                                        for v, den in list(k.walk(word))[1:])
