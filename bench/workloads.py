"""Seeded inputs, timed operations and correctness checks for each workload.

Every input is generated here from the run's seed; nothing is shared with
the test suite, so editing the tests cannot shift a workload. Each
workload object exposes

* ``op(i)``: the i-th operation of the run, as a zero-argument callable
  whose return value is handed to ``check``. Only the callable is timed.
* ``check(i, result)``: ``None`` when the output is right, otherwise a
  one-line reason. Checks compare against answers that do not come from
  the code path being timed (frozen values, ``matrix_oracle``, the
  benchmark's own CSV reader and arithmetic).

``CALIBRATION`` names the calibration chunk whose kind of work is
closest to the workload's (see ``calibrate``). The ``expected_*``
attributes hold the reference values the checks use.
The self-test overwrites one of them with a wrong value to prove that a
mismatch is counted as a failure.
"""
from __future__ import annotations

import contextlib
import csv
import io
import os
import random
from fractions import Fraction

import pasynch
from pasynch import analysis, cli, paformat, reduction, semantics

ONE = Fraction(1)
HALF = Fraction(1, 2)
LETTERS = ("a", "b", "c")
# Fresh letter names the constructions pick when the source alphabet
# does not already use them; the generated alphabets never do.
COMMIT = "@sym:$"
RESET = "@sym:#"


def composition(rng: random.Random, states, max_den: int = 8) -> dict[str, Fraction]:
    """A random distribution: a composition of a denominator <= max_den."""
    den = rng.randint(1, max_den)
    cuts = sorted(rng.randint(0, den) for _ in range(len(states) - 1))
    bounds = [0, *cuts, den]
    parts = [bounds[i + 1] - bounds[i] for i in range(len(states))]
    return {s: Fraction(n, den) for s, n in zip(states, parts) if n}


def random_pa(rng: random.Random, n_states: int, *, dirac: bool,
              accepting_pool: int) -> pasynch.Pa:
    """A complete PA over three letters with composition rows.

    The start state is q0; the accepting set is a nonempty random subset
    of the last ``accepting_pool`` states (never q0).
    """
    states = tuple(f"q{i}" for i in range(n_states))
    delta = {(q, a): composition(rng, states) for q in states for a in LETTERS}
    initial = {states[0]: 1} if dirac else composition(rng, states)
    pool = states[-accepting_pool:]
    accepting = rng.sample(pool, rng.randint(1, len(pool)))
    return pasynch.Pa(states, LETTERS, initial, delta, accepting)


def random_word(rng: random.Random, letters, length: int) -> tuple[str, ...]:
    return tuple(rng.choice(letters) for _ in range(length))


def word_count(n_letters: int, max_len: int) -> int:
    """Number of words of length <= max_len, counted independently of the package."""
    return sum(n_letters ** n for n in range(max_len + 1))


def accept_mass(pa: pasynch.Pa, dist) -> Fraction:
    return sum((p for q, p in dist.items() if q in pa.accepting), Fraction(0))


def oracle_prob(pa: pasynch.Pa, word) -> Fraction:
    return accept_mass(pa, analysis.matrix_oracle(pa, word)[-1])


class LongWord:
    """One ``norm_trace`` of a 200-letter word per op, on 6-state PAs.

    All time goes to exact big-integer stepping in ``semantics``/``core``;
    denominators reach ~1,000 bits by the last letter. No search, no I/O.
    """

    CALIBRATION = "bigint"

    N_AUTOMATA = 256
    WORDS_PER_AUTOMATON = 2
    WORD_LEN = 200
    ORACLE_SAMPLES = 8

    def __init__(self, seed: int):
        rng = random.Random(f"long_word/{seed}")
        automata = [random_pa(rng, 6, dirac=False, accepting_pool=5)
                    for _ in range(self.N_AUTOMATA)]
        self.pairs = [
            (pa, random_word(rng, LETTERS, self.WORD_LEN))
            for pa in automata for _ in range(self.WORDS_PER_AUTOMATON)
        ]
        rng.shuffle(self.pairs)
        self.oracle_pairs = set(rng.sample(range(len(self.pairs)), self.ORACLE_SAMPLES))
        self.oracle_done: set[int] = set()
        self.expected_total = ONE

    def op(self, i: int):
        pa, word = self.pairs[i % len(self.pairs)]
        return lambda: semantics.norm_trace(pa, word)

    def check(self, i: int, trace) -> str | None:
        k = i % len(self.pairs)
        pa, word = self.pairs[k]
        if len(trace.entries) != len(word) + 1:
            return f"op {i}: {len(trace.entries)} trace entries for a {len(word)}-letter word"
        total = sum((p for _, p in trace.entries[-1].dist.items()), Fraction(0))
        if total != self.expected_total:
            return f"op {i}: final distribution sums to {total}, expected {self.expected_total}"
        if k in self.oracle_pairs and k not in self.oracle_done:
            self.oracle_done.add(k)
            reference = analysis.matrix_oracle(pa, word)
            for entry, ref in zip(trace.entries, reference):
                for q in pa.states:
                    if entry.dist.mass(q) != ref.mass(q):
                        return f"op {i}: step {entry.step} state {q} differs from matrix_oracle"
        return None


class SearchSweep:
    """One ``bounded_value_search`` or ``witness_schedule_search`` per op.

    Five of every six ops run on random 5-state Dirac instances at
    ``max_len`` 6 (1,093 words), alternating the two searches on each
    instance. Every sixth op runs on the twin of the coin-flip instance,
    taken without the single-start requirement, at ``max_len`` 7: 3,280
    words that reach only four distinct distributions.
    """

    CALIBRATION = "rational"

    N_INSTANCES = 128
    MAX_LEN = 6
    SCHEDULE_K = 4
    COIN_MAX_LEN = 7
    COIN_EVERY = 6

    def __init__(self, seed: int):
        rng = random.Random(f"search_sweep/{seed}")
        self.instances = [
            reduction.Value1Instance(random_pa(rng, 5, dirac=True, accepting_pool=2))
            for _ in range(self.N_INSTANCES)
        ]
        coin_twin = reduction.twin(reduction.lift(reduction.Value1Instance(coin_flip_pa())))
        self.coin = reduction.Value1Instance(coin_twin.pa, require_dirac=False)
        # frozen: on the twinned coin flip the best acceptance probability
        # of any word is exactly 1/2 (acceptance criterion 8)
        self.expected_coin_top = HALF

    def _plan(self, i: int):
        """(instance, search kind, max_len, is_coin) of op i."""
        if i % self.COIN_EVERY == self.COIN_EVERY - 1:
            kind = "bounded" if (i // self.COIN_EVERY) % 2 == 0 else "schedule"
            return self.coin, kind, self.COIN_MAX_LEN, True
        j = i - i // self.COIN_EVERY
        b = self.instances[(j // 2) % len(self.instances)]
        return b, ("bounded" if j % 2 == 0 else "schedule"), self.MAX_LEN, False

    def op(self, i: int):
        b, kind, max_len, _ = self._plan(i)
        if kind == "bounded":
            return lambda: analysis.bounded_value_search(b, max_len)
        return lambda: analysis.witness_schedule_search(b, self.SCHEDULE_K, max_len)

    def check(self, i: int, result) -> str | None:
        b, kind, max_len, is_coin = self._plan(i)
        space = word_count(len(b.pa.alphabet), max_len)
        if kind == "bounded":
            if not result.exhausted or result.explored != space:
                return f"op {i}: explored {result.explored} of {space} words"
            if len(result.best_word) > max_len:
                return f"op {i}: best word longer than {max_len}"
            if oracle_prob(b.pa, result.best_word) != result.best_prob:
                return f"op {i}: best_prob differs from matrix_oracle"
            if is_coin and result.best_prob != self.expected_coin_top:
                return f"op {i}: coin-flip twin top {result.best_prob} != {self.expected_coin_top}"
            return None
        for rung, word in enumerate(result.words, start=1):
            if len(word) > max_len or oracle_prob(b.pa, word) <= ONE - Fraction(1, 2 ** rung):
                return f"op {i}: schedule word {rung} does not beat 1-2^-{rung}"
        if result.ok != (len(result.words) == self.SCHEDULE_K):
            return f"op {i}: ok={result.ok} with {len(result.words)} words"
        if not result.ok and result.failed_at != len(result.words) + 1:
            return f"op {i}: failed_at {result.failed_at} after {len(result.words)} words"
        if is_coin:
            # a top value of 1/2 does not beat rung 1 (1 - 2^-1), so the
            # scan covers the whole space and fails there
            want = (False, 1 if self.expected_coin_top <= HALF else None, space)
            got = (result.ok, result.failed_at, result.explored)
            if got != want:
                return f"op {i}: coin-flip twin schedule gave {got}, expected {want}"
        return None


# Coin flip into accept/reject sinks: every nonempty word scores 1/2.
COIN_FLIP = (
    ("s0", "sA", "sR"), ("a",), {"s0": ONE},
    {("s0", "a"): {"sA": HALF, "sR": HALF},
     ("sA", "a"): {"sA": ONE}, ("sR", "a"): {"sR": ONE}},
    ("sA",),
)


def coin_flip_pa() -> pasynch.Pa:
    return pasynch.Pa(*COIN_FLIP)


def pa_text(states, letters, initial, delta, accepting) -> str:
    """Write a `.pa` document with the benchmark's own writer, so that the
    CLI reads inputs the package did not produce."""
    def masses(dist):
        return " ".join(f"{q} {p}" for q, p in dist.items())
    lines = ["format: pa/1", "states: " + " ".join(states),
             "letters: " + " ".join(letters), "initial: " + masses(initial),
             "accepting: " + " ".join(accepting)]
    lines += [f"row: {q} {a} {masses(delta[q, a])}" for q in states for a in letters]
    return "\n".join(lines) + "\n"


def drain_instance(rng: random.Random) -> str:
    """A 4-state instance whose letter ``a`` moves more than half of every
    non-sink state's mass into the accepting sink q3.

    Then P(a^i) > 1 - 2^-i for every i, so ``schedule`` succeeds with
    words no longer than its rung, and ``certify`` must pass on them.
    """
    states = ("q0", "q1", "q2", "q3")
    sink = "q3"
    delta: dict[tuple[str, str], dict[str, Fraction]] = {}
    for q in states[:-1]:
        den = rng.randint(2, 8)
        drained = rng.randint(den // 2 + 1, den)
        rest = den - drained
        row = {s: p * Fraction(rest, den)
               for s, p in composition(rng, states, rest).items()} if rest else {}
        row[sink] = row.get(sink, Fraction(0)) + Fraction(drained, den)
        delta[q, "a"] = {s: row[s] for s in states if s in row}
        for a in LETTERS[1:]:
            delta[q, a] = composition(rng, states)
    for a in LETTERS:
        delta[sink, a] = {sink: ONE}
    accepting = [sink] + rng.sample(("q1", "q2"), rng.randint(0, 2))
    return pa_text(states, LETTERS, {"q0": ONE}, delta, sorted(accepting))


def dotted(word) -> str:
    return ".".join(word)


def schedule_words(output: str) -> list[str]:
    """The words of `schedule` output lines "u<i>: a.b", as typed on the CLI."""
    return [line.split(":", 1)[1].strip() for line in output.splitlines()
            if line.startswith("u")]


class CliPipeline:
    """Each op takes one random instance through ``pasynch.cli.main`` in
    the order a user types the commands, on `.pa` files in a work
    directory. Op 0 of every run is instead one ``lasso --csv`` of a
    reset-containing loop repeated 20,000 times on the twinned coin flip.
    """

    CALIBRATION = "text"

    N_INSTANCES = 64
    SCHEDULE_K = 3
    HORIZON = 100
    LASSO_REPS = 20000
    LASSO_LOOP = ("a", RESET)

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(f"cli_pipeline/{seed}")
        self.dir = workdir
        self.plans = []
        for n in range(self.N_INSTANCES):
            source = self.path(f"src{n}.pa")
            with open(source, "w", encoding="utf-8") as fh:
                fh.write(drain_instance(rng))
            twin_letters = (*LETTERS, COMMIT, RESET)
            self.plans.append({
                "source": source,
                "p2_word": random_word(rng, LETTERS, 12),
                "v1": random_word(rng, twin_letters, 10),
                "v2": random_word(rng, twin_letters, 10),
                "half_word": random_word(rng, (*LETTERS, RESET), 12),
                "prefix": random_word(rng, LETTERS, 6) + (COMMIT,),
            })
        with open(self.path("coin.pa"), "w", encoding="utf-8") as fh:
            fh.write(pa_text(*COIN_FLIP))
        self.expected_exit = 0

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    @staticmethod
    def run_cli(argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def op(self, i: int):
        return self._lasso if i == 0 else lambda: self._pipeline(self.plans[i % len(self.plans)])

    def _lasso(self):
        lifted, twinned = self.path("coin-lift.pa"), self.path("coin-twin.pa")
        run = self.run_cli
        return [
            ("lift", run(["lift", self.path("coin.pa"), "-o", lifted])),
            ("twin", run(["twin", lifted, "-o", twinned])),
            ("lasso", run(["lasso", twinned, "--loop", dotted(self.LASSO_LOOP),
                           "--reps", str(self.LASSO_REPS), "--csv", self.path("lasso.csv")])),
        ]

    def _pipeline(self, plan):
        src, lifted, twinned = plan["source"], self.path("lifted.pa"), self.path("twin.pa")
        run = self.run_cli
        steps = [
            ("validate", run(["validate", src])),
            ("lift", run(["lift", src, "-o", lifted])),
            ("twin", run(["twin", lifted, "-o", twinned])),
            ("check-p2", run(["check-p2", lifted, twinned, "--word", dotted(plan["p2_word"])])),
            ("check-p1", run(["check-p1", twinned, "--v1", dotted(plan["v1"]),
                              "--v2", dotted(plan["v2"])])),
            ("halfbound", run(["halfbound", twinned, "--word", dotted(plan["half_word"])])),
            ("absorb", run(["absorb", twinned, "--prefix", dotted(plan["prefix"]),
                            "--horizon", str(self.HORIZON)])),
        ]
        scheduled = run(["schedule", src, "--k", str(self.SCHEDULE_K), "--max-len",
                         str(self.SCHEDULE_K)])
        steps.append(("schedule", scheduled))
        schedule = ",".join(f"{w}.{COMMIT}" if w else COMMIT
                            for w in schedule_words(scheduled[1]))
        steps.append(("certify", run(["certify", twinned, "--schedule", schedule])))
        return steps

    def check(self, i: int, steps) -> str | None:
        for name, (code, out) in steps:
            if code != self.expected_exit:
                return (f"op {i}: {name} exited {code}, expected {self.expected_exit}: "
                        f"{out.strip()[-200:]}")
        if i == 0:
            return self._check_lasso()
        outputs = dict(steps)
        if len(schedule_words(outputs["schedule"][1])) != self.SCHEDULE_K:
            return f"op {i}: schedule printed the wrong number of words"
        if outputs["certify"][1].splitlines()[-1:] != ["PASS"]:
            return f"op {i}: certify did not pass after a successful schedule"
        for name in ("lifted.pa", "twin.pa"):
            with open(self.path(name), encoding="utf-8") as fh:
                text = fh.read()
            if paformat.serialize_pa(paformat.parse_pa(text)) != text:
                return f"op {i}: {name} does not round-trip byte-identically"
        return None

    def _check_lasso(self) -> str | None:
        want_rows = 1 + self.LASSO_REPS * len(self.LASSO_LOOP)
        rows = 0
        with open(self.path("lasso.csv"), encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            for row in reader:
                rows += 1
                if len(row) != len(header) or sum(map(Fraction, row[3:])) != ONE:
                    return f"lasso row {rows} does not sum to 1"
        if rows != want_rows:
            return f"lasso wrote {rows} rows, expected {want_rows}"
        return None


def make(name: str, seed: int, workdir: str):
    if name == "cli_pipeline":
        return CliPipeline(seed, workdir)
    return {"long_word": LongWord, "search_sweep": SearchSweep}[name](seed)
