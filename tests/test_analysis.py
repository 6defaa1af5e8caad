"""Search, certificates, absorption/half-bound checks, matrix oracle."""
import random
import time
from fractions import Fraction
from operator import le

import pytest

from pasynch import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    CheckResult,
    Dist,
    InputError,
    ONE,
    Pa,
    ValidationError,
    Value1Instance,
    ZERO,
    analysis,
    b_half,
    b_one,
    bounded_value_search,
    certificate_check,
    dollar_absorption_check,
    half_bound_check,
    lift,
    matrix_oracle,
    outcome,
    twin,
    witness_schedule_search,
)
from pasynch.analysis import MAX_RUNGS, _shortlex_scan, _suffix_depth, _word_at, _word_count
from pasynch.semantics import Kernel
from helpers import (
    corrupted,
    random_dist,
    random_pa,
    random_value1_instance,
    random_word,
    reference_schedule,
    reference_search,
    scored_shortlex,
)

HALF = Fraction(1, 2)


class TestMatrixOracle:
    def test_dirac_chain(self):
        pa = b_one().pa
        assert matrix_oracle(pa, ("a",)) == outcome(pa, ("a",))

    def test_empty_word(self):
        pa = b_half().pa
        assert matrix_oracle(pa, ()) == [pa.initial]

    def test_agrees_with_stepwise_simulation(self):
        rng = random.Random(11)
        for _ in range(30):
            pa = random_pa(rng)
            w = random_word(rng, pa.alphabet, 20)
            assert matrix_oracle(pa, w) == outcome(pa, w)

    def test_missing_row_named(self):
        pa = Pa(("q0",), ("a", "b"), {"q0": 1}, {("q0", "a"): {"q0": 1}})
        with pytest.raises(InputError) as err:
            matrix_oracle(pa, ("a",))
        assert str(err.value) == "delta incomplete at (q0,b)"

    def test_rejects_unknown_letter(self):
        with pytest.raises(InputError, match="position 0"):
            matrix_oracle(b_one().pa, ("z",))


class TestBoundedValueSearch:
    def test_b_one(self):
        result = bounded_value_search(b_one(), 3)
        assert result.best_word == ("a",)
        assert result.best_prob == 1
        assert result.explored == 4
        assert result.exhausted

    def test_b_half(self):
        result = bounded_value_search(b_half(), 8)
        assert result.best_word == ("a",)
        assert result.best_prob == HALF
        assert result.explored == 9

    def test_max_len_zero(self):
        result = bounded_value_search(b_one(), 0)
        assert result.best_word == ()
        assert result.best_prob == 0
        assert result.explored == 1

    def test_initial_mass_counts(self):
        pa = Pa(("s0",), ("a",), {"s0": 1}, {("s0", "a"): {"s0": 1}},
                accepting=("s0",))
        result = bounded_value_search(Value1Instance(pa), 0)
        assert result.best_word == () and result.best_prob == 1

    def test_negative_max_len_rejected(self):
        with pytest.raises(InputError) as err:
            bounded_value_search(b_one(), -1)
        assert str(err.value) == "max_len must be >= 0, got -1"

    def test_budget_guard(self):
        rng = random.Random(0)
        b = random_value1_instance(rng, max_letters=3)
        with pytest.raises(BudgetExceededError):
            bounded_value_search(b, 30, budget=1000)

    @pytest.mark.parametrize("budget", (-1, -2, -10 ** 30))
    def test_negative_budget_is_an_input_error(self, budget):
        with pytest.raises(InputError) as err:
            bounded_value_search(b_half(), 3, budget=budget)
        assert type(err.value) is InputError
        assert str(err.value) == f"budget must be >= 0, got {budget}"
        # the max_len check comes first
        with pytest.raises(InputError, match="^max_len must be >= 0, got -1$"):
            bounded_value_search(b_half(), -1, budget=budget)
        # a zero budget is still an overrun
        with pytest.raises(BudgetExceededError):
            bounded_value_search(b_half(), 3, budget=0)

    def test_tie_break_follows_declared_alphabet_order(self):
        pa = Pa(
            states=("s0", "sA"),
            alphabet=("b", "a"),
            initial={"s0": 1},
            delta={
                ("s0", "a"): {"sA": 1},
                ("s0", "b"): {"sA": 1},
                ("sA", "a"): {"sA": 1},
                ("sA", "b"): {"sA": 1},
            },
            accepting=("sA",),
        )
        result = bounded_value_search(Value1Instance(pa), 2)
        assert result.best_word == ("b",)

    def test_monotone_in_max_len(self):
        rng = random.Random(5)
        for _ in range(10):
            b = random_value1_instance(rng, max_states=4, max_letters=2)
            probs = [bounded_value_search(b, n).best_prob for n in range(5)]
            assert probs == sorted(probs)

    def test_matches_brute_force_reference(self):
        rng = random.Random(13)
        for _ in range(10):
            b = random_value1_instance(rng, max_states=4)
            assert bounded_value_search(b, 4) == reference_search(b, 4)
            assert witness_schedule_search(b, 5, 4) == reference_schedule(b, 5, 4)

    def test_repeat_runs_identical(self):
        b = b_half()
        assert bounded_value_search(b, 6) == bounded_value_search(b, 6)


def _accepting_loop() -> Value1Instance:
    """One accepting state that every letter keeps: every word has
    probability 1."""
    return Value1Instance(Pa(("s0",), ("a",), {"s0": 1}, {("s0", "a"): {"s0": 1}},
                             accepting=("s0",)))


class TestWitnessScheduleSearch:
    def test_b_one_reuses_the_perfect_word(self):
        result = witness_schedule_search(b_one(), 5, 5)
        assert result.ok
        assert result.words == (("a",),) * 5

    def test_b_half_fails_at_first_rung(self):
        result = witness_schedule_search(b_half(), 1, 8)
        assert not result.ok
        assert result.failed_at == 1
        assert result.words == ()

    def test_empty_word_suffices_when_initial_accepts(self):
        pa = Pa(("s0",), ("a",), {"s0": 1}, {("s0", "a"): {"s0": 1}},
                accepting=("s0",))
        result = witness_schedule_search(Value1Instance(pa), 1, 3)
        assert result.ok and result.words == ((),)

    def test_k_up_to_the_budget_is_filled_by_a_word_of_probability_one(self):
        # the empty word has probability 1 and beats every rung, so the
        # rest of the ladder is filled at once; testing each rung in turn
        # costs time quadratic in k
        start = time.perf_counter()
        result = witness_schedule_search(_accepting_loop(), DEFAULT_BUDGET, 1)
        assert time.perf_counter() - start < 1
        assert result.ok and result.explored == 1
        assert result.words == ((),) * DEFAULT_BUDGET
        result = witness_schedule_search(b_one(), 40, 3)
        assert result == reference_schedule(b_one(), 40, 3)
        assert result.words == (("a",),) * 40 and result.explored == 2

    def test_k_above_the_rung_bound_is_refused_whatever_the_budget(self):
        assert MAX_RUNGS == DEFAULT_BUDGET
        for k in (MAX_RUNGS + 1, 10**12):
            with pytest.raises(InputError) as err:
                witness_schedule_search(_accepting_loop(), k, 1, budget=10**12)
            assert type(err.value) is InputError
            assert str(err.value) == f"k must be <= {MAX_RUNGS}, got {k}"

    def test_k_above_the_budget_is_refused(self):
        assert witness_schedule_search(_accepting_loop(), 10, 1, budget=10).ok
        with pytest.raises(BudgetExceededError) as err:
            witness_schedule_search(_accepting_loop(), 11, 1, budget=10)
        assert str(err.value) == "k of 11 exceeds the budget of 10"

    def test_budget_guard(self):
        rng = random.Random(1)
        b = random_value1_instance(rng, max_letters=3)
        with pytest.raises(BudgetExceededError):
            witness_schedule_search(b, 2, 40, budget=100)

    @pytest.mark.parametrize("budget", (-1, -2, -10 ** 30))
    def test_negative_budget_is_an_input_error(self, budget):
        with pytest.raises(InputError) as err:
            witness_schedule_search(b_half(), 1, 3, budget=budget)
        assert type(err.value) is InputError
        assert str(err.value) == f"budget must be >= 0, got {budget}"
        with pytest.raises(InputError, match="^max_len must be >= 0, got -1$"):
            witness_schedule_search(b_half(), 1, -1, budget=budget)
        with pytest.raises(BudgetExceededError):
            witness_schedule_search(b_half(), 1, 3, budget=0)

    def test_found_words_beat_their_rungs(self):
        rng = random.Random(23)
        from pasynch import acceptance_probability
        for _ in range(10):
            b = random_value1_instance(rng, max_states=4, max_letters=2)
            result = witness_schedule_search(b, 3, 6)
            for i, w in enumerate(result.words, start=1):
                assert acceptance_probability(b.pa, w) > 1 - Fraction(1, 2 ** i)


def _merging_instance() -> Value1Instance:
    """Two same-length words, "a" and "b", reach one distribution."""
    half = {"q1": HALF, "q2": HALF}
    return Value1Instance(Pa(
        states=("q0", "q1", "q2", "acc"),
        alphabet=("a", "b"),
        initial={"q0": 1},
        delta={
            ("q0", "a"): half, ("q0", "b"): half,
            ("q1", "a"): {"acc": 1}, ("q1", "b"): {"q0": 1},
            ("q2", "a"): {"acc": 1}, ("q2", "b"): {"q2": 1},
            ("acc", "a"): {"acc": 1}, ("acc", "b"): {"acc": 1},
        },
        accepting=("acc",),
    ))


def _oracle_corpus():
    """(instance, max_len, `scored_shortlex`) on random 2-6-state Dirac
    instances over 1-5 letters, up to 1,400 words each. Half the instances
    draw every row from a pool of two, so that many words reach one
    distribution."""
    rng = random.Random(41)
    for letters in ("a", "ab", "abc", "abcd", "abcde"):
        for max_len in range(8):
            if _word_count(len(letters), max_len) > 1400:
                break
            states = tuple(f"q{i}" for i in range(rng.randint(2, 6)))
            pool = [random_dist(rng, states)
                    for _ in range(rng.choice((2, len(states) * len(letters))))]
            delta = {(q, a): rng.choice(pool) for q in states for a in letters}
            accepting = rng.sample(states, rng.randint(1, len(states)))
            b = Value1Instance(Pa(states, tuple(letters), {"q0": 1}, delta, accepting))
            yield b, max_len, scored_shortlex(b.pa, max_len)


def _record_steps(monkeypatch, forward=None, back=None):
    """Make `Kernel.shared_steps` hand out steps that first call
    `forward(letter)` or `back(letter)`, where given."""
    shared = Kernel.shared_steps

    def tap(step, record, letter):
        return step if record is None else lambda x: record(letter) or step(x)

    def recorded(k):
        lam, steps = shared(k)
        return lam, {a: (tap(f, forward, a), tap(b, back, a)) for a, (f, b) in steps.items()}
    monkeypatch.setattr(Kernel, "shared_steps", recorded)


class TestSharedScan:
    """Both searches run on one shortlex scan that extends only the first
    word of each length to reach a distribution."""

    def test_twins_match_brute_force_reference(self):
        for instance in (b_half(), b_one()):
            b = Value1Instance(twin(lift(instance)).pa, require_dirac=False)
            scored = scored_shortlex(b.pa, 7)  # the coin twin's depth in the benchmark
            for max_len in range(8):
                assert (bounded_value_search(b, max_len)
                        == reference_search(b, max_len, scored))
                for k in (1, 3, 5):
                    assert (witness_schedule_search(b, k, max_len)
                            == reference_schedule(b, k, max_len, scored))

    def test_only_the_first_word_to_reach_a_distribution_is_extended(self):
        b = _merging_instance()
        # at max_len 3 the suffix depth is 2 and layer 1 is stepped. "b"
        # reaches what "a" reached there, so "ba" and "baa" (ranks 5, 11)
        # are skipped although their suffixes "a" and "aa" are kept. The
        # suffix "b" is dropped (w_b is the accepting indicator), so is
        # every suffix ending in it, and "ba" is (w_ba <= w_aa): this skips
        # "b", "ab", "aab" and "aba" (ranks 2, 4, 8, 9)
        assert [rank for rank, _, _ in _shortlex_scan(b.pa, 3)] == [0, 1, 3, 7]
        assert bounded_value_search(b, 3) == reference_search(b, 3)
        assert bounded_value_search(b, 3).best_word == ("a", "a")
        # at max_len 2 layer 1 is not stepped: its words are scored from
        # layer 0 with the kept two-letter weights, which drop "ba"
        assert [rank for rank, _, _ in _shortlex_scan(b.pa, 2)] == [0, 1, 3]
        assert bounded_value_search(b, 2) == reference_search(b, 2)
        for k in (1, 3):
            result = witness_schedule_search(b, k, 3)
            assert result == reference_schedule(b, k, 3)
            assert result.words == (("a", "a"),) * k and result.explored == 4

    def test_scores_equal_the_matrix_oracle(self):
        # every yielded score is the oracle's probability of the word at
        # its rank, every word skipped has an earlier yielded word of at
        # least its probability, and both searches equal the brute-force
        # references
        for b, max_len, scored in _oracle_corpus():
            ranks = []
            for rank, num, den in _shortlex_scan(b.pa, max_len):
                word, p = scored[rank]
                assert _word_at(b.pa.alphabet, rank) == word
                assert Fraction(num, den) == p
                ranks.append(rank)
            assert ranks == sorted(set(ranks)) and ranks[0] == 0
            yielded, best = set(ranks), scored[0][1]
            for rank, (_, p) in enumerate(scored):
                if rank in yielded:
                    best = max(best, p)
                assert p <= best
            assert bounded_value_search(b, max_len) == reference_search(b, max_len, scored)
            for k in (1, 3, 5):
                assert (witness_schedule_search(b, k, max_len)
                        == reference_schedule(b, k, max_len, scored))

    def test_a_bar_raised_to_each_best_yields_exactly_the_records(self):
        # sending each yielded probability back as the bar, as
        # `bounded_value_search` does, yields the words strictly above
        # every earlier word, with their probabilities, then stops
        for b, max_len, scored in _oracle_corpus():
            scan = _shortlex_scan(b.pa, max_len)
            yielded = [next(scan)]
            with pytest.raises(StopIteration):
                while True:
                    yielded.append(scan.send(yielded[-1][1:]))
            records, best = [], -1
            for rank, (_, p) in enumerate(scored):
                if p > best:
                    records.append((rank, p))
                    best = p
            assert [(rank, Fraction(num, den)) for rank, num, den in yielded] == records

    def test_a_bar_at_the_value_yields_nothing(self):
        for b, max_len, scored in _oracle_corpus():
            value = max(p for _, p in scored)
            bar = value.numerator, value.denominator
            assert list(_shortlex_scan(b.pa, max_len, bar)) == []
            # a bar just below the value still lets its first word through
            below = value.numerator * 2 - 1, value.denominator * 2
            first = next(rank for rank, (_, p) in enumerate(scored) if p == value)
            assert first in [rank for rank, _, _ in _shortlex_scan(b.pa, max_len, below)]

    def test_last_layer_is_scored_not_stepped(self, monkeypatch):
        # state t holds x = 4^-|w| + the word read as base-4 digits 0, 1, 2,
        # so all 3^l words of length l reach distinct distributions
        letters = ("a", "b", "c")
        delta = {}
        for j, a in enumerate(letters):
            delta[("s", a)] = {"s": Fraction(4 - j, 4), "t": Fraction(j, 4)}
            delta[("t", a)] = {"s": Fraction(3 - j, 4), "t": Fraction(1 + j, 4)}
        b = Value1Instance(Pa(("s", "t"), letters, {"t": 1}, delta, accepting=("t",)))
        for max_len in range(9):
            calls = []
            _record_steps(monkeypatch, forward=calls.append, back=lambda a: calls.append(None))
            ranks = [rank for rank, _, _ in _shortlex_scan(b.pa, max_len)]
            monkeypatch.undo()
            d = [0, 1, 2, 2, 2, 2, 3, 3, 4][max_len]
            assert _suffix_depth(3, max_len) == d
            h = max_len - d
            # one step per word of length 1 .. h (3 + 9 + ... + 3^h); the
            # last d letters are scored
            assert len(calls) - calls.count(None) == [0, 0, 0, 3, 12, 39, 39, 120, 120][max_len]
            # S_1 drops "a" (w_a <= the accepting indicator) and keeps "b"
            # and "c"; each S_m, m >= 2, keeps 2 of its 6 candidates
            assert calls.count(None) == [0, 3, 9, 9, 9, 9, 15, 15, 21][max_len]
            assert ranks == sorted(set(ranks))
            assert len(ranks) == 1 + sum(2 * 3 ** min(length - 1, h)
                                         for length in range(1, max_len + 1))

    def test_one_letter_sweep_at_large_max_len(self):
        result = bounded_value_search(b_half(), 50_000)
        assert result.best_word == ("a",) and result.best_prob == HALF
        assert result.explored == 50_001

    def test_no_letters_at_a_huge_max_len(self):
        # the one word is the empty one, so the suffix depth does not grow
        # with max_len (the rule alone would loop up to it)
        assert _suffix_depth(0, 10**6) <= 2
        b = Value1Instance(Pa(("q",), (), {"q": 1}, {}, accepting=("q",)))
        start = time.perf_counter()
        result = bounded_value_search(b, 10**12)
        assert result == ((), 1, 1, True)
        schedule = witness_schedule_search(b, 2, 10**12)
        assert schedule == (((), ()), True, None, 1)
        assert time.perf_counter() - start < 1


def _base4_instance() -> Value1Instance:
    """State t holds x = 4^-|w| + the word read as base-4 digits 0, 1, 2
    (letters a, b, c), as in `test_last_layer_is_scored_not_stepped`."""
    letters = ("a", "b", "c")
    delta = {}
    for j, a in enumerate(letters):
        delta[("s", a)] = {"s": Fraction(4 - j, 4), "t": Fraction(j, 4)}
        delta[("t", a)] = {"s": Fraction(3 - j, 4), "t": Fraction(1 + j, 4)}
    return Value1Instance(Pa(("s", "t"), letters, {"t": 1}, delta, accepting=("t",)))


class TestLastSuffixSet:
    """Once the bar is at least 0, the last suffix set `S_d` is built only
    from the letters `a` whose bound `M_a · u_{d-1}` some block beats."""

    @staticmethod
    def _scan(monkeypatch, pa, max_len, bar):
        """The scan's yields, and its calls in order: the letter of each
        back step, None for each `_dominated` test."""
        calls, dominated = [], analysis._dominated
        _record_steps(monkeypatch, back=calls.append)
        monkeypatch.setattr(analysis, "_dominated",
                            lambda *args: calls.append(None) or dominated(*args))
        yielded = list(_shortlex_scan(pa, max_len, bar))
        monkeypatch.undo()
        return yielded, calls

    def test_a_bar_above_every_letter_builds_no_candidate(self, monkeypatch):
        # S_{d-1} keeps two vectors, and u_{d-1} is the weights of c^(d-1),
        # so letter j's bound is the probability of c^h j c^(d-1): that of
        # c^max_len, the best word of the length, less (2 - j) / 4^d. A bar
        # at c's bound beats all three: the scan makes one bound call per
        # letter at the last length and neither builds nor tests any
        # candidate there
        pa = _base4_instance().pa
        for max_len in range(2, 9):
            best = Fraction(2 * 4 ** max_len + 1, 3 * 4 ** max_len)
            full, full_calls = self._scan(monkeypatch, pa, max_len, (-1, 1))
            assert full_calls[-12:] == ["a", None, "a", None, "b", None,
                                        "b", None, "c", None, "c", None]
            yielded, calls = self._scan(monkeypatch, pa, max_len,
                                        (best.numerator, best.denominator))
            assert calls == full_calls[:-12] + ["a", "b", "c"]
            assert yielded == [y for y in full if Fraction(*y[1:]) > best]
            assert yielded[0] == (0, 1, 1)  # the empty word, at probability 1
            assert all(len(_word_at(pa.alphabet, rank)) < max_len for rank, _, _ in yielded)

    def test_only_the_letter_above_the_bar_is_built(self, monkeypatch):
        # a bar at b's bound, c's less 1/4^d, skips a and b (at most the
        # bar) and builds c's two candidates, whose words of the last
        # length still come out
        pa = _base4_instance().pa
        for max_len in range(2, 9):
            d = _suffix_depth(3, max_len)
            best = Fraction(2 * 4 ** max_len + 1, 3 * 4 ** max_len)
            bar = best - Fraction(1, 4 ** d)
            full, full_calls = self._scan(monkeypatch, pa, max_len, (-1, 1))
            yielded, calls = self._scan(monkeypatch, pa, max_len,
                                        (bar.numerator, bar.denominator))
            assert calls == full_calls[:-12] + ["a", "b", "c", "c", None, "c", None]
            assert yielded == [y for y in full if Fraction(*y[1:]) > bar]
            last = [rank for rank, _, _ in yielded
                    if len(_word_at(pa.alphabet, rank)) == max_len]
            assert last and all(_word_at(pa.alphabet, rank)[-d] == "c" for rank in last)
            assert _word_at(pa.alphabet, last[-1]) == ("c",) * max_len


def _pruned_instance(rng: random.Random, letters: str, kind: str) -> Value1Instance:
    """A random 2-6-state instance rich in dominated suffixes: absorbing
    `sinks`, rows drawn from a `pool` of two, or both; the start is a
    random distribution in about half of them."""
    states = tuple(f"q{i}" for i in range(rng.randint(2, 6)))
    pool = [random_dist(rng, states) for _ in range(2)]
    sinks = rng.sample(states, rng.randint(1, len(states) - 1)) if "sinks" in kind else ()
    delta = {(q, a): {q: 1} if q in sinks else rng.choice(pool) if "pool" in kind
             else random_dist(rng, states) for q in states for a in letters}
    initial = {"q0": 1} if rng.random() < 0.5 else random_dist(rng, states)
    accepting = rng.sample(states, rng.randint(1, len(states)))
    return Value1Instance(Pa(states, tuple(letters), initial, delta, accepting),
                          require_dirac=False)


def _dense_weights(pa: Pa, letter: str, after: list[Fraction]) -> list[Fraction]:
    """`M_letter · after` in `Fraction`s, each row read from `pa.row`, so
    independently of `Kernel`."""
    return [sum((p * after[pa.states.index(t)] for t, p in pa.row(q, letter).items()), ZERO)
            for q in pa.states]


class TestSuffixPruning:
    """The scan scores suffixes from weight vectors and drops every vector
    componentwise at most an earlier kept one."""

    def test_searches_match_the_references_on_dominated_suffixes(self):
        rng = random.Random(43)
        for letters in ("a", "ab", "abc", "abcd", "abcde"):
            for max_len in range(9):
                if _word_count(len(letters), max_len) > 800:
                    break
                for kind in ("sinks", "pool", "sinks+pool"):
                    b = _pruned_instance(rng, letters, kind)
                    scored = scored_shortlex(b.pa, max_len)
                    assert bounded_value_search(b, max_len) == reference_search(b, max_len, scored)
                    for k in (1, 2, 4, 8):
                        assert (witness_schedule_search(b, k, max_len)
                                == reference_schedule(b, k, max_len, scored))

    def test_non_dirac_twins_match_the_references(self):
        rng = random.Random(47)
        for _ in range(6):
            source = random_value1_instance(rng, max_states=3, max_letters=2, max_den=4)
            b = Value1Instance(twin(lift(source)).pa, require_dirac=False)
            max_len = 4 if len(b.pa.alphabet) == 4 else 6
            scored = scored_shortlex(b.pa, max_len)
            for n in range(max_len + 1):
                assert bounded_value_search(b, n) == reference_search(b, n, scored)
                for k in (1, 2, 4):
                    assert witness_schedule_search(b, k, n) == reference_schedule(b, k, n, scored)

    def test_every_dropped_suffix_is_below_an_earlier_kept_one(self, monkeypatch):
        # replays the scan's candidates in its order (`a·x` for each letter
        # `a`, then each kept `x` of the last length) on dense `Fraction`
        # vectors, and checks the scan drops exactly the candidates that
        # some earlier kept suffix dominates
        rng = random.Random(53)
        dominated = analysis._dominated
        for case in range(60):
            letters = ("ab", "abc", "abcd")[case % 3]
            b = _pruned_instance(rng, letters, ("sinks", "pool", "plain")[case % 3 - 1])
            pa = b.pa
            max_len = {2: 8, 3: 6, 4: 6}[len(letters)]
            calls = []
            monkeypatch.setattr(analysis, "_dominated",
                                lambda w, kept: calls.append((w, dominated(w, kept)))
                                or calls[-1][1])
            list(_shortlex_scan(pa, max_len))
            monkeypatch.undo()
            kept = [[ONE if q in pa.accepting else ZERO for q in pa.states]]
            last = [kept[0]]
            replayed = iter(calls)
            for _ in range(_suffix_depth(len(letters), max_len)):
                last = [w for w in (_dense_weights(pa, a, x) for a in letters for x in last)
                        if self._check(next(replayed), w, kept)]
                if not last:
                    break
            assert next(replayed, None) is None

    @staticmethod
    def _check(call, w, kept) -> bool:
        """`call`, a recorded (weights, dropped) pair, matches the dense
        vector `w`; appends `w` to `kept` unless dropped."""
        (num, den), dropped = call
        assert [Fraction(x, den) for x in num] == w
        assert dropped == any(all(map(le, w, y)) for y in kept)
        if not dropped:
            kept.append(w)
        return not dropped

    def test_incomparable_suffixes_stay_within_the_depth(self, monkeypatch):
        # the suffix weights (1/2 + (-1/3)^m / 2, 1/2 - (-1/3)^m / 2) of
        # a^m are pairwise incomparable, so none is dropped and the scan
        # makes one back step per suffix length
        third = Fraction(1, 3)
        pa = Pa(("x", "y"), ("a",), {"x": 1},
                {("x", "a"): {"x": third, "y": 2 * third},
                 ("y", "a"): {"x": 2 * third, "y": third}}, accepting=("x",))
        calls = []
        _record_steps(monkeypatch, back=lambda a: calls.append(1))
        result = bounded_value_search(Value1Instance(pa), 6000)
        assert result.best_word == () and result.best_prob == 1 and result.explored == 6001
        assert len(calls) == _suffix_depth(1, 6000) == 108


class TestSharedDenominator:
    """Each stepped layer is one denominator `D` over numerator tuples,
    divided by its common factor only once `D` passes `LAYER_DEN_BITS`."""

    @staticmethod
    def _assert_matches_references(b, max_len, scored):
        """The scan's yields and both searches at `max_len` against
        `scored`, from `scored_shortlex` at a bound of at least `max_len`."""
        for rank, num, den in _shortlex_scan(b.pa, max_len):
            assert Fraction(num, den) == scored[rank][1]
        assert bounded_value_search(b, max_len) == reference_search(b, max_len, scored)
        for k in (1, 2, 5):
            assert (witness_schedule_search(b, k, max_len)
                    == reference_schedule(b, k, max_len, scored))

    def test_one_letter_chains_reduced_past_the_bound(self, monkeypatch):
        # rows over 2 and 3, so Λ = 6 and D = 6^t before any reduction. In
        # the first chain the masses have denominators 2 * 3^(t-1), in the
        # second they stay 1/2 (r, over 3, is never reached): once D passes
        # 64 bits the layer is divided down to the masses' own denominator
        third = Fraction(1, 3)
        chains = [
            {("p", "a"): {"q": HALF, "r": HALF}, ("q", "a"): {"q": third, "r": 2 * third},
             ("r", "a"): {"r": 1}},
            {("p", "a"): {"p": HALF, "q": HALF}, ("q", "a"): {"p": HALF, "q": HALF},
             ("r", "a"): {"r": third, "p": 2 * third}},
        ]
        reduced, dens = analysis._reduced, []

        def recorded(layer, den, base):
            out = reduced(layer, den, base)
            dens.append((den, out[1]))
            return out
        monkeypatch.setattr(analysis, "_reduced", recorded)
        for want, delta in zip((2 * 3 ** 24, 2), chains):
            b = Value1Instance(Pa(("p", "q", "r"), ("a",), {"p": 1}, delta, ("q",)))
            for max_len in (0, 1, 20, 400):  # layers stepped up to 0, 0, 16 and 357
                dens.clear()
                self._assert_matches_references(b, max_len, scored_shortlex(b.pa, max_len))
                if max_len < 400:
                    assert dens == []
                    continue
                # 6^25 is the first D past 64 bits
                assert dens[0] == (6 ** 25, want)
                assert all(before.bit_length() > analysis.LAYER_DEN_BITS and after < before
                           for before, after in dens)

    def test_a_huge_denominator_matches_the_references(self):
        # Λ = 10^4400, so every layer past the start is over the bound
        tiny = Fraction(1, 10 ** 4400)
        b = Value1Instance(Pa(("p", "q"), ("a", "b"), {"p": 1},
                              {("p", "a"): {"p": tiny, "q": 1 - tiny}, ("q", "a"): {"p": 1},
                               ("p", "b"): {"q": 1}, ("q", "b"): {"p": tiny, "q": 1 - tiny}},
                              ("q",)))
        scored = scored_shortlex(b.pa, 5)
        for max_len in range(6):
            self._assert_matches_references(b, max_len, scored)

    @pytest.mark.parametrize("delta", [
        {("p", "a"): {"q": 1}},  # no row for (q, a)
        {("p", "a"): {"q": 1}, ("q", "a"): {"p": HALF, "q": 1}},  # a row summing to 3/2
    ])
    def test_a_malformed_automaton_is_refused(self, delta):
        scan = _shortlex_scan(Pa(("p", "q"), ("a",), {"p": 1}, delta, ("q",)), 3)
        with pytest.raises(ValidationError):
            next(scan)


class TestCertificate:
    def test_b_one_passes(self):
        c = twin(lift(b_one()))
        w = ("a", c.dollar)
        cert = certificate_check(c, [w, w])
        assert cert.ok
        assert cert.checkpoints == (2, 5)
        assert cert.norms == (1, 1)
        assert cert.thresholds == (HALF, Fraction(3, 4))

    def test_b_half_fails_on_strictness(self):
        c = twin(lift(b_half()))
        cert = certificate_check(c, [("a", c.dollar)])
        assert not cert.ok
        assert cert.norms == (HALF,)
        assert cert.thresholds == (HALF,)

    def test_truth_is_the_verdict(self):
        c = twin(lift(b_one()))
        assert bool(certificate_check(c, [("a", c.dollar)])) is True
        assert bool(certificate_check(c, [("a",)])) is False

    def test_schedule_without_commit_mass_fails(self):
        c = twin(lift(b_one()))
        cert = certificate_check(c, [("a",)])
        assert not cert.ok
        assert cert.norms[0] <= HALF

    def test_reset_letter_in_a_schedule_word_rejected(self):
        c = twin(lift(b_one()))
        with pytest.raises(InputError) as err:
            certificate_check(c, [("a", c.dollar), (c.hash, "a")])
        assert str(err.value) == (
            "schedule word 2: reset letter '@sym:#' at position 0 not allowed here")


class TestDollarAbsorption:
    def test_b_one_prefix(self):
        c = twin(lift(b_one()))
        assert dollar_absorption_check(c, ("a", c.dollar), 5).ok

    def test_reset_after_commit_is_an_input_error(self):
        c = twin(lift(b_one()))
        with pytest.raises(InputError, match="commit letter with no reset"):
            dollar_absorption_check(c, ("a", c.dollar, c.hash), 3)

    def test_horizon_zero_checks_only_the_commit_step(self):
        c = twin(lift(b_half()))
        assert dollar_absorption_check(c, ("a", c.dollar), 0).ok

    def test_commit_step_may_hold_success_mass(self):
        # right after the commit letter all mass can sit on the success
        # sink; the failure pair must still be balanced
        c = twin(lift(b_one()))
        d = outcome(c.pa, ("a", c.dollar))[-1]
        assert d == Dist.dirac(c.q_f)
        assert dollar_absorption_check(c, ("a", c.dollar), 10).ok

    def test_prefix_continuing_past_commit(self):
        c = twin(lift(b_one()))
        assert dollar_absorption_check(c, ("a", c.dollar, "a", "a"), 6).ok

    def test_later_commit_chosen_after_reset(self):
        c = twin(lift(b_one()))
        prefix = ("a", c.dollar, c.hash, "a", c.dollar)
        assert dollar_absorption_check(c, prefix, 4).ok

    def test_requires_commit_letter(self):
        c = twin(lift(b_one()))
        with pytest.raises(InputError):
            dollar_absorption_check(c, ("a", "a"), 3)

    def test_detects_broken_sink_split(self):
        c = twin(lift(b_one()))
        bad = corrupted(c, c.q_f, "a", {c.q_n: 1})
        result = dollar_absorption_check(bad, ("a", c.dollar), 3)
        assert not result.ok
        assert "step 3" in result.reason

    def test_detects_broken_failure_pair_row(self):
        # all mass sits on the success sink after the commit letter, so
        # the broken failure-pair row first shows one step later
        c = twin(lift(b_one()))
        bad = corrupted(c, c.q_n, "a", {c.q_n: 1})
        assert dollar_absorption_check(bad, ("a", c.dollar), 1).ok
        for horizon in (2, 10**9):
            result = dollar_absorption_check(bad, ("a", c.dollar), horizon)
            assert not result.ok
            assert result.reason.startswith("step 4 via 'a'")


class TestHalfBound:
    def test_plain_words(self):
        c = twin(lift(b_one()))
        assert half_bound_check(c, ("a", "a", "a")).ok
        assert half_bound_check(c, ("a", c.hash, "a")).ok
        assert half_bound_check(c, ()).ok

    def test_commit_letter_rejected(self):
        c = twin(lift(b_one()))
        with pytest.raises(InputError, match="commit letter"):
            half_bound_check(c, (c.dollar,))
        with pytest.raises(InputError) as err:
            half_bound_check(c, ("a", c.hash, c.dollar))
        assert str(err.value) == "commit letter '@sym:$' at position 2 not allowed here"

    def test_matches_the_oracle_on_corrupted_twins(self):
        # the verdict and message of checking every step's Fraction norm,
        # on twins where some pairs' rows on one letter are replaced by a
        # distribution on at most three states
        rng = random.Random(43)
        verdicts = set()
        for _ in range(60):
            c = twin(lift(random_value1_instance(rng, max_states=4, max_letters=2)))
            letter = rng.choice(c.lifted_alphabet[:-1] + (c.hash,))
            row = random_dist(rng, rng.sample(c.pa.states, rng.randint(1, 3)))
            for q in rng.sample(sorted(c.twin_of), rng.randint(1, len(c.twin_of))):
                c = corrupted(corrupted(c, q, letter, row), c.twin_of[q], letter, row)
            letters = tuple(a for a in c.pa.alphabet if a != c.dollar)
            for _ in range(5):
                w = random_word(rng, letters, 8)
                want = CheckResult(True)
                for i, d in enumerate(matrix_oracle(c.pa, w)):
                    if d.norm() > HALF:
                        want = CheckResult(False, f"step {i}: norm {d.norm()} exceeds 1/2")
                        break
                assert half_bound_check(c, w) == want
                verdicts.add(want.ok)
        assert verdicts == {True, False}

    def test_stops_at_the_first_step_past_half(self):
        # the reset rows send all mass to a name outside the states, and
        # stepping out of it is an input error; the walk stops before that
        c = twin(lift(b_one()))
        bad = corrupted(corrupted(c, c.q0, c.hash, {"z": 1}), c.q0_hat, c.hash, {"z": 1})
        result = half_bound_check(bad, (c.hash, "a", "a"))
        assert result == CheckResult(False, "step 1: norm 1 exceeds 1/2")
        with pytest.raises(InputError, match="unknown state 'z'"):
            outcome(bad.pa, (c.hash, "a"))

    def test_detects_broken_reset(self):
        c = twin(lift(b_one()))
        bad = corrupted(c, "sA", c.hash, {"s0": 1})
        result = half_bound_check(bad, ("a", c.hash))
        assert not result.ok
        assert "step 2" in result.reason
