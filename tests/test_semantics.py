"""Distribution evolution: step, outcome, acceptance, traces."""
import copy
import pickle
import random
import sys
from fractions import Fraction
from itertools import product
from math import gcd
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
    step,
    twin,
)
from pasynch.core import _coprime_fraction
from pasynch.semantics import Kernel, lasso_stream
from helpers import (
    family_pa,
    random_dist,
    random_pa,
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
    # P(u·x) = <v, w_x> / (D * L_x) for the pair (v, D) of u and the
    # weights of x, built one letter back at a time, up to three letters
    rng = random.Random(seed)
    pa = family_pa(rng)
    k = Kernel.of(pa)
    u = random_word(rng, pa.alphabet, 6)
    v, den = list(k.walk(u))[-1]
    for a in pa.alphabet:
        w, den_w = k.weights(a, k.accept)
        assert [Fraction(x, den_w) for x in w] == [
            sum((pa.delta[(q, a)].mass(t) for t in pa.accepting), Fraction(0))
            for q in pa.states]
    x, weights = (), k.accept
    for _ in range(3):
        a = rng.choice(pa.alphabet)
        x, weights = (a, *x), k.weights(a, weights)
        final = matrix_oracle(pa, u + x)[-1]
        want = sum((final.mass(q) for q in pa.accepting), Fraction(0))
        assert Fraction(sum(map(mul, v, weights[0])), den * weights[1]) == want


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


def test_walk_reduces_a_common_factor_past_the_base():
    # p keeps 4^-n after a^n; collapsing onto p leaves the pair (4^n, 0) / 4^n,
    # a common factor 4^n that one round over the base 4 only cuts to 4^(n-1)
    pa = Pa(("p", "q"), ("a", "c"), {"p": 1},
            {("p", "a"): {"p": Fraction(1, 4), "q": Fraction(3, 4)}, ("q", "a"): {"q": 1},
             ("p", "c"): {"p": 1}, ("q", "c"): {"p": 1}})
    for n in range(5):
        pairs = list(Kernel.of(pa).walk(("a",) * n + ("c",)))
        assert pairs[-2][1] == 4 ** n
        assert pairs[-1] == ((1, 0), 1)


def test_walk_reduces_the_start_denominator():
    # no row has a 3 in its denominator; only the start does
    pa = Pa(("p", "q"), ("a", "c"), {"p": Fraction(1, 3), "q": Fraction(2, 3)},
            {("p", "a"): {"p": HALF, "q": HALF}, ("q", "a"): {"q": 1},
             ("p", "c"): {"p": 1}, ("q", "c"): {"p": 1}})
    for n in range(4):
        pairs = list(Kernel.of(pa).walk(("a",) * n + ("c",)))
        assert pairs[-2][1] == 3 * 2 ** n
        assert pairs[-1] == ((1, 0), 1)


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

