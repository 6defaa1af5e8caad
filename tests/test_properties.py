"""Property tests for the model invariants and construction identities."""
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from pasynch import (
    acceptance_probability,
    bounded_value_search,
    build_witness_prefix,
    certificate_check,
    check_p1,
    check_p2,
    dollar_absorption_check,
    half_bound_check,
    lift,
    matrix_oracle,
    norm_trace,
    outcome,
    parse_pa,
    serialize_pa,
    twin,
    witness_schedule_search,
)
from helpers import (
    random_pa,
    random_value1_instance,
    random_word,
    reference_schedule,
    reference_search,
)

seeds = st.integers(0, 2 ** 32 - 1)
HALF = Fraction(1, 2)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_conservation(seed):
    rng = random.Random(seed)
    pa = random_pa(rng)
    w = random_word(rng, pa.alphabet, 12)
    for d in outcome(pa, w):
        assert d.total() == 1


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_outcome_matches_matrix_oracle(seed):
    rng = random.Random(seed)
    pa = random_pa(rng)
    w = random_word(rng, pa.alphabet, 20)
    assert outcome(pa, w) == matrix_oracle(pa, w)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_prefix_consistency(seed):
    rng = random.Random(seed)
    pa = random_pa(rng)
    u = random_word(rng, pa.alphabet, 6)
    w = random_word(rng, pa.alphabet, 6)
    assert outcome(pa, u + w)[len(u)] == outcome(pa, u)[len(u)]


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_norm_bounds(seed):
    rng = random.Random(seed)
    pa = random_pa(rng)
    w = random_word(rng, pa.alphabet, 8)
    for d in outcome(pa, w):
        support = d.support()
        assert Fraction(1, len(support)) <= d.norm() <= 1
        assert (d.norm() == 1) == (len(support) == 1)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_post_set_monotone(seed):
    rng = random.Random(seed)
    pa = random_pa(rng)
    big_s = set(rng.sample(pa.states, rng.randint(0, len(pa.states))))
    small_s = set(rng.sample(sorted(big_s), rng.randint(0, len(big_s))))
    big_l = set(rng.sample(pa.alphabet, rng.randint(0, len(pa.alphabet))))
    small_l = set(rng.sample(sorted(big_l), rng.randint(0, len(big_l))))
    assert pa.post_set(small_s, small_l) <= pa.post_set(big_s, big_l)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_norm_trace_matches_dists(seed):
    rng = random.Random(seed)
    pa = random_pa(rng)
    w = random_word(rng, pa.alphabet, 10)
    trace = norm_trace(pa, w)
    dists = outcome(pa, w)
    assert len(trace) == len(w) + 1
    for entry, d in zip(trace, dists):
        assert entry.dist == d
        assert entry.norm == d.norm()


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_constructions_validate(seed):
    rng = random.Random(seed)
    b = random_value1_instance(rng)
    a = lift(b)
    c = twin(a)
    assert a.pa.validate().ok
    assert c.pa.validate().ok
    assert a.pa.post_set({a.q_f, a.q_n}, a.pa.alphabet) == {a.q_n}
    reset_targets = c.pa.post_set(c.pa.states, {c.hash})
    assert reset_targets == {c.q0, c.q0_hat}


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_acceptance_transfer(seed):
    rng = random.Random(seed)
    b = random_value1_instance(rng)
    a = lift(b)
    w = random_word(rng, b.pa.alphabet, 8)
    assert acceptance_probability(a.pa, w + (a.dollar,)) == \
        acceptance_probability(b.pa, w)
    u = random_word(rng, a.pa.alphabet, 8)
    if not u or u[-1] != a.dollar:
        assert acceptance_probability(a.pa, u) == 0


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_p1_holds_on_random_instances(seed):
    rng = random.Random(seed)
    c = twin(lift(random_value1_instance(rng, max_states=4)))
    v1 = random_word(rng, c.pa.alphabet, 8)
    v2 = random_word(rng, c.pa.alphabet, 8)
    assert check_p1(c, v1, v2).ok


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_p2_holds_on_random_instances(seed):
    rng = random.Random(seed)
    b = random_value1_instance(rng, max_states=4)
    a = lift(b)
    c = twin(a)
    w = random_word(rng, b.pa.alphabet, 10)
    assert check_p2(a, c, w).ok


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_half_bound_on_commit_free_words(seed):
    rng = random.Random(seed)
    c = twin(lift(random_value1_instance(rng, max_states=4)))
    letters = tuple(a for a in c.pa.alphabet if a != c.dollar)
    w = random_word(rng, letters, 12)
    assert half_bound_check(c, w).ok


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_absorption_on_conforming_prefixes(seed):
    rng = random.Random(seed)
    b = random_value1_instance(rng, max_states=4)
    c = twin(lift(b))
    prefix = (random_word(rng, c.pa.alphabet, 5) + (c.dollar,)
              + random_word(rng, tuple(a for a in c.pa.alphabet if a != c.hash), 3))
    assert dollar_absorption_check(c, prefix, rng.randint(0, 8)).ok


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_checkpoint_mass_equals_acceptance(seed):
    rng = random.Random(seed)
    b = random_value1_instance(rng, max_states=4)
    a = lift(b)
    c = twin(a)
    schedule = [
        random_word(rng, a.pa.alphabet, 4, min_len=1)
        for _ in range(rng.randint(1, 4))
    ]
    combined, checkpoints = build_witness_prefix(c, schedule)
    dists = outcome(c.pa, combined)
    for w, pos in zip(schedule, checkpoints):
        assert dists[pos].mass(c.q_f) == acceptance_probability(a.pa, w)


@given(seeds)
@settings(max_examples=15, deadline=None)
def test_schedule_success_implies_certificate(seed):
    rng = random.Random(seed)
    b = random_value1_instance(rng, max_states=4, max_letters=2)
    result = witness_schedule_search(b, 3, 4)
    if not result.ok:
        return
    a = lift(b)
    c = twin(a)
    schedule = [w + (a.dollar,) for w in result.words]
    assert certificate_check(c, schedule).ok


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_search_deterministic_and_matches_reference(seed):
    rng = random.Random(seed)
    b = random_value1_instance(rng, max_states=4, max_letters=2)
    first = bounded_value_search(b, 4)
    assert first == bounded_value_search(b, 4)
    assert first == reference_search(b, 4)
    schedule = witness_schedule_search(b, 3, 4)
    assert schedule == witness_schedule_search(b, 3, 4)
    assert schedule == reference_schedule(b, 3, 4)


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_format_round_trip(seed):
    rng = random.Random(seed)
    pa = random_pa(rng)
    assert parse_pa(serialize_pa(pa)) == pa
