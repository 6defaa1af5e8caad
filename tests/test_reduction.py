"""Lift and twin constructions plus the exact checkers."""
import copy
import pickle
import random
from fractions import Fraction

import pytest

from pasynch import (
    CheckResult,
    Dist,
    InputError,
    LiftedPa,
    Pa,
    Value1Instance,
    acceptance_probability,
    b_half,
    b_one,
    build_witness_prefix,
    check_p1,
    check_p2,
    lift,
    outcome,
    parse_pa,
    serialize_pa,
    twin,
)
from pasynch.semantics import Kernel
from helpers import (
    corrupted,
    random_dist,
    random_value1_instance,
    random_word,
    rebuilt,
    reference_check_p1,
    reference_check_p2,
)

HALF = Fraction(1, 2)


class TestLift:
    def test_structure(self):
        a = lift(b_one())
        assert a.pa.states == ("s0", "sA", "@lift:qf", "@lift:qn")
        assert a.pa.alphabet == ("a", "@sym:$")
        assert a.pa.accepting == {a.q_f}
        assert a.pa.initial == b_one().pa.initial
        assert a.source_states == {"s0", "sA"}
        assert a.source_alphabet == ("a",)
        assert a.pa.validate().ok

    def test_source_states_are_a_frozen_copy(self):
        # a caller's set that changes later leaves the roles, and so the
        # serialize -> parse round trip, as they were built
        a = lift(b_half())
        given = set(a.source_states)
        lifted = LiftedPa(a.pa, a.q_f, a.q_n, a.dollar, given)
        given.add(a.q_f)
        assert type(lifted.source_states) is frozenset
        assert lifted.source_states == a.source_states
        back = parse_pa(serialize_pa(lifted))
        assert back == a
        assert twin(back) == twin(a)

    def test_source_rows_preserved_verbatim(self):
        b = b_half()
        a = lift(b)
        for (q, sigma), row in b.pa.delta.items():
            assert a.pa.delta[(q, sigma)] == row

    def test_commit_rows(self):
        a = lift(b_half())
        assert a.pa.delta[("sA", a.dollar)] == Dist.dirac(a.q_f)
        assert a.pa.delta[("s0", a.dollar)] == Dist.dirac(a.q_n)
        assert a.pa.delta[("sR", a.dollar)] == Dist.dirac(a.q_n)

    def test_sink_rows(self):
        a = lift(b_one())
        for q in (a.q_f, a.q_n):
            for sigma in a.pa.alphabet:
                assert a.pa.delta[(q, sigma)] == Dist.dirac(a.q_n)

    def test_absorption(self):
        a = lift(b_one())
        assert a.pa.post_set({a.q_f, a.q_n}, a.pa.alphabet) == {a.q_n}

    def test_acceptance_transfer_one(self):
        a = lift(b_one())
        assert acceptance_probability(a.pa, ("a", a.dollar)) == 1

    def test_no_commit_no_acceptance(self):
        a = lift(b_one())
        assert acceptance_probability(a.pa, ("a",)) == 0
        assert acceptance_probability(a.pa, ()) == 0
        assert acceptance_probability(a.pa, ("a", a.dollar, "a")) == 0

    def test_acceptance_transfer_half(self):
        a = lift(b_half())
        assert acceptance_probability(a.pa, ("a", a.dollar)) == HALF

    def test_fresh_names_dodge_collisions(self):
        pa = Pa(
            states=("@lift:qf", "s"),
            alphabet=("@sym:$",),
            initial={"@lift:qf": 1},
            delta={
                ("@lift:qf", "@sym:$"): {"s": 1},
                ("s", "@sym:$"): {"s": 1},
            },
            accepting=("s",),
        )
        a = lift(Value1Instance(pa))
        assert a.q_f == "@lift:qf2"
        assert a.dollar == "@sym:$2"
        assert a.pa.validate().ok

    def test_fresh_names_count_past_taken_suffixes(self):
        states = ("@lift:qf", "@lift:qf2", "@lift:qn")
        pa = Pa(states, ("a",), {"@lift:qf": 1}, {(q, "a"): {q: 1} for q in states},
                accepting=("@lift:qf2",))
        a = lift(Value1Instance(pa))
        assert (a.q_f, a.q_n) == ("@lift:qf3", "@lift:qn2")
        assert a.pa.states == states + ("@lift:qf3", "@lift:qn2")

    def test_relaxed_initial_mode(self):
        pa = Pa(
            states=("s0", "s1"),
            alphabet=("a",),
            initial={"s0": "1/2", "s1": "1/2"},
            delta={("s0", "a"): {"s1": 1}, ("s1", "a"): {"s1": 1}},
            accepting=("s1",),
        )
        with pytest.raises(InputError, match="single state"):
            Value1Instance(pa)
        b = Value1Instance(pa, require_dirac=False)
        assert b.q0 is None
        a = lift(b)
        assert a.pa.validate().ok
        with pytest.raises(InputError, match="concentrated on one state"):
            twin(a)

    def test_instance_requires_accepting(self):
        pa = Pa(("s0",), ("a",), {"s0": 1}, {("s0", "a"): {"s0": 1}})
        with pytest.raises(InputError, match="accepting"):
            Value1Instance(pa)

    def test_instance_rejects_invalid_pa(self):
        pa = Pa(("s0",), ("a",), {"s0": 1}, {("s0", "a"): {"s0": "1/2"}},
                accepting=("s0",))
        with pytest.raises(InputError):
            Value1Instance(pa)


class TestImmutableInstance:
    @pytest.mark.parametrize("name", ("pa", "q0", "extra"))
    def test_attributes_cannot_be_set_or_deleted(self, name):
        b = b_half()
        unvalidated = Pa(("s0",), ("a",), {"s0": 1}, {("s0", "a"): {"s0": "1/2"}},
                         accepting=("s0",))
        with pytest.raises(AttributeError, match="immutable"):
            setattr(b, name, unvalidated)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(b, name)
        assert b.pa == b_half().pa and b.q0 == "s0"

    def test_message_names_the_class_and_the_attribute(self):
        b = b_half()
        with pytest.raises(AttributeError) as err:
            del b.q0
        assert str(err.value) == "Value1Instance is immutable: cannot change 'q0'"

    @pytest.mark.parametrize("clone", (
        copy.copy, copy.deepcopy, lambda b: pickle.loads(pickle.dumps(b)),
    ), ids=("copy", "deepcopy", "pickle"))
    @pytest.mark.parametrize("source", ("dirac", "relaxed"))
    def test_copies_round_trip_equal_and_immutable(self, clone, source):
        if source == "dirac":
            b = b_one()
        else:
            b = Value1Instance(twin(lift(b_half())).pa, require_dirac=False)
        other = clone(b)
        assert other is not b
        assert (other.pa, other.q0) == (b.pa, b.q0)
        assert repr(other) == repr(b)
        with pytest.raises(AttributeError, match="immutable"):
            other.pa = b_half().pa


class TestTwin:
    def test_halves_on_integers_equal_fraction_halves(self):
        # odd and even numerators, into a hatted state and into the success sink
        for p in (Fraction(1, 3), Fraction(2, 5), Fraction(4, 9), Fraction(6, 7), Fraction(1)):
            pa = Pa(("s0", "s1"), ("a",), {"s0": 1},
                    {("s0", "a"): {"s0": 1 - p, "s1": p}, ("s1", "a"): {"s1": 1}},
                    accepting=("s1",))
            a = lift(Value1Instance(pa))
            c = twin(a)
            for (q, letter), row in a.pa.delta.items():
                want = {}
                for t, m in row.nonzero():
                    for u in ((t, c.twin_of[t]) if t in c.twin_of else (t,)):
                        want[u] = HALF * m if t in c.twin_of else m
                got = c.pa.delta[(q, letter)]
                assert dict(got.items()) == want
                assert all(type(m) is Fraction and (m.numerator, m.denominator)
                           == (want[t].numerator, want[t].denominator) for t, m in got.items())

    def test_each_lifted_row_object_is_twinned_once(self):
        a = lift(b_half())
        c = twin(a)
        for q in a.pa.states:
            for letter in a.pa.alphabet:
                for other in a.pa.states:
                    same = a.pa.delta[(q, letter)] is a.pa.delta[(other, letter)]
                    assert (c.pa.delta[(q, letter)] is c.pa.delta[(other, letter)]) == same

    def test_structure(self):
        c = twin(lift(b_one()))
        assert len(c.pa.states) == 7
        assert set(c.twin_of) == {"s0", "sA", "@lift:qn"}
        assert c.q_f not in c.twin_of
        assert c.q0 == "s0" and c.q0_hat == "@twin:s0"
        assert c.pa.initial == Dist({c.q0: HALF, c.q0_hat: HALF})
        assert c.lifted_alphabet == ("a", c.dollar)
        assert c.pa.validate().ok

    def test_pair_split_row(self):
        c = twin(lift(b_one()))
        row = c.pa.delta[("s0", "a")]
        assert row == Dist({"sA": HALF, c.twin_of["sA"]: HALF})
        assert c.pa.delta[(c.twin_of["s0"], "a")] == row

    def test_success_sink_row(self):
        c = twin(lift(b_one()))
        for sigma in ("a", c.dollar):
            assert c.pa.delta[(c.q_f, sigma)] == Dist(
                {c.q_n: HALF, c.q_n_hat: HALF})

    def test_commit_mass_kept_whole(self):
        c = twin(lift(b_one()))
        assert c.pa.delta[("sA", c.dollar)] == Dist.dirac(c.q_f)
        assert c.pa.delta[(c.twin_of["sA"], c.dollar)] == Dist.dirac(c.q_f)

    def test_reset_rows_from_every_state(self):
        c = twin(lift(b_one()))
        reset = Dist({c.q0: HALF, c.q0_hat: HALF})
        for q in c.pa.states:
            assert c.pa.delta[(q, c.hash)] == reset

    def test_every_row_exactly_stochastic(self):
        for seed in range(10):
            c = twin(lift(random_value1_instance(random.Random(seed))))
            for row in c.pa.delta.values():
                assert row.total() == 1

    def test_rejects_broken_lift(self):
        a = lift(b_one())
        delta = dict(a.pa.delta)
        delta[("sA", a.dollar)] = Dist({a.q_f: HALF, a.q_n: HALF})
        broken = LiftedPa(
            Pa(a.pa.states, a.pa.alphabet, a.pa.initial, delta, a.pa.accepting),
            a.q_f, a.q_n, a.dollar, a.source_states)
        with pytest.raises(InputError, match="commit row"):
            twin(broken)

    def test_twin_of_twin_names_stay_unique(self):
        c = twin(lift(b_one()))
        assert len(set(c.pa.states)) == len(c.pa.states)


class TestImmutableTwin:
    def test_twin_of_is_read_only(self):
        a = lift(b_half())
        c = twin(a)
        with pytest.raises(TypeError):
            c.twin_of["s0"] = "nosuch"
        assert c.twin_of["s0"] == c.q0_hat
        assert check_p2(a, c, ("a",)).ok

    def test_twin_of_is_a_copy_of_the_given_map(self):
        c = twin(lift(b_half()))
        pairs = dict(c.twin_of)
        rebuilt_c = rebuilt(c, twin_of=pairs)
        pairs["s0"] = "nosuch"
        assert rebuilt_c.twin_of["s0"] == c.q0_hat
        assert rebuilt_c == c

    @pytest.mark.parametrize("clone", (
        copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c)),
    ), ids=("copy", "deepcopy", "pickle"))
    def test_copies_round_trip_equal_and_read_only(self, clone):
        c = twin(lift(b_half()))
        other = clone(c)
        assert other == c and other is not c
        with pytest.raises(TypeError):
            other.twin_of["s0"] = "nosuch"
        with pytest.raises(AttributeError, match="immutable"):
            other.q0 = "nosuch"


def _sink_paired_with_a_new_state(c):
    """`c` with one more state "x", looping on every letter, as the
    success sink's hat."""
    delta = {**c.pa.delta, **{("x", a): {"x": 1} for a in c.pa.alphabet}}
    pa = Pa(c.pa.states + ("x",), c.pa.alphabet, c.pa.initial, delta, c.pa.accepting)
    return rebuilt(c, pa=pa, twin_of={**c.twin_of, c.q_f: "x"})


@pytest.mark.parametrize("build, message", (
    # no metadata edit of a twin document reaches either error: `parse_pa`
    # refuses a hat named twice, and pairing the success sink needs a new state
    (lambda c: rebuilt(c, twin_of={**c.twin_of, "sA": c.q0_hat}),
     "twin map must be a bijection"),
    (_sink_paired_with_a_new_state, "the success sink has no twin"),
))
def test_twin_role_errors_no_metadata_edit_reaches(build, message):
    with pytest.raises(InputError) as err:
        build(twin(lift(b_one())))
    assert str(err.value) == message


class TestCheckP1:
    def test_empty_words_pass(self):
        c = twin(lift(b_one()))
        assert check_p1(c, (), ()).ok

    def test_commit_prefix_passes(self):
        c = twin(lift(b_one()))
        w = ("a", c.dollar)
        assert check_p1(c, w, w).ok

    def test_corrupted_reset_row_fails_at_step_zero(self):
        c = twin(lift(b_one()))
        bad = corrupted(c, c.q_f, c.hash, {c.q_n: 1})
        result = check_p1(bad, ("a", c.dollar), ("a",))
        assert not result.ok
        assert result.reason.startswith("step 0")

    def test_rejects_unknown_letters(self):
        c = twin(lift(b_one()))
        with pytest.raises(InputError, match="unknown letter"):
            check_p1(c, ("z",), ())

    def test_mass_outside_the_states_is_not_compared(self):
        # the broken reset row of q0 adds mass on a name outside the
        # states: the runs differ there, yet every state's mass agrees
        c = twin(lift(b_one()))
        bad = corrupted(c, c.q0, c.hash, {c.q0: "1/2", c.q0_hat: "1/2", "z": "1/2"})
        assert check_p1(bad, (), ()) == reference_check_p1(bad, (), ()) == CheckResult(True)


class TestCheckP2:
    def test_empty_word_base_case(self):
        a = lift(b_one())
        c = twin(a)
        assert check_p2(a, c, ()).ok

    def test_single_letter(self):
        a = lift(b_one())
        c = twin(a)
        assert check_p2(a, c, ("a",)).ok
        got = outcome(c.pa, ("a",))[-1]
        assert got == Dist({"sA": HALF, c.twin_of["sA"]: HALF})

    def test_random_instances(self):
        rng = random.Random(7)
        for _ in range(25):
            b = random_value1_instance(rng, max_states=5)
            a = lift(b)
            c = twin(a)
            w = random_word(rng, b.pa.alphabet, 15)
            assert check_p2(a, c, w).ok

    def test_rejects_commit_and_reset_letters(self):
        a = lift(b_one())
        c = twin(a)
        with pytest.raises(InputError, match="commit letter"):
            check_p2(a, c, (a.dollar,))
        with pytest.raises(InputError, match="reset letter"):
            check_p2(a, c, (c.hash,))

    @pytest.mark.parametrize("role", ("commit", "reset"))
    def test_forbidden_letter_messages(self, role):
        # the reset letter is outside the lifted alphabet, yet named by its role
        a = lift(b_one())
        c = twin(a)
        letter = a.dollar if role == "commit" else c.hash
        with pytest.raises(InputError) as err:
            check_p2(a, c, ("a", letter))
        assert str(err.value) == f"{role} letter {letter!r} at position 1 not allowed here"

    def test_detects_broken_pair_split(self):
        a = lift(b_one())
        c = twin(a)
        bad = corrupted(c, "s0", "a", {"sA": "3/4", c.twin_of["sA"]: "1/4"})
        result = check_p2(a, bad, ("a",))
        assert not result.ok
        assert "step 1" in result.reason

    def test_rejects_unrelated_pair(self):
        a = lift(b_one())
        c = twin(lift(b_half()))
        with pytest.raises(InputError):
            check_p2(a, c, ())


def _same_result(check, reference, *args):
    """The checker's result equals the reference's, or both raise the same
    `InputError`; returns the verdict, or None for an error."""
    try:
        want = reference(*args)
    except InputError as exc:
        with pytest.raises(InputError) as err:
            check(*args)
        assert str(err.value) == str(exc)
        return None
    assert check(*args) == want
    return want.ok


def test_checkers_match_the_outcome_references():
    # twins where some states' rows on one letter are replaced, in the
    # original, its hat or both, by a distribution on up to three names,
    # one of which may lie outside the states
    rng = random.Random(71)
    verdicts = {"p1": set(), "p2": set()}
    for _ in range(120):
        a = lift(random_value1_instance(rng, max_states=4, max_letters=2))
        c = twin(a)
        letter = c.hash if rng.random() < 0.4 else rng.choice(c.lifted_alphabet)
        row = random_dist(rng, rng.sample(c.pa.states + ("z",), rng.randint(1, 3)))
        for q in rng.sample(sorted(c.twin_of), rng.randint(1, 2)):
            for state in rng.choice(((q,), (c.twin_of[q],), (q, c.twin_of[q]))):
                c = corrupted(c, state, letter, row)
        plain = tuple(x for x in a.pa.alphabet if x != a.dollar)
        for _ in range(4):
            w = random_word(rng, plain, 8)
            verdicts["p2"].add(_same_result(check_p2, reference_check_p2, a, c, w))
            v1, v2 = random_word(rng, c.pa.alphabet, 5), random_word(rng, c.pa.alphabet, 5)
            verdicts["p1"].add(_same_result(check_p1, reference_check_p1, c, v1, v2))
    assert verdicts["p1"] >= {True, False} and verdicts["p2"] >= {True, False}


def _p1_twin(rng, kind):
    """A random twin: as built ("twin"), with rows replaced by other
    distributions on its states ("valid"), or with one row that sums
    below or above 1, reaches a name outside the states or is missing
    ("invalid")."""
    c = twin(lift(random_value1_instance(rng, max_states=4, max_letters=2)))
    keys = sorted(c.pa.delta)
    if kind != "twin":
        for key in rng.sample(keys, rng.randint(1, 3)):
            c = corrupted(c, *key, random_dist(rng, c.pa.states))
    if kind == "invalid":
        key = rng.choice(keys)
        q, r = rng.sample(c.pa.states, 2)
        delta = dict(c.pa.delta)
        delta[key] = rng.choice((Dist({q: "1/2"}), Dist({q: "2/3", r: "2/3"}),
                                 Dist({q: "1/2", "z": "1/2"}), None))
        if delta[key] is None:
            del delta[key]
        c = rebuilt(c, pa=Pa(c.pa.states, c.pa.alphabet, c.pa.initial, delta, c.pa.accepting))
    assert c.pa.validate().ok == (kind != "invalid")
    return c


def test_check_p1_matches_the_reference_on_every_kind_of_twin():
    rng = random.Random(72)
    verdicts = {kind: set() for kind in ("twin", "valid", "invalid")}
    for i in range(180):
        kind = ("twin", "valid", "invalid")[i % 3]
        c = _p1_twin(rng, kind)
        for _ in range(4):
            v1, v2 = random_word(rng, c.pa.alphabet, 6), random_word(rng, c.pa.alphabet, 6)
            verdicts[kind].add(_same_result(check_p1, reference_check_p1, c, v1, v2))
    assert verdicts == {"twin": {True}, "valid": {True, False}, "invalid": {True, False, None}}


def test_a_valid_twin_is_walked_only_to_the_reset(monkeypatch):
    # the run after the reset meets the fresh run at step 0, so nothing
    # past the reset is walked, however long v2 is; an invalid twin
    # (here one row sums below 1) walks v2 in both runs
    stepped = [0]
    walk = Kernel.walk

    def counted(self, word, pair=None):
        steps = walk(self, word, pair)
        yield next(steps)
        for step in steps:
            stepped[0] += 1
            yield step

    monkeypatch.setattr(Kernel, "walk", counted)
    rng = random.Random(73)
    for kind in ("twin", "valid", "invalid"):
        for _ in range(10):
            c = _p1_twin(rng, "twin" if kind == "invalid" else kind)
            if kind == "invalid":
                c = corrupted(c, c.q_n, "a", {c.q_n: "1/2"})
            v1 = random_word(rng, c.pa.alphabet, 6)
            for n in (0, 1, 7, 40):
                v2 = random_word(rng, c.pa.alphabet, n, n)
                want = reference_check_p1(c, v1, v2)  # walks too, uncounted
                stepped[0] = 0
                assert check_p1(c, v1, v2) == want
                letters = len(v1) + 1 if kind != "invalid" else len(v1) + 1 + 2 * n
                assert stepped[0] == letters, (kind, v1, v2)


class TestWitnessPrefix:
    def test_single_word(self):
        c = twin(lift(b_one()))
        word, checkpoints = build_witness_prefix(c, [("a", c.dollar)])
        assert word == ("a", c.dollar)
        assert checkpoints == (2,)

    def test_two_words(self):
        c = twin(lift(b_one()))
        w = ("a", c.dollar)
        word, checkpoints = build_witness_prefix(c, [w, w])
        assert word == ("a", c.dollar, c.hash, "a", c.dollar)
        assert checkpoints == (2, 5)

    def test_uneven_words(self):
        c = twin(lift(b_one()))
        word, checkpoints = build_witness_prefix(
            c, [("a", c.dollar), ("a", "a", c.dollar)])
        assert word == ("a", c.dollar, c.hash, "a", "a", c.dollar)
        assert checkpoints == (2, 6)

    def test_length_formula(self):
        c = twin(lift(b_half()))
        rng = random.Random(3)
        schedule = [random_word(rng, ("a", c.dollar), 4, min_len=1) for _ in range(5)]
        _, checkpoints = build_witness_prefix(c, schedule)
        for i, pos in enumerate(checkpoints, start=1):
            assert pos == (i - 1) + sum(len(w) for w in schedule[:i])

    def test_errors(self):
        c = twin(lift(b_one()))
        with pytest.raises(InputError, match="nonempty"):
            build_witness_prefix(c, [])
        with pytest.raises(InputError, match="empty"):
            build_witness_prefix(c, [()])
        with pytest.raises(InputError, match="reset letter"):
            build_witness_prefix(c, [("a", c.hash)])

    def test_letter_messages_name_the_schedule_word(self):
        c = twin(lift(b_one()))
        with pytest.raises(InputError) as err:
            build_witness_prefix(c, [("a",), ("a", c.hash)])
        assert str(err.value) == (
            "schedule word 2: reset letter '@sym:#' at position 1 not allowed here")
        with pytest.raises(InputError) as err:
            build_witness_prefix(c, [("z",)])
        assert str(err.value) == "schedule word 1: unknown letter 'z' at position 0"
