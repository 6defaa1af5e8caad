"""Data model: probabilities, distributions, automata, validation, Post sets."""
import copy
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pasynch import (
    Dist,
    InputError,
    Pa,
    ValidationError,
    acceptance_probability,
    as_prob,
    b_one,
    lift,
    outcome,
    twin,
)
from pasynch.core import HALF, MAX_LITERAL_LEN, _coprime_fraction, _half
from helpers import random_pa, reference_validate


def two_state_pa():
    return Pa(
        states=("q0", "q1"),
        alphabet=("a", "b"),
        initial={"q0": 1},
        delta={
            ("q0", "a"): {"q1": 1},
            ("q0", "b"): {"q0": "1/2", "q1": "1/2"},
            ("q1", "a"): {"q1": 1},
            ("q1", "b"): {"q0": 1},
        },
        accepting=("q1",),
    )


class TestProb:
    def test_canonical_form(self):
        assert as_prob("2/4") == Fraction(1, 2)
        assert as_prob("3/9") == Fraction(1, 3)
        assert str(as_prob("2/4")) == "1/2"

    def test_integers_and_fractions(self):
        assert as_prob(1) == Fraction(1)
        assert as_prob(0) == Fraction(0)
        assert as_prob(Fraction(3, 4)) == Fraction(3, 4)

    def test_range_enforced(self):
        with pytest.raises(InputError):
            as_prob("3/2")
        with pytest.raises(InputError):
            as_prob(-1)

    def test_floats_rejected(self):
        with pytest.raises(InputError):
            as_prob(0.5)

    def test_garbage_rejected(self):
        with pytest.raises(InputError):
            as_prob("h/2")
        with pytest.raises(InputError):
            as_prob("1/0")

    def test_other_types_rejected_by_name(self):
        value = object()
        with pytest.raises(InputError) as err:
            as_prob(value)
        assert str(err.value) == f"cannot read a probability from {value!r}"

    @given(st.integers(-30, 30), st.integers(1, 30))
    def test_accepts_exactly_the_unit_interval(self, num, den):
        p = Fraction(num, den)
        forms = [p, str(p), f"{num}/{den}"] + ([p.numerator] if p.denominator == 1 else [])
        for value in forms:
            if 0 <= p <= 1:
                assert as_prob(value) == p
            else:
                with pytest.raises(InputError) as err:
                    as_prob(value)
                assert str(err.value) == f"probability {p} outside [0, 1]"

    @given(st.integers(0, 10 ** 30), st.integers(1, 10 ** 30), st.integers(0, 3),
           st.booleans())
    def test_ascii_literals_read_as_fraction_does(self, num, den, zeros, slash):
        text = "0" * zeros + (f"{num}/{den}" if slash else str(num))
        want = Fraction(text)
        if want > 1:
            with pytest.raises(InputError) as err:
                as_prob(text)
            assert str(err.value) == f"probability {want} outside [0, 1]"
            return
        got = as_prob(text)
        assert type(got) is Fraction and got == want
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert hash(got) == hash(want) and str(got) == str(want)

    @pytest.mark.parametrize("text, message", [
        ("1.5", "probability 3/2 outside [0, 1]"),
        ("0.5", "bad rational literal '0.5': use p/q or an integer, in ASCII digits"),
        ("1/0", "bad rational literal '1/0': Fraction(1, 0)"),
        ("0/0", "bad rational literal '0/0': Fraction(0, 0)"),
        ("00/00", "bad rational literal '00/00': Fraction(0, 0)"),
        ("\u0663/\u0664",
         "bad rational literal '\u0663/\u0664': use p/q or an integer, in ASCII digits"),
        (" 1/2", "bad rational literal ' 1/2': use p/q or an integer, in ASCII digits"),
        # Fraction reads underscores from Python 3.11 on
        ("1_0", "probability 10 outside [0, 1]" if sys.version_info >= (3, 11)
         else "bad rational literal '1_0': Invalid literal for Fraction: '1_0'"),
        ("+1", "bad rational literal '+1': use p/q or an integer, in ASCII digits"),
        ("1" * (MAX_LITERAL_LEN + 1),
         f"rational literal of {MAX_LITERAL_LEN + 1:,} characters exceeds the limit of "
         f"{MAX_LITERAL_LEN:,}"),
    ])
    def test_error_texts(self, text, message):
        with pytest.raises(InputError) as err:
            as_prob(text)
        assert str(err.value) == message

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int/str digit limit on this Python")
    @pytest.mark.parametrize("text, digits", [("1" + "0" * 4300, "1" + "0" * 4300),
                                              ("0/" + "7" * 4301, "7" * 4301)])
    def test_digits_past_the_int_str_limit(self, text, digits):
        # under the default limit (the CLI lifts it) `Fraction` words the error
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(ValueError) as int_error:
                int(digits)
            with pytest.raises(InputError) as err:
                as_prob(text)
        finally:
            sys.set_int_max_str_digits(limit)
        assert str(err.value) == f"bad rational literal {text!r}: {int_error.value}"


class TestFractionSlots:
    """`core` reads and writes the two slots of `Fraction` directly; on a
    Python whose `Fraction` stores its value elsewhere these fail, rather
    than masses being misread."""

    @given(st.fractions(min_value=0, max_value=1))
    def test_slots_hold_the_value(self, p):
        assert (p._numerator, p._denominator) == (p.numerator, p.denominator)
        q = _coprime_fraction(p.numerator, p.denominator)
        assert type(q) is Fraction and q == p and hash(q) == hash(p)

    @given(st.fractions(min_value=0, max_value=1))
    def test_half(self, p):
        got, want = _half(p), p / 2
        assert type(got) is Fraction and got == want == HALF * p
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)

    @given(st.dictionaries(st.sampled_from("abcdef"), st.fractions(min_value=0, max_value=1)))
    def test_dist_helpers(self, mass):
        d = Dist(mass)
        assert d._entries() == [(q, p.numerator, p.denominator) for q, p in d.items()]
        assert d._texts() == {q: str(p) for q, p in d.items() if p}
        num, den = d._total_ints()
        assert Fraction(num, den) == sum(mass.values(), Fraction(0))


class TestDist:
    def test_support_dirac(self):
        assert Dist({"q0": 1}).support() == {"q0"}

    def test_support_uniform(self):
        assert Dist({"q0": "1/2", "q1": "1/2"}).support() == {"q0", "q1"}

    def test_support_excludes_zero_mass(self):
        d = Dist({"q0": "1/3", "q1": "2/3", "q2": 0})
        assert d.support() == {"q0", "q1"}

    def test_norm_dirac(self):
        assert Dist({"q0": 1}).norm() == 1

    def test_norm_uniform(self):
        assert Dist({"q0": "1/2", "q1": "1/2"}).norm() == Fraction(1, 2)

    def test_norm_max_entry(self):
        assert Dist({"q0": "1/3", "q1": "2/3"}).norm() == Fraction(2, 3)

    def test_mass_defaults_to_zero(self):
        assert Dist({"q0": 1}).mass("missing") == 0

    def test_indexing_reads_the_mass(self):
        d = Dist({"p": "1/3", "r": "2/3"})
        assert (d["p"], d["r"], d["q"]) == (Fraction(1, 3), Fraction(2, 3), 0)

    def test_never_equal_to_another_type(self):
        d = Dist({"p": 1})
        assert d.__eq__({"p": 1}) is NotImplemented
        assert d != {"p": 1} and d != Fraction(1)

    def test_equality_ignores_stored_zeros(self):
        assert Dist({"q0": 1, "q1": 0}) == Dist({"q0": 1})
        assert hash(Dist({"q0": 1, "q1": 0})) == hash(Dist({"q0": 1}))

    def test_total(self):
        assert Dist({"q0": "1/4", "q1": "1/4"}).total() == Fraction(1, 2)
        assert Dist({"q0": "1/2", "q1": "1/2"}).is_valid()

    @given(st.dictionaries(st.sampled_from("abcdef"),
                           st.fractions(min_value=0, max_value=1, max_denominator=60)))
    def test_total_is_the_exact_sum(self, mass):
        assert Dist(mass).total() == sum(mass.values(), Fraction(0))

    def test_bad_state_names(self):
        with pytest.raises(InputError):
            Dist({"": 1})


class TestValidate:
    def test_well_formed(self):
        assert two_state_pa().validate().ok

    def test_row_sum_violation(self):
        pa = Pa(("q0",), ("a",), {"q0": 1}, {("q0", "a"): {"q0": "3/4"}})
        report = pa.validate()
        assert not report.ok
        assert "row (q0,a) sums to 3/4" in report.violations

    def test_incomplete_delta(self):
        pa = Pa(("q0", "q1"), ("a", "b"), {"q0": 1}, {
            ("q0", "a"): {"q1": 1},
            ("q0", "b"): {"q0": 1},
            ("q1", "a"): {"q1": 1},
        })
        report = pa.validate()
        assert "delta incomplete at (q1,b)" in report.violations

    def test_initial_must_sum_to_one(self):
        pa = Pa(("q0",), ("a",), {"q0": "1/2"}, {("q0", "a"): {"q0": 1}})
        assert any("initial distribution sums to 1/2" in v for v in pa.validate().violations)

    def test_unknown_names_reported(self):
        pa = Pa(("q0",), ("a",), {"zz": 1}, {
            ("q0", "a"): {"q0": "1/2", "yy": "1/2"},
            ("q0", "b"): {"q0": 1},
        }, accepting=("ww",))
        violations = pa.validate().violations
        assert any("initial mass on unknown state 'zz'" in v for v in violations)
        assert any("targets unknown state 'yy'" in v for v in violations)
        assert any("accepting state 'ww'" in v for v in violations)
        assert any("unknown letter 'b'" in v for v in violations)

    def test_duplicates_reported(self):
        pa = Pa(("q0", "q0"), ("a", "a"), {"q0": 1}, {("q0", "a"): {"q0": 1}})
        violations = pa.validate().violations
        assert any("duplicate state name" in v for v in violations)
        assert any("duplicate letter" in v for v in violations)

    def test_empty_names_reported_in_order(self):
        pa = Pa(("", "q0", "q0"), ("", "a", "a"), {"q0": 1}, {})
        assert pa.validate().violations[:4] == (
            "empty state name", "duplicate state name 'q0'",
            "empty letter", "duplicate letter 'a'")

    def test_report_is_true_exactly_when_ok(self):
        assert bool(two_state_pa().validate()) is True
        assert bool(Pa(("q0",), ("a",), {"q0": 1}, {}).validate()) is False

    def test_a_shared_bad_row_is_reported_for_every_key(self):
        bad = Dist({"q0": "1/3", "zz": "1/3"})
        pa = Pa(("q0", "q1"), ("a",), {"q0": 1}, {("q0", "a"): bad, ("q1", "a"): bad})
        assert pa.validate().violations == (
            "row (q0,a) targets unknown state 'zz'", "row (q0,a) sums to 2/3",
            "row (q1,a) targets unknown state 'zz'", "row (q1,a) sums to 2/3")

    def test_matches_the_total_based_reference(self):
        # random automata with corrupted initial distributions, corrupted
        # rows and one bad row object shared by several keys
        rng = random.Random(29)

        def mass(names):
            den = rng.randint(1, 6)
            return {rng.choice(names): Fraction(rng.randint(0, den), den)
                    for _ in range(rng.randint(0, 3))}

        outcomes = set()
        for _ in range(300):
            pa = random_pa(rng)
            names = pa.states + ("zz",)
            delta = dict(pa.delta)
            keys = sorted(delta)
            shared = Dist(mass(names))
            for key in rng.sample(keys, rng.randint(0, len(keys))):
                delta[key] = shared
            for key in rng.sample(keys, rng.randint(0, min(2, len(keys)))):
                delta[key] = Dist(mass(names))
            for key in rng.sample(keys, rng.randint(0, 1)):
                del delta[key]
            if rng.random() < 0.2:
                delta[(rng.choice(names), rng.choice(("a", "z")))] = shared
            initial = pa.initial if rng.random() < 0.5 else Dist(mass(names))
            accepting = pa.accepting | ({"zz"} if rng.random() < 0.1 else set())
            broken = Pa(pa.states, pa.alphabet, initial, delta, accepting)
            assert broken.validate().violations == reference_validate(broken)
            outcomes.add(broken.validate().ok)
        assert outcomes == {True, False}


class TestImmutablePa:
    @pytest.mark.parametrize("name", (
        "states", "alphabet", "initial", "delta", "accepting", "state_set", "letter_set",
        "_report", "_kernel", "extra",
    ))
    def test_attributes_cannot_be_set_or_deleted(self, name):
        pa = two_state_pa()
        with pytest.raises(AttributeError, match="immutable"):
            setattr(pa, name, None)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(pa, name)
        assert pa == two_state_pa()

    def test_message_names_the_class_and_the_attribute(self):
        pa = two_state_pa()
        with pytest.raises(AttributeError) as err:
            pa.states = ()
        assert str(err.value) == "Pa is immutable: cannot change 'states'"
        with pytest.raises(AttributeError) as err:
            del pa.extra
        assert str(err.value) == "Pa is immutable: cannot change 'extra'"

    def test_never_equal_to_another_type(self):
        pa = two_state_pa()
        assert pa.__eq__(pa.states) is NotImplemented
        assert pa != pa.states

    def test_delta_is_read_only(self):
        pa = two_state_pa()
        with pytest.raises(TypeError):
            pa.delta[("q0", "a")] = Dist({"q0": 1})
        with pytest.raises(TypeError):
            del pa.delta[("q0", "a")]
        assert pa.delta.get(("q0", "a")) == Dist({"q1": 1})
        assert pa.delta.get(("q0", "z")) is None
        assert dict(pa.delta) == dict(two_state_pa().delta)

    def test_validation_report_is_computed_once(self):
        pa = Pa(("q0",), ("a",), {"q0": 1}, {("q0", "a"): {"q0": "3/4"}})
        assert pa.validate() is pa.validate()
        with pytest.raises(ValidationError) as err:
            pa.require_valid()
        assert err.value.report is pa.validate()
        assert two_state_pa().require_valid() is None

    @pytest.mark.parametrize("clone", (
        copy.copy, copy.deepcopy, lambda pa: pickle.loads(pickle.dumps(pa)),
    ), ids=("copy", "deepcopy", "pickle"))
    def test_copies_are_equal_and_immutable(self, clone):
        pa = twin(lift(b_one())).pa
        assert pa.validate().ok and acceptance_probability(pa, ("a",)) == 0
        other = clone(pa)
        assert other == pa and other is not pa
        assert (other.states, other.alphabet, other.accepting) == (
            pa.states, pa.alphabet, pa.accepting)
        assert other.validate() == pa.validate() and other.validate() is not pa.validate()
        assert outcome(other, ("a", "a")) == outcome(pa, ("a", "a"))
        with pytest.raises(AttributeError):
            other.states = ()
        with pytest.raises(TypeError):
            other.delta[("x", "y")] = Dist({"x": 1})


class TestCheckWord:
    def test_forbidden_letter_names_its_role(self):
        with pytest.raises(InputError) as err:
            two_state_pa().check_word(("a", "b"), {"b": "reset"})
        assert str(err.value) == "reset letter 'b' at position 1 not allowed here"

    def test_forbidden_letter_reported_before_the_alphabet(self):
        # a forbidden letter outside the alphabet is named by its role
        with pytest.raises(InputError) as err:
            two_state_pa().check_word(("z",), {"z": "commit"})
        assert str(err.value) == "commit letter 'z' at position 0 not allowed here"


def _reference_check_word(pa, word, forbid):
    """`Pa.check_word` as one loop over the positions."""
    w = tuple(word)
    for i, a in enumerate(w):
        if a in forbid:
            raise InputError(f"{forbid[a]} letter {a!r} at position {i} not allowed here")
        if a not in pa.letter_set:
            raise InputError(f"unknown letter {a!r} at position {i}")
    return w


def _checked(check, *args):
    """What `check(*args)` returns, or the class and text of what it raises."""
    try:
        return "ok", check(*args)
    except Exception as exc:
        return type(exc), str(exc)


# letters, names outside the alphabet, other hashables and unhashables
_FOREIGN = st.one_of(st.sampled_from(("z", "", "A", "a ", "q0", "#")), st.integers(-2, 2),
                     st.none(), st.tuples(st.just("a")), st.lists(st.just("a"), max_size=1),
                     st.sets(st.just("a"), max_size=1), st.dictionaries(st.just("a"), st.none()))


@given(st.lists(st.sampled_from(("a", "b")), max_size=12), st.data())
def test_check_word_is_the_reference_loop(letters, data):
    pa = two_state_pa()
    word = list(letters)
    for _ in range(data.draw(st.integers(0, 3))):
        word.insert(data.draw(st.integers(0, len(word))), data.draw(_FOREIGN))
    roles = data.draw(st.one_of(st.none(), st.dictionaries(
        st.sampled_from(("a", "b", "z", "")), st.sampled_from(("reset", "commit")), max_size=3)))
    args = () if roles is None else (roles,)
    want = _checked(_reference_check_word, pa, word, roles or {})
    assert _checked(pa.check_word, word, *args) == want
    # a generator is read once, and only once
    once = (a for a in word)
    assert _checked(pa.check_word, once, *args) == want
    assert next(once, None) is None


class TestPost:
    def test_deterministic_edge(self):
        assert two_state_pa().post("q0", "a") == {"q1"}

    def test_split_row(self):
        assert two_state_pa().post("q0", "b") == {"q0", "q1"}

    def test_unknown_letter(self):
        with pytest.raises(InputError, match="unknown letter 'z'"):
            two_state_pa().post("q0", "z")

    def test_unknown_state(self):
        with pytest.raises(InputError, match="unknown state"):
            two_state_pa().post("nope", "a")

    def test_missing_row_named(self):
        pa = Pa(("q0",), ("a", "b"), {"q0": 1}, {("q0", "a"): {"q0": 1}})
        with pytest.raises(InputError) as err:
            pa.post("q0", "b")
        assert str(err.value) == "delta incomplete at (q0,b)"

    def test_post_set_empty(self):
        assert two_state_pa().post_set(set(), {"a"}) == frozenset()

    def test_post_set_union(self):
        pa = two_state_pa()
        assert pa.post_set({"q0", "q1"}, {"a", "b"}) == {"q0", "q1"}

    def test_post_set_monotone(self):
        pa = two_state_pa()
        small = pa.post_set({"q0"}, {"a"})
        big = pa.post_set({"q0", "q1"}, {"a", "b"})
        assert small <= big

    def test_twin_reset_post_set(self):
        c = twin(lift(b_one()))
        assert c.pa.post_set(c.pa.states, {c.hash}) == {c.q0, c.q0_hat}

    def test_twin_commit_post_set(self):
        c = twin(lift(b_one()))
        assert c.pa.post_set(c.pa.states, {c.dollar}) == {c.q_f, c.q_n, c.q_n_hat}
