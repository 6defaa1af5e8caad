"""Exact data model for probabilistic automata.

States and letters are plain strings. Probability mass is held as
`fractions.Fraction` throughout, so every comparison the toolkit makes is
an exact rational identity. Floats are rejected at the door: a single
float would silently turn equality checks into tolerance games.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from math import gcd
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

Word = tuple[str, ...]

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

# the only probability literals: ASCII digits, optionally over ASCII digits
_LITERAL = re.compile(r"[0-9]+(/[0-9]+)?")
# longest string literal read, whatever CPython's int/str digit limit: parsing
# is quadratic in its digits before Python 3.12, so reading stays linear in size
MAX_LITERAL_LEN = 10_000
_NO_ROLES: Mapping[str, str] = MappingProxyType({})


class PaError(Exception):
    """Base class for all toolkit errors."""


class InputError(PaError):
    """A caller violated an operation's input contract."""


class ValidationError(InputError):
    """An automaton failed validation where a valid one was required."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        super().__init__("invalid automaton: " + "; ".join(report.violations))


def as_prob(value: object) -> Fraction:
    """Coerce `value` to an exact probability in [0, 1].

    Accepts Fraction, int, and "p/q" or integer strings of ASCII digits
    (no sign, point, exponent, underscore or padding) of at most
    `MAX_LITERAL_LEN` characters; Fraction keeps everything in lowest
    terms. Floats are refused.
    """
    if isinstance(value, float):
        raise InputError(f"float probability {value!r} rejected; use an exact rational")
    if isinstance(value, Fraction):
        p = value
    elif isinstance(value, int):
        p = Fraction(value)
    elif isinstance(value, str):
        if len(value) > MAX_LITERAL_LEN:
            raise InputError(f"rational literal of {len(value):,} characters exceeds "
                             f"the limit of {MAX_LITERAL_LEN:,}")
        try:
            p = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational literal {value!r}: {exc}") from None
    else:
        raise InputError(f"cannot read a probability from {value!r}")
    if not 0 <= p.numerator <= p.denominator:
        raise InputError(f"probability {p} outside [0, 1]")
    if isinstance(value, str) and not _LITERAL.fullmatch(value):
        raise InputError(f"bad rational literal {value!r}: use p/q or an integer, in ASCII digits")
    return p


def _coprime_fraction(num: int, den: int) -> Fraction:
    """`Fraction(num, den)` for coprime `num >= 0` and `den > 0`, built
    without the gcd that `Fraction()` runs. It fills the two slots every
    `Fraction` has on CPython 3.10-3.13, as `Fraction._from_coprime_ints`
    (3.12 and later only) does."""
    f = object.__new__(Fraction)
    f._numerator = num
    f._denominator = den
    return f


def _base_fraction(base: int, num: int, den: int) -> Fraction:
    """`num / den` for a `den` whose primes all divide `base`, reduced over
    `base` as in `semantics.Kernel.advance`: each round is a gcd with a
    small number, where `Fraction(num, den)` runs one on two big ones."""
    g = gcd(base, num, den)
    while g != 1:
        num //= g
        den //= g
        g = gcd(g, num, den)
    return _coprime_fraction(num, den)


class Dist:
    """A finitely supported mass assignment over named states.

    Entries with explicit zero mass may be stored (constructions produce
    structural zeros); `support` excludes them and equality ignores them.
    A *valid* distribution sums to exactly 1. That invariant is enforced
    where distributions enter the system (`Pa.validate`, the construction
    entry points), not here, so malformed automata can still be loaded,
    inspected and reported on.

    The stepping kernel (`semantics.Kernel`) builds distributions from
    integer numerators over one common denominator; those make their
    `Fraction` map only when it is first read.
    """

    __slots__ = ("_mass", "_ints")

    def __init__(self, mass: Mapping[str, object]):
        store: dict[str, Fraction] = {}
        for state, value in dict(mass).items():
            if not isinstance(state, str) or not state:
                raise InputError(f"state names must be non-empty strings, got {state!r}")
            store[state] = as_prob(value)
        self._mass = store

    @classmethod
    def _from_ints(cls, names: tuple[str, ...], nums: tuple[int, ...], den: int,
                   base: int) -> "Dist":
        """Mass `nums[i] / den` on `names[i]`, trusted to lie in [0, 1].

        When the map is first read, each mass is reduced over `base`, which
        every prime of `den` divides (`den` itself always qualifies).
        """
        d = cls.__new__(cls)
        d._ints = (names, nums, den, base)
        return d

    @classmethod
    def _trusted(cls, mass: dict[str, Fraction]) -> "Dist":
        """`mass` kept as it is: the caller has already checked that every
        name is a non-empty string and every value a `Fraction` in [0, 1],
        and hands over a map that nothing else holds."""
        d = cls.__new__(cls)
        d._mass = mass
        return d

    def __getattr__(self, name: str):
        # only reached while the `_mass` slot of a `_from_ints` distribution is unset
        if name != "_mass":
            raise AttributeError(name)
        names, nums, den, base = self._ints
        self._mass = mass = {q: _base_fraction(base, x, den) for q, x in zip(names, nums) if x}
        del self._ints
        return mass

    @classmethod
    def dirac(cls, state: str) -> "Dist":
        return cls({state: 1})

    def mass(self, state: str) -> Fraction:
        """Mass on `state`; 0 for states not mentioned."""
        return self._mass.get(state, ZERO)

    __getitem__ = mass

    def items(self) -> Iterable[tuple[str, Fraction]]:
        return self._mass.items()

    def nonzero(self) -> Iterator[tuple[str, Fraction]]:
        return ((s, p) for s, p in self._mass.items() if p)

    def support(self) -> frozenset[str]:
        return frozenset(s for s, p in self._mass.items() if p)

    def norm(self) -> Fraction:
        """Largest single-state mass (0 for an all-zero assignment)."""
        return max(self._mass.values(), default=ZERO)

    def _total_ints(self) -> tuple[int, int]:
        """`(n, L)`: the total mass is `n / L`, `L` the lcm of the denominators."""
        masses = self._mass.values()
        den = math.lcm(*(p.denominator for p in masses))
        return sum(p.numerator * (den // p.denominator) for p in masses), den

    def total(self) -> Fraction:
        # one Fraction over the common denominator, not one per addition
        return Fraction(*self._total_ints())

    def is_valid(self) -> bool:
        return self.total() == ONE

    def __eq__(self, other: object):
        if not isinstance(other, Dist):
            return NotImplemented
        return dict(self.nonzero()) == dict(other.nonzero())

    def __hash__(self):
        return hash(frozenset(self.nonzero()))

    def __repr__(self):
        inside = ", ".join(f"{s}: {p}" for s, p in sorted(self.nonzero()))
        return f"Dist({{{inside}}})"


class ValidationReport(NamedTuple):
    """Outcome of `Pa.validate`: empty violation list means the automaton is well formed."""

    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


class CheckResult(NamedTuple):
    """Pass/fail outcome of an exact checker, with the first violation found."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _frozen(self, name: str, value: object = None):
    """`__setattr__` and `__delattr__` of an immutable class."""
    raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")


def _fill(self, *values: object) -> None:
    """Set the slots of a new immutable instance, in `__slots__` order."""
    for name, value in zip(self.__slots__, values):
        object.__setattr__(self, name, value)


class Pa:
    """A complete probabilistic automaton.

    `states` and `alphabet` keep their declared order; serialization and
    search tie-breaking rely on it. `delta` maps every (state, letter)
    pair to the successor distribution. Instances are immutable, `delta`
    included, so the `validate` report and the stepping kernel
    (`semantics.Kernel.of`) are computed on first use and kept.

    Construction is structurally permissive: rows that do not sum to 1,
    missing rows, or dangling names are reported by `validate` rather than
    rejected here, so that broken input files can be diagnosed.
    """

    __slots__ = ("states", "alphabet", "initial", "delta", "accepting",
                 "state_set", "letter_set", "_report", "_kernel")

    def __init__(
        self,
        states: Sequence[str],
        alphabet: Sequence[str],
        initial: Mapping[str, object] | Dist,
        delta: Mapping[tuple[str, str], Mapping[str, object] | Dist],
        accepting: Iterable[str] = (),
    ):
        states, alphabet = tuple(states), tuple(alphabet)
        initial = initial if isinstance(initial, Dist) else Dist(initial)
        delta = MappingProxyType({key: (row if isinstance(row, Dist) else Dist(row))
                                  for key, row in dict(delta).items()})
        _fill(self, states, alphabet, initial, delta, frozenset(accepting),
              frozenset(states), frozenset(alphabet), None, None)

    __setattr__ = __delattr__ = _frozen

    def __reduce__(self):
        # rebuilt from its parts, so a copy never carries the cached values
        return Pa, (self.states, self.alphabet, self.initial, dict(self.delta), self.accepting)

    def row(self, state: str, letter: str) -> Dist:
        """The transition distribution out of (state, letter)."""
        if state not in self.state_set:
            raise InputError(f"unknown state {state!r}")
        if letter not in self.letter_set:
            raise InputError(f"unknown letter {letter!r}")
        try:
            return self.delta[(state, letter)]
        except KeyError:
            raise InputError(f"delta incomplete at ({state},{letter})") from None

    def post(self, state: str, letter: str) -> frozenset[str]:
        """States reachable in one step from `state` on `letter` with positive mass."""
        return self.row(state, letter).support()

    def post_set(self, states: Iterable[str], letters: Iterable[str]) -> frozenset[str]:
        """Union of one-step successors over a set of states and a set of letters."""
        out: set[str] = set()
        for q in states:
            for a in letters:
                out |= self.post(q, a)
        return frozenset(out)

    def check_word(self, word: Sequence[str], forbid: Mapping[str, str] = _NO_ROLES) -> Word:
        """Normalize a word to a tuple, rejecting letters outside the alphabet
        and letters that `forbid` maps to a role name, such as "commit"; at
        each position a forbidden letter is reported first."""
        w = tuple(word)
        for i, a in enumerate(w):
            if a in forbid:
                raise InputError(f"{forbid[a]} letter {a!r} at position {i} not allowed here")
            if a not in self.letter_set:
                raise InputError(f"unknown letter {a!r} at position {i}")
        return w

    def validate(self) -> ValidationReport:
        """Every invariant violation, not just the first; computed once, then kept.

        Each distinct row object is checked once, however many keys share
        it, and its sum is one integer comparison over the lcm of its
        denominators; a `Fraction` total is built only for a violation."""
        if self._report is not None:
            return self._report
        v: list[str] = []
        for what, names in (("state name", self.states), ("letter", self.alphabet)):
            seen: set[str] = set()
            for x in names:
                if not x:
                    v.append(f"empty {what}")
                elif x in seen:
                    v.append(f"duplicate {what} {x!r}")
                seen.add(x)

        def verdict(d: Dist) -> tuple[list[str], Fraction | None]:
            # (targets outside the states, the total if it is not exactly 1)
            num, den = d._total_ints()
            return ([q for q, _ in d.items() if q not in self.state_set],
                    None if num == den else Fraction(num, den))

        unknown, total = verdict(self.initial)
        v.extend(f"initial mass on unknown state {q!r}" for q in unknown)
        if total is not None:
            v.append(f"initial distribution sums to {total}")

        for (q, a) in self.delta:
            if q not in self.state_set:
                v.append(f"delta row for unknown state {q!r}")
            elif a not in self.letter_set:
                v.append(f"delta row for unknown letter {a!r}")
        verdicts: dict[int, tuple[list[str], Fraction | None]] = {}  # id(row) -> verdict
        for q in self.states:
            for a in self.alphabet:
                row = self.delta.get((q, a))
                if row is None:
                    v.append(f"delta incomplete at ({q},{a})")
                    continue
                found = verdicts.get(id(row))
                if found is None:
                    found = verdicts[id(row)] = verdict(row)
                unknown, total = found
                if unknown:
                    v.extend(f"row ({q},{a}) targets unknown state {t!r}" for t in unknown)
                if total is not None:
                    v.append(f"row ({q},{a}) sums to {total}")

        for q in self.accepting:
            if q not in self.state_set:
                v.append(f"accepting state {q!r} not a state")
        report = ValidationReport(tuple(v))
        object.__setattr__(self, "_report", report)
        return report

    def require_valid(self) -> None:
        """Raise `ValidationError` unless the automaton passes `validate`."""
        if not self.validate().ok:
            raise ValidationError(self.validate())

    def __eq__(self, other: object):
        if not isinstance(other, Pa):
            return NotImplemented
        return (self.states == other.states
                and self.alphabet == other.alphabet
                and self.initial == other.initial
                and self.accepting == other.accepting
                and self.delta == other.delta)

    __hash__ = None  # equality compares the parts; identity hashing would mislead

    def __repr__(self):
        return (f"Pa({len(self.states)} states, {len(self.alphabet)} letters, "
                f"{len(self.accepting)} accepting)")
