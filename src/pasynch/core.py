"""Exact data model for probabilistic automata.

States and letters are plain strings. Probability mass is held as
`fractions.Fraction` throughout, so every comparison the toolkit makes is
an exact rational identity. Floats are rejected at the door: a single
float would silently turn equality checks into tolerance games.

Hot paths read and build masses on integers. Only this module touches the
two slots every `Fraction` has, `_numerator` and `_denominator`:
`_coprime_fraction` and `_base_fraction` fill them, and `Dist._entries`,
`Dist._texts`, `Dist._total_ints` and `_half` read them, so other modules
never call the `numerator` and `denominator` properties or do `Fraction`
arithmetic to load, compile, twin or write an automaton.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import product, repeat
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
    `MAX_LITERAL_LEN` characters; the result is in lowest terms. Floats
    are refused. A well-formed string is read on integers with one gcd;
    only a string that ends in an error goes through `Fraction(value)`,
    which words the error.
    """
    if isinstance(value, str):
        if len(value) > MAX_LITERAL_LEN:
            raise InputError(f"rational literal of {len(value):,} characters exceeds "
                             f"the limit of {MAX_LITERAL_LEN:,}")
        if _LITERAL.fullmatch(value):
            # a zero denominator or a digit string past the int/str limit
            # falls through to the error path below
            top, _, bottom = value.partition("/")
            try:
                num, den = int(top), int(bottom or 1)
            except ValueError:
                den = 0
            if den:
                g = gcd(num, den)
                num, den = num // g, den // g
                if num > den:
                    raise InputError(f"probability {_coprime_fraction(num, den)} outside [0, 1]")
                return _coprime_fraction(num, den)
        try:
            p = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational literal {value!r}: {exc}") from None
    elif isinstance(value, float):
        raise InputError(f"float probability {value!r} rejected; use an exact rational")
    elif isinstance(value, Fraction):
        p = value
    elif isinstance(value, int):
        p = Fraction(value)
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


def _half(p: Fraction) -> Fraction:
    """`p / 2` for a `p >= 0`, exactly and with no gcd: an even numerator
    is halved, an odd one keeps it and doubles the denominator."""
    num, den = p._numerator, p._denominator
    return _coprime_fraction(num >> 1, den) if num & 1 == 0 else _coprime_fraction(num, den << 1)


def _big_below(base: int) -> tuple[int, int]:
    """`(big, below)` for `_lowest`: `big` the largest power of `base` below
    2^30, one CPython digit (`base` itself past that, 1 for a base of 1),
    and `below = big // base`."""
    big = base
    if base > 1:
        while big * base < 1 << 30:
            big *= base
    return big, big // base


def _lowest(big: int, below: int, nums: Sequence[int], den: int) -> tuple[Sequence[int], int]:
    """`nums` over `den` divided by their common factor, whose primes all
    divide a base `B`, with `(big, below) = _big_below(B)`.

    Each round divides by `g = gcd(big, den, *nums)`, a gcd of big numbers
    with one small one. If `g` divides `below`, each prime `p` of `g` has
    `v_p(g) < v_p(big)`, so `g` holds the whole common power of `p` and
    the values are in lowest terms; otherwise a power may have been cut
    short at `v_p(big)` and another round follows. `semantics.Kernel.walk`
    and `_base_fraction` run the first round themselves and call this
    function only when it may not be the last.
    """
    g = gcd(big, den, *nums)
    while g != 1:
        nums = tuple([x // g for x in nums])
        den //= g
        if below % g == 0:
            break
        g = gcd(big, den, *nums)
    return nums, den


def _base_fraction(big: int, below: int, num: int, den: int) -> Fraction:
    """`num / den` for a `den` whose primes all divide the base of `big`
    and `below`, reduced in `_lowest`'s rounds, where `Fraction(num, den)`
    runs one gcd on two big numbers. The first round is inline, as in
    `semantics.Kernel.walk`, and the two `Fraction` slots are filled here,
    as `_coprime_fraction` fills them, so every norm, acceptance
    probability and kernel `Dist` mass costs this one frame. `walk`
    divides its pairs through a straight-line template for the same
    reason: on Python 3.11 each extra call or comprehension is a frame;
    column kernels keep the comprehension."""
    g = gcd(big, num, den)
    if g != 1:
        if below % g:
            (num,), den = _lowest(big, below, (num,), den)
        else:
            num //= g
            den //= g
    f = object.__new__(Fraction)
    f._numerator = num
    f._denominator = den
    return f


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
                   big: int, below: int) -> "Dist":
        """Mass `nums[i] / den` on `names[i]`, trusted to lie in [0, 1].

        When the map is first read, each mass is reduced by `_base_fraction`
        over the base of `big` and `below`, which every prime of `den`
        divides (`den` itself, with `below` 1, always qualifies).
        """
        d = cls.__new__(cls)
        d._ints = (names, nums, den, big, below)
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
        names, nums, den, big, below = self._ints
        self._mass = mass = {q: _base_fraction(big, below, x, den)
                             for q, x in zip(names, nums) if x}
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

    def _entries(self) -> list[tuple[str, int, int]]:
        """`(name, num, den)` per entry, zero masses included: the mass is
        `num / den`, in lowest terms, read from the two slots that
        `_coprime_fraction` fills."""
        return [(q, p._numerator, p._denominator) for q, p in self._mass.items()]

    def _texts(self) -> dict[str, str]:
        """Name -> the text `str(mass)` of each nonzero mass, in entry order."""
        return {q: f"{p._numerator}/{p._denominator}" if p._denominator != 1 else str(p._numerator)
                for q, p in self._mass.items() if p._numerator}

    def _total_ints(self) -> tuple[int, int]:
        """`(n, L)`: the total mass is `n / L`, `L` the lcm of the denominators."""
        masses = self._mass.values()
        den = math.lcm(*[p._denominator for p in masses])
        return sum([p._numerator * (den // p._denominator) for p in masses]), den

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
        delta = dict(delta)
        if not all(map(isinstance, delta.values(), repeat(Dist))):
            delta = {key: row if isinstance(row, Dist) else Dist(row) for key, row in delta.items()}
        delta = MappingProxyType(delta)
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
        each position a forbidden letter is reported first. With nothing
        forbidden, one set test passes a word of known letters; the loop
        runs only to word an error or to check the roles."""
        w = tuple(word)
        if not forbid:
            try:
                if self.letter_set.issuperset(w):
                    return w
            except TypeError:
                pass  # an unhashable item; before 3.11 the test hashes every item first
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
        denominators; a `Fraction` total is built only for a violation.
        The keys are walked one by one only when one of them is missing or
        foreign, or a row fails, to word each violation at its key."""
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
            targets = d._mass.keys()
            return ([] if targets <= self.state_set
                    else [q for q in targets if q not in self.state_set],
                    None if num == den else Fraction(num, den))

        unknown, total = verdict(self.initial)
        v.extend(f"initial mass on unknown state {q!r}" for q in unknown)
        if total is not None:
            v.append(f"initial distribution sums to {total}")

        keys_ok = self.delta.keys() == set(product(self.states, self.alphabet))
        if not keys_ok:
            for (q, a) in self.delta:
                if q not in self.state_set:
                    v.append(f"delta row for unknown state {q!r}")
                elif a not in self.letter_set:
                    v.append(f"delta row for unknown letter {a!r}")
        rows = self.delta.values()
        # id(row) -> verdict, each distinct row once
        verdicts = {key: verdict(row) for key, row in dict(zip(map(id, rows), rows)).items()}
        if not keys_ok or any(unknown or total is not None for unknown, total in verdicts.values()):
            for q in self.states:
                for a in self.alphabet:
                    row = self.delta.get((q, a))
                    if row is None:
                        v.append(f"delta incomplete at ({q},{a})")
                        continue
                    unknown, total = verdicts[id(row)]
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
