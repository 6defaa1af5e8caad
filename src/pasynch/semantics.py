"""Distribution evolution of a probabilistic automaton along finite words.

Every step in the package runs on one exact integer kernel, `Kernel`,
in place of per-entry `Fraction` arithmetic: a distribution is a vector
of integer numerators over one common denominator (the fraction-free
representation of Bareiss, 1968). `Kernel` is internal to the package;
the public functions here return `Dist` values, which the kernel builds
without re-validating and which make their `Fraction` map on first read.
"""
from __future__ import annotations

import sys
from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm
from operator import itemgetter, mul
from typing import Iterable, Iterator, NamedTuple, Sequence

from .core import Dist, InputError, Pa, _base_fraction

# A distribution as the kernel holds it: (numerators, denominator), in
# lowest terms, so two pairs are equal exactly when the masses are.
Ints = tuple[tuple[int, ...], int]


class Kernel:
    """`pa` compiled for exact stepping on integer numerators.

    `names` lists `pa.states`, then any other name that mass can reach
    (from the initial distribution or a row target); a step that moves
    mass out of such a name, or out of a state with a missing row, raises
    the same `InputError` as `Pa.row`. Each letter's rows are compiled
    into integer columns over `L_a`, the least common denominator of the
    letter's entries. One step is then integer multiply-adds, `den *= L_a`
    and a reduction to lowest terms over the kernel's *base*, the lcm of
    the start denominator and every `L_a`: see `advance`. `norm` and
    `fraction` reduce the same way and build their `Fraction` without a
    second gcd. `start` is the initial pair. `Kernel.of` compiles each
    (immutable) `Pa` once, on first use.

    Acceptance after a word `x` is linear in the pair (Tzeng, 1992):
    `P(d·x) = <v, w_x> / (D * L_x)` for `d = v / D`. `accept` is
    `(w_ε, 1)`, the weights of the empty word: `w_ε[i]` is 1 exactly when
    `names[i]` is accepting. `weights` builds `(w_x, L_x)` from it one
    letter back at a time, so the last letters of a word can be scored
    without being stepped.
    """

    __slots__ = ("names", "start", "accept", "_base", "_index", "_letters")

    @classmethod
    def of(cls, pa: Pa) -> "Kernel":
        """The kernel of `pa`, compiled on the first call and kept on `pa`."""
        if pa._kernel is None:
            object.__setattr__(pa, "_kernel", cls(pa))
        return pa._kernel

    def __init__(self, pa: Pa):
        rows = {a: [pa.delta.get((q, a)) for q in pa.states] for a in pa.alphabet}
        names = list(pa.states)
        index = {q: i for i, q in enumerate(names)}
        for d in filter(None, chain((pa.initial,), *rows.values())):  # None: missing row
            for q, _ in d.items():
                if q not in index:
                    index[q] = len(names)
                    names.append(q)
        self.names = tuple(names)
        self._index = index
        unknown = [(i, f"unknown state {names[i]!r}") for i in range(len(pa.states), len(names))]
        self._letters = {a: self._compile(a, r, unknown) for a, r in rows.items()}
        self.start = self.ints(pa.initial)
        self._base = lcm(self.start[1], *(c[0] for c in self._letters.values()))
        self.accept = tuple(int(q in pa.accepting) for q in names), 1

    def _compile(self, letter: str, rows: list[Dist | None], unknown: list) -> tuple:
        entries = []  # (target, source, numerator, denominator)
        errors = []
        for i, row in enumerate(rows):
            if row is None:
                errors.append((i, f"delta incomplete at ({self.names[i]},{letter})"))
                continue
            for target, p in row.items():
                entries.append((self._index[target], i, p.numerator, p.denominator))
        den = lcm(*{e[3] for e in entries})
        columns = [([], []) for _ in self.names]
        for j, i, num, d in entries:
            sources, nums = columns[j]
            sources.append(i)
            nums.append(num * (den // d))
        # itemgetter(*src)(v) fetches a column's sources in one C call; the
        # two spare indices make it return a tuple for zero or one source
        # too, and `map(mul, ..., nums)` stops at the end of `nums`
        return (den, [(itemgetter(*src, 0, 0), tuple(nums)) for src, nums in columns],
                errors + unknown)

    def ints(self, d: Dist) -> Ints:
        """`d` over the kernel's names; positive mass elsewhere is an `InputError`."""
        entries = list(d.nonzero())
        den = lcm(*(p.denominator for _, p in entries))
        v = [0] * len(self.names)
        for q, p in entries:
            if q not in self._index:
                raise InputError(f"unknown state {q!r}")
            v[self._index[q]] = p.numerator * (den // p.denominator)
        return tuple(v), den

    def dist(self, pair: Ints) -> Dist:
        """`pair`, whose primes all divide the base, as a `Dist` whose masses
        are reduced over the base."""
        return Dist._from_ints(self.names, *pair, self._base)

    def fraction(self, num: int, den: int) -> Fraction:
        """`num / den` for a denominator `den` of this kernel's pairs,
        reduced over the base as in `advance`."""
        return _base_fraction(self._base, num, den)

    def norm(self, pair: Ints) -> Fraction:
        v, den = pair
        return _base_fraction(self._base, max(v, default=0), den)

    def advance(self, pair: Ints, letter: str) -> Ints:
        """One step on `letter`, a letter of the automaton.

        The start denominator divides the base and each step multiplies
        `den` by an `L_a` that divides it too, so every prime of `den`,
        and of any common factor of `den` and `v`, divides the base. The
        first round's `g` therefore holds every prime of the common
        factor; each later round's `g` holds every prime still common,
        and the loop ends with the pair in lowest terms. Each round costs
        a big-mod-small `gcd`, linear in the size of `den`, where
        `gcd(den, *v)` would be quadratic. A pair from `ints` of another
        distribution may carry primes outside the base; `step` takes those
        out itself.
        """
        den_a, columns, errors = self._letters[letter]
        v, den = pair
        for i, message in errors:
            if v[i]:
                raise InputError(message)
        new = [sum(map(mul, get(v), nums)) for get, nums in columns]
        den *= den_a
        g = gcd(self._base, den, *new)
        while g != 1:
            new = [x // g for x in new]
            den //= g
            g = gcd(g, den, *new)
        top = max(new, default=0)
        if top > den:  # a row summing past 1 on a malformed automaton
            raise InputError(f"probability {Fraction(top, den)} outside [0, 1]")
        return tuple(new), den

    def weights(self, letter: str, after: Ints) -> Ints:
        """One step back on `letter`, the transpose of `advance`: from the
        weights `(w_x, L_x)` of a word `x` (`accept` for the empty word),
        the weights of `letter·x`, not reduced. `w_x[i] / L_x` is the mass
        state `i` sends into the accepting states along `x`."""
        den_a, columns, _ = self._letters[letter]
        ids = range(len(self.names))  # a column's getter maps these to its sources
        x, den_x = after
        w = [0] * len(self.names)
        for j, xj in enumerate(x):
            if xj:
                get, nums = columns[j]
                for i, num in zip(get(ids), nums):
                    w[i] += num * xj
        return tuple(w), den_a * den_x

    def walk(self, word: Iterable[str]) -> Iterator[Ints]:
        """The pair at every step of `word`, from the start distribution on."""
        pair = self.start
        yield pair
        for a in word:
            pair = self.advance(pair, a)
            yield pair


def step(pa: Pa, d: Dist, letter: str) -> Dist:
    """One evolution step: push each unit of mass along its transition row."""
    if letter not in pa.letter_set:
        raise InputError(f"unknown letter {letter!r}")
    k = Kernel.of(pa)
    v, den = k.advance(k.ints(d), letter)
    g = gcd(den, *v)  # the primes of `d` outside the kernel's base
    # one can still divide a single mass, so the masses are reduced over `den`
    return Dist._from_ints(k.names, tuple(x // g for x in v), den // g, den // g)


def outcome(pa: Pa, word: Sequence[str]) -> list[Dist]:
    """The |word|+1 distributions visited while reading `word` from the initial one."""
    k = Kernel.of(pa)
    run = k.walk(pa.check_word(word))
    next(run)
    return [pa.initial, *map(k.dist, run)]


def acceptance_probability(pa: Pa, word: Sequence[str]) -> Fraction:
    """Total final mass on accepting states; 0 when the accepting set is empty."""
    k = Kernel.of(pa)
    for v, den in k.walk(pa.check_word(word)):
        pass
    return k.fraction(sum(map(mul, v, k.accept[0])), den)


class TraceEntry(NamedTuple):
    step: int
    letter: str | None  # None on the initial entry
    dist: Dist
    norm: Fraction


class NormTrace(tuple):
    """Per-step record of a run: distribution plus its norm at every step.
    It is the tuple of its `TraceEntry`s, and `entries` is the trace itself."""

    __slots__ = ()

    @property
    def entries(self) -> "NormTrace":
        return self

    @property
    def norms(self) -> tuple[Fraction, ...]:
        return tuple(e.norm for e in self)

    def __repr__(self):
        return f"NormTrace(entries={tuple(self)!r})"


class TraceStream:
    """A norm trace computed while it is read, so that a long trace is
    never held whole. It can be iterated once; its length is known before
    the first step. `entries` is the stream itself, so it stands in for a
    `NormTrace` in `paformat.write_trace_csv`."""

    __slots__ = ("_entries", "_length")

    def __init__(self, pa: Pa, word: Iterable[str], n_letters: int):
        self._entries = _trace_entries(pa, word)
        self._length = n_letters + 1

    @property
    def entries(self) -> "TraceStream":
        return self

    def __iter__(self) -> Iterator[TraceEntry]:
        return self._entries

    def __len__(self) -> int:
        return self._length


def _trace_entries(pa: Pa, word: Iterable[str]) -> Iterator[TraceEntry]:
    k = Kernel.of(pa)
    yield TraceEntry(0, None, pa.initial, pa.initial.norm())
    pair = k.start
    for i, a in enumerate(word, start=1):
        pair = k.advance(pair, a)
        yield TraceEntry(i, a, k.dist(pair), k.norm(pair))


def trace_stream(pa: Pa, word: Sequence[str]) -> TraceStream:
    """The norm trace of `word`, streamed; every letter is checked first."""
    w = pa.check_word(word)
    return TraceStream(pa, w, len(w))


def norm_trace(pa: Pa, word: Sequence[str]) -> NormTrace:
    return NormTrace(tuple(trace_stream(pa, word)))


def lasso_stream(pa: Pa, stem: Sequence[str], loop: Sequence[str], reps: int) -> TraceStream:
    """The trace of stem·loop^reps, streamed. The word is never built:
    the stem and loop letters are checked up front, and a word whose
    trace would have more than `sys.maxsize` entries is refused."""
    stem_w, loop_w = tuple(stem), tuple(loop)
    if not loop_w:
        raise InputError("lasso loop must be nonempty")
    if reps < 0:
        raise InputError(f"repetition count must be >= 0, got {reps}")
    pa.check_word(stem_w + loop_w if reps else stem_w)
    n_letters = len(stem_w) + len(loop_w) * reps
    if n_letters >= sys.maxsize:
        raise InputError(
            f"lasso word of {n_letters} letters is too long (limit {sys.maxsize - 1})")
    word = chain(stem_w, chain.from_iterable(repeat(loop_w, reps)))
    return TraceStream(pa, word, n_letters)


def lasso_trace(pa: Pa, stem: Sequence[str], loop: Sequence[str], reps: int) -> NormTrace:
    """Trace of stem·loop^reps, a finite unrolling of an ultimately periodic word."""
    return NormTrace(tuple(lasso_stream(pa, stem, loop, reps)))


class MaxNorm(NamedTuple):
    norm: Fraction
    step: int


def max_norm_from(trace: NormTrace, start: int) -> MaxNorm:
    """Largest norm at or after entry `start`; the earliest step wins ties."""
    if not 0 <= start < len(trace.entries):
        raise InputError(f"start index {start} outside trace of length {len(trace.entries)}")
    best = trace.entries[start]
    for e in trace.entries[start + 1:]:
        if e.norm > best.norm:
            best = e
    return MaxNorm(best.norm, best.step)
