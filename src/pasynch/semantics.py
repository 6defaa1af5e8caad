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
from functools import cache
from itertools import chain, count, repeat, tee
from math import gcd, lcm
from operator import itemgetter, mul
from types import FunctionType
from typing import Iterable, Iterator, NamedTuple, Sequence

from .core import Dist, InputError, Pa, _base_fraction, _big_below, _lowest

# Kernels of at most this many names step through `_dense_step`'s
# template, larger ones through `_column_step`'s sparse columns: the
# template's work grows with n², zeros included. Up to 12 names it
# measured faster on every step; from 13 on, it lost some ~1,000-bit
# steps over random rows and some back steps over twins' sparse weights.
DENSE_MAX_NAMES = 12

# A distribution as the kernel holds it: (numerators, denominator), in
# lowest terms, so two pairs are equal exactly when the masses are.
Ints = tuple[tuple[int, ...], int]


class Kernel:
    """`pa` compiled for exact stepping on integer numerators.

    `names` lists `pa.states`, then any other name that mass can reach
    (from the initial distribution or a row target); a step that moves
    mass out of such a name, or out of a state with a missing row, raises
    the same `InputError` as `Pa.row`. Each distinct row object is read
    once, as integers (`Dist._entries`), however many keys share it. Each
    letter's rows are compiled into integer numerators over `L_a`, the
    least common denominator of the letter's entries, and into two steps
    on them: forward and its transpose, back. A kernel of at most
    `DENSE_MAX_NAMES` names gets both from one call of its size's
    straight-line template (`_dense_step`) on one dense tuple of n²
    numerators; a larger one reads one `itemgetter` column per target
    (`_column_step`). `walk` is the one loop that steps a pair: per
    letter a forward step, `den *= L_a` and a reduction to lowest terms
    over the kernel's *base*, the lcm of the start denominator and every
    `L_a`, in the rounds of `core._lowest`. `norm`, acceptance
    probabilities and the masses of `dist` reduce the same way and build
    their `Fraction` without a second gcd.
    `start` is the initial pair. `Kernel.of` compiles each (immutable)
    `Pa` once, on first use.

    Acceptance after a word `x` is linear in the pair (Tzeng, 1992):
    `P(d·x) = <v, w_x> / (D * L_x)` for `d = v / D`. `accept` is
    `(w_ε, 1)`, the weights of the empty word: `w_ε[i]` is 1 exactly when
    `names[i]` is accepting. The back step of `a` builds the weights of
    `a·x` from those of `x`, so the last letters of a word can be scored
    without being stepped. `shared_steps` gives every letter's two steps
    over one denominator, for the search scan's layers.
    """

    __slots__ = ("names", "start", "accept", "_big", "_below", "_index", "_letters", "_valid",
                 "_divide")

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
        # id(row) -> its (target index, numerator, denominator) entries: each
        # distinct row object read once, names new to the kernel appended
        entries: dict[int, list[tuple[int, int, int]]] = {}
        for d in chain((pa.initial,), *rows.values()):
            if d is None or id(d) in entries:  # None: a missing row
                continue
            out = entries[id(d)] = []
            for q, num, den in d._entries():
                j = index.get(q)
                if j is None:
                    j = index[q] = len(names)
                    names.append(q)
                out.append((j, num, den))
        self.names = tuple(names)
        self._index = index
        n = len(names)
        self._divide = _dense_step(n).divide if n <= DENSE_MAX_NAMES else _divide
        unknown = [(i, f"unknown state {names[i]!r}") for i in range(len(pa.states), len(names))]
        self._letters = {a: self._compile(a, r, entries, unknown) for a, r in rows.items()}
        self.start = self.ints(pa.initial)
        self._big, self._below = _big_below(
            lcm(self.start[1], *(c[0] for c in self._letters.values())))
        self.accept = tuple(int(q in pa.accepting) for q in names), 1
        self._valid = pa.validate().ok

    def _compile(self, letter: str, rows: list[Dist | None], entries: dict, unknown: list) -> tuple:
        present = []  # (source index, entries) of each row there is
        errors = []
        for i, row in enumerate(rows):
            if row is None:
                errors.append((i, f"delta incomplete at ({self.names[i]},{letter})"))
            else:
                present.append((i, entries[id(row)]))
        den = lcm(*{d for _, row in present for _, _, d in row})
        n = len(self.names)
        if n <= DENSE_MAX_NAMES:
            dense = [0] * (n * n)
            for i, row in present:
                at = i * n
                for j, num, d in row:
                    dense[at + j] = num * (den // d)
            consts = tuple(dense)
            return (den, *_dense_step(n)(consts), errors + unknown, consts)
        columns = [([], []) for _ in self.names]
        for i, row in present:
            for j, num, d in row:
                sources, nums = columns[j]
                sources.append(i)
                nums.append(num * (den // d))
        # itemgetter(*src)(v) fetches a column's sources in one C call; the
        # two spare indices make it return a tuple for zero or one source
        # too, and `map(mul, ..., nums)` stops at the end of `nums`
        consts = [(itemgetter(*src, 0, 0), tuple(nums)) for src, nums in columns]
        return (den, *_column_step(n, consts), errors + unknown, consts)

    def ints(self, d: Dist) -> Ints:
        """`d` over the kernel's names; positive mass elsewhere is an `InputError`."""
        entries = [e for e in d._entries() if e[1]]
        den = lcm(*(e[2] for e in entries))
        v = [0] * len(self.names)
        for q, num, den_q in entries:
            if q not in self._index:
                raise InputError(f"unknown state {q!r}")
            v[self._index[q]] = num * (den // den_q)
        return tuple(v), den

    def dist(self, pair: Ints) -> Dist:
        """`pair`, whose primes all divide the base, as a `Dist` whose masses
        are reduced over the base."""
        return Dist._from_ints(self.names, *pair, self._big, self._below)

    def norm(self, pair: Ints) -> Fraction:
        """The largest mass of `pair`, reduced over the base as in `walk`."""
        v, den = pair
        return _base_fraction(self._big, self._below, max(v) if v else 0, den)

    def shared_steps(self) -> tuple[int, dict[str, tuple]]:
        """`Λ`, the lcm of every letter's `L_a`, and for each letter its
        forward and back steps over `Λ`: the numerators of `M_a` times
        `Λ / L_a`. Forward takes `v / D` to `forward(v) / (D * Λ)`, with no
        check and no reduction; back takes weights `w_x / L` of a word `x`
        to the weights `back(w_x) / (L * Λ)` of `a·x`, where `w_x[i] / L`
        is the mass state `i` sends into the accepting states along `x`.
        A letter with `L_a = Λ` lends its own steps; the others are built
        on each call, not kept, so a kernel stays the size it was."""
        lam = lcm(*(c[0] for c in self._letters.values()))
        n = len(self.names)
        return lam, {a: (forward, back) if den == lam else _scaled_steps(n, consts, lam // den)
                     for a, (den, forward, back, _, consts) in self._letters.items()}

    def walk(self, word: Iterable[str], pair: Ints | None = None) -> Iterator[Ints]:
        """The pair at every step of `word`, letters of the automaton, from
        `pair` (the start pair by default) on: the one loop that steps.

        Every prime of `den`, and so of any common factor of `den` and `v`,
        divides the base, as the start denominator and each `L_a` do. A
        step divides by `g = gcd(big, den, *v)`, big-mod-small gcds linear
        in the size of `den`, and hands the pair to `core._lowest` for more
        rounds only when `below % g != 0` (see there). Otherwise it divides
        through the kernel's `_divide`: on the template path the
        straight-line one of `_dense_step`, which on Python 3.11 saves the
        frame of a list comprehension; column kernels keep the
        comprehension. A `pair` from `ints` of another distribution may
        carry primes outside the base; `step` takes those out itself.

        A step tests its letter's errors (mass on a missing row or an
        unknown name) and a mass past 1 only on a malformed automaton or
        from a start whose total passes 1. Otherwise neither can fire: a
        valid automaton's rows sum to exactly 1 over its states, so every
        step keeps the start's total of at most 1.
        """
        letters, big, below, divide = self._letters, self._big, self._below, self._divide
        v, den = pair = self.start if pair is None else pair
        check = not self._valid or sum(v) > den
        yield pair
        for a in word:
            den_a, forward, _, errors, _ = letters[a]
            if check:
                for i, message in errors:
                    if v[i]:
                        raise InputError(message)
            v = forward(v)
            den *= den_a
            g = gcd(big, den, *v)
            if g != 1:
                if below % g:
                    v, den = _lowest(big, below, v, den)
                else:
                    v = divide(v, g)
                    den //= g
            # max(v) if v, as max(v, default=0) parses its keyword on every call
            if check and v and max(v) > den:
                raise InputError(f"probability {Fraction(max(v), den)} outside [0, 1]")
            yield v, den


@cache
def _dense_step(n: int):
    """`make(c)` for kernels of `n` names, compiled once per process.

    `c` holds a letter's n² numerators, `c[i * n + j]` from source `i` to
    target `j`. `make(c)` returns the forward step
    `x -> (sum_i x[i] * c[i * n + j] for each j)` and its transpose
    `x -> (sum_j c[i * n + j] * x[j] for each i)`, both tuples, each entry
    one straight-line expression. Both are functions of the template's
    code whose default arguments are `c` itself, one local per constant,
    so a letter costs one tuple and two function objects and no compile.
    `make.divide(x, g)` returns `(x0 // g, ..., x{n-1} // g)`, compiled in
    the same source: it is the division of the template's kernels, so
    `Kernel.walk` divides in one frame where `tuple([y // g for y in x])`
    would take two on Python 3.11, whose comprehensions run in a frame of
    their own (PEP 709 inlines them from 3.12). Column kernels keep the
    comprehension (`_divide`). The source holds identifiers only, never a
    name, letter or number of an automaton, so no constant meets the
    int/str digit limit.
    """
    ids = range(n)
    xs = "".join(f"x{i}, " for i in ids)
    cs = "".join(f", c{i}_{j}" for i in ids for j in ids)
    forward = "".join(" + ".join(f"x{i}*c{i}_{j}" for i in ids) + ", " for j in ids)
    back = "".join(" + ".join(f"c{i}_{j}*x{j}" for j in ids) + ", " for i in ids)
    divide = "".join(f"x{i} // g, " for i in ids)
    scope: dict = {}
    exec(compile(f"def forward(x{cs}):\n    [{xs}] = x\n    return ({forward})\n"
                 f"def back(x{cs}):\n    [{xs}] = x\n    return ({back})\n"
                 f"def divide(x, g):\n    [{xs}] = x\n    return ({divide})\n",
                 f"<dense step, {n} names>", "exec"), scope)
    fwd, bwd = scope["forward"].__code__, scope["back"].__code__

    def make(c: tuple) -> tuple:
        return FunctionType(fwd, scope, None, c), FunctionType(bwd, scope, None, c)
    make.divide = scope["divide"]
    return make


def _column_step(n: int, columns: list) -> tuple:
    """The forward step and its transpose over `columns`, one
    `(getter, numerators)` pair per target, as `_dense_step` makes them;
    forward returns a tuple, so a step is a key."""
    ids = range(n)  # a column's getter maps these to its sources

    def forward(v):
        return tuple([sum(map(mul, get(v), nums)) for get, nums in columns])

    def back(x):
        w = [0] * n
        for xj, (get, nums) in zip(x, columns):
            if xj:
                for i, num in zip(get(ids), nums):
                    w[i] += num * xj
        return w
    return forward, back


def _divide(x: tuple, g: int) -> tuple:
    """`x` divided by `g` entry by entry: the division of kernels past the
    template, as `_dense_step(n).divide` is of those within it."""
    return tuple([y // g for y in x])


def _scaled_steps(n: int, consts, r: int) -> tuple:
    """The forward and back steps of a letter's compiled numerators
    `consts`, each times `r`: a dense tuple for the template, a column
    list otherwise, as `Kernel._compile` made them."""
    if isinstance(consts, tuple):
        return _dense_step(n)(tuple([x * r for x in consts]))
    return _column_step(n, [(get, tuple([x * r for x in nums])) for get, nums in consts])


def step(pa: Pa, d: Dist, letter: str) -> Dist:
    """One evolution step: push each unit of mass along its transition row."""
    if letter not in pa.letter_set:
        raise InputError(f"unknown letter {letter!r}")
    k = Kernel.of(pa)
    *_, (v, den) = k.walk((letter,), k.ints(d))
    g = gcd(den, *v)  # the primes of `d` outside the kernel's base
    # one can still divide a single mass, so the masses are reduced over `den`
    den //= g
    return Dist._from_ints(k.names, k._divide(v, g), den, den, 1)


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
    return _base_fraction(k._big, k._below, sum(map(mul, v, k.accept[0])), den)


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
    """The entries of `word`'s trace, from the pairs of `Kernel.walk`; each
    is built from locals by `tuple.__new__` (`TraceEntry._make` would check
    its length again), its norm reduced as `Kernel.norm` does. The norm is
    the step's one `max`: on a valid automaton the walk takes none."""
    k = Kernel.of(pa)
    yield TraceEntry(0, None, pa.initial, pa.initial.norm())
    names, big, below = k.names, k._big, k._below
    new, from_ints, fraction = tuple.__new__, Dist._from_ints, _base_fraction
    word, letters = tee(word)
    run = k.walk(word)
    next(run)
    for i, a, (v, den) in zip(count(1), letters, run):
        yield new(TraceEntry, (i, a, from_ints(names, v, den, big, below),
                               fraction(big, below, max(v) if v else 0, den)))


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
