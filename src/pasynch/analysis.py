"""Desk-scale search and certification over constructed automata.

Everything here is a finite probe: exhaustive sweeps up to a length
bound, fixed-horizon absorption checks, checkpoint certificates. None of
it decides anything about the full infinite-word behaviour, and failures
of the searches mean "not found within the bound", nothing stronger.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import chain, islice
from operator import mul
from typing import Generator, NamedTuple, Sequence

from .core import (
    CheckResult,
    Dist,
    InputError,
    ONE,
    Pa,
    PaError,
    Word,
    ZERO,
    _lowest,
)
from .reduction import TwinPa, Value1Instance, build_witness_prefix
from .semantics import Ints, Kernel

DEFAULT_BUDGET = 1 << 20

# The most rungs a schedule search fills, whatever its budget: its answer
# holds one word per rung, and a word of probability 1 fills every rung
# left, so a budget of 10^12 would otherwise let `k` ask for 8 TB of list.
MAX_RUNGS = 1 << 20

# A search layer's shared denominator is reduced only past this many bits:
# over one denominator equal distributions already have equal numerators,
# and products of numbers this small cost about what reduced ones would.
LAYER_DEN_BITS = 64


class BudgetExceededError(PaError):
    """An exhaustive sweep would evaluate more words than the budget allows."""


class SearchResult(NamedTuple):
    """Best word found by an exhaustive bounded sweep.

    Among words attaining `best_prob`, `best_word` is the shortest one,
    ties broken by the declared alphabet order. `exhausted` records that
    the whole word space up to the bound was covered. It carries no
    verdict, so it is always true, like any non-empty tuple.
    """

    best_word: Word
    best_prob: Fraction
    explored: int
    exhausted: bool


class ScheduleSearchResult(NamedTuple):
    """Outcome of a threshold-ladder search; `failed_at` is the first rung
    (1-based) with no sufficient word within the length bound. `explored`
    counts the words up to the last one found in shortest-then-lex order,
    or every word up to the bound when a rung fails. True iff `ok`."""

    words: tuple[Word, ...]
    ok: bool
    failed_at: int | None
    explored: int

    def __bool__(self) -> bool:
        return self.ok


class Certificate(NamedTuple):
    """Checkpoint norms of an interleaved witness word against the
    1 - 2^-i ladder; valid iff every norm strictly exceeds its rung."""

    schedule: tuple[Word, ...]
    checkpoints: tuple[int, ...]
    norms: tuple[Fraction, ...]
    thresholds: tuple[Fraction, ...]
    ok: bool

    def __bool__(self) -> bool:
        return self.ok


def _word_count(n_letters: int, max_len: int) -> int:
    if n_letters == 1:
        return max_len + 1
    return (n_letters ** (max_len + 1) - 1) // (n_letters - 1)


def _check_space(pa: Pa, max_len: int, budget: int) -> int:
    """Number of words up to `max_len`, refused past `budget`.

    A negative `max_len` or `budget` is an input error, not an overrun.
    With two or more letters there are at least 2^max_len words, so a
    `max_len` of `budget.bit_length()` or more is refused without
    computing the count, which could have millions of digits.
    """
    if max_len < 0:
        raise InputError(f"max_len must be >= 0, got {max_len}")
    if budget < 0:
        raise InputError(f"budget must be >= 0, got {budget}")
    n = len(pa.alphabet)
    if n >= 2 and max_len >= budget.bit_length():
        raise BudgetExceededError(
            f"sweep of at least {n}^{max_len} words exceeds the budget of {budget}")
    total = _word_count(n, max_len)
    if total > budget:
        raise BudgetExceededError(
            f"sweep of {total} words exceeds the budget of {budget}")
    return total


def _beats_rung(num: int, den: int, i: int) -> bool:
    """num/den > 1 - 2^-i, in integers."""
    return num << i > den * ((1 << i) - 1)


def _suffix_depth(n_letters: int, max_len: int) -> int:
    """The suffix depth `d` of `_shortlex_scan`: see the rule there. With no
    letters the one word is the empty one, so `d` stays at `min(2, max_len)`
    (the rule would grow it to `max_len`, one loop per length)."""
    d, budget = min(2, max_len), 2 * _word_count(n_letters, max_len)
    while n_letters and d < max_len and _word_count(n_letters, d + 1) ** 2 <= budget:
        d += 1
    return d


def _dominated(w: Ints, kept: list[Ints]) -> bool:
    """`w` is componentwise at most some vector of `kept`, as fractions."""
    x, den_x = w
    for y, den in kept:
        for a, b in zip(x, y):
            if a * den > b * den_x:
                break
        else:
            return True
    return False


def _shortlex_scan(
    pa: Pa, max_len: int, bar: tuple[int, int] = (-1, 1),
) -> Generator[tuple[int, int, int], tuple[int, int] | None, None]:
    """Yield (shortlex rank, accepting numerator, denominator) in rank order,
    for the words whose probability is strictly above `bar`.

    `bar` is a pair `(num, den)`, `den > 0`; the default lets every word
    through. `scan.send(new_bar)` raises the bar for every word after the
    one just yielded and returns the next word above it; `next(scan)`
    keeps the bar. A `send` after the last word raises `StopIteration`.
    `pa` must be valid, else `ValidationError`: the steps of
    `Kernel.shared_steps` skip the checks that `Kernel.walk` makes on
    malformed rows, which a valid automaton never fails.

    Acceptance after `u·x` is `<v_u, w_x> / (D_u * L_x)` (see `Kernel`),
    so a word is split into a stepped prefix and a scored suffix. Layers
    are stepped up to `h = max_len - d`, keeping one word per distinct
    distribution, the first to reach it, as equal distributions have
    equal futures. `d` starts at `min(2, max_len)` and, over one letter or
    more, grows by one while (words up to `d + 1`)² <= 2 * (words up to
    `max_len`), so the dominance tests below stay at about one per word.

    Every step is one of `Kernel.shared_steps`, over `Λ`, the lcm of the
    letters' `L_a`. A layer is a dict from numerator tuple to the index
    of its first word, over one denominator `D` (the start's, times `Λ`
    per step), so equal distributions have equal tuples and no pair is
    reduced. Only once `D` passes `LAYER_DEN_BITS` bits is the layer
    divided by its common factor, in the rounds that `Kernel.walk` runs
    for one pair, over the kernel's base: the lcm of the start
    denominator and `Λ`.

    `S_0` holds the weights of the empty word, `Kernel.accept`, and
    `S_{m+1}` the weights of `a·x`, the back step of `a` on each kept `x`
    of `S_m`, in lex order, made when first needed; every vector of `S_m`
    is over `Λ^m`. A candidate componentwise at most a kept vector of
    `S_0 .. S_{m+1}` is dropped. Every word, the empty one included, is
    one dot product: the empty word is layer 0 with `S_0`, words of
    length `1 <= l <= h + 1` are scored from layer `l - 1` with `S_1`,
    and those of length `h + m` from layer `h` with `S_m`. As every `M_a`
    is nonnegative, a dropped suffix stays dominated under any prefix, so
    every skipped word has an earlier yielded word of at least its
    probability: both searches find what a full scan finds.

    With `S_m` the scan keeps `u_m`, the componentwise max of its
    vectors, over `Λ^m`. A stepped pair `v` whose `<v, u_m>` is at most
    the bar times `D * Λ^m` skips its whole block of words with `S_m`:
    that bound is at least each of their probabilities, again because
    every vector is nonnegative. The block bound, the letter bound below
    and each word compare a dot product times the bar's denominator with
    one product, the bar's numerator times `D * Λ^m`, made once per
    layer and length and again when the bar is raised.

    No set is built from the last one, `S_d` at `length == max_len`, so
    once the bar is at least 0 it is built only from the letters some
    block can beat. Letter `a` is bounded by `c_a = M_a · u_{d-1}`, one
    back step on the previous max, and is skipped when every stepped
    pair `v` has `<v, c_a>` at most the bar times `D * Λ^d`. Every
    candidate `M_a · x` is at most `c_a`, as `x <= u_{d-1}`, so its words
    are all at or below the bar, which only rises; a candidate it would
    have dominated is at most it and so scores no word either. The
    yields, and `explored`, are those of the full build; with no letter
    left the scan ends.

    The yielded pairs are not in lowest terms; compare them by value
    (cross-multiplication or `Fraction`), never by equality of parts.
    """
    pa.require_valid()
    k, n = Kernel.of(pa), len(pa.alphabet)
    lam, steps = k.shared_steps()
    forwards = [steps[a][0] for a in pa.alphabet]
    backs = [steps[a][1] for a in pa.alphabet]
    h = max_len - _suffix_depth(n, max_len)
    bar_num, bar_den = bar
    kept = [k.accept]
    suffixes, stride = [(0, k.accept[0])], 1  # the kept S_m as (lex index, weights), and n^m
    top, lam_m = k.accept  # u_m and Λ^m
    v0, den = k.start
    layer = {v0: 0}
    offset, width = 0, 1  # rank of the first word of a length, and their number
    for length in range(max_len + 1):
        if length == 1 or length > h + 1:  # m = max(length - h, 1) went up by one
            suffixes, last = [], suffixes
            lam_m *= lam
            limit = bar_num * den * lam_m
            for i, back in enumerate(backs):
                if length == max_len and bar_num >= 0:  # no block beats M_a·u_{m-1}
                    c = back(top)
                    if all(sum(map(mul, v, c)) * bar_den <= limit for v in layer):
                        continue
                for j, after in last:
                    w = back(after)
                    if not _dominated((w, lam_m), kept):
                        kept.append((w, lam_m))
                        suffixes.append((i * stride + j, w))
            stride *= n
            if not suffixes:  # nor is any longer one: nothing is left to yield
                return
            # a list, not tuple(<iterator>): CPython allocates such a tuple at
            # a guessed size and resizes it, so each one freed adds to the
            # free list of its final size (up to 2,000 a size): peak RSS creeps
            top = [max(col) for col in zip(*[w for _, w in suffixes])]
        scale = den * lam_m
        limit = bar_num * scale
        for v, index in layer.items():
            if sum(map(mul, v, top)) * bar_den <= limit:
                continue
            rank = offset + index * stride
            for j, w in suffixes:
                num = sum(map(mul, v, w))
                if num * bar_den > limit:
                    sent = yield rank + j, num, scale
                    if sent is not None:
                        bar_num, bar_den = sent
                        limit = bar_num * scale
        if 0 < length <= h:
            nxt = {}
            for v, index in layer.items():
                index *= n
                for j, forward in enumerate(forwards):
                    nxt.setdefault(forward(v), index + j)
            layer, den = nxt, den * lam
            if den.bit_length() > LAYER_DEN_BITS:
                layer, den = _reduced(layer, den, k)
        offset, width = offset + width, width * n


def _reduced(layer: dict, den: int, k: Kernel) -> tuple[dict, int]:
    """`layer` over `den` divided by the common factor of `den` and every
    numerator, whose primes all divide the base of `k`: the rounds of
    `core._lowest`, each linear in the size of the numbers. Equal
    divisors keep distinct tuples distinct, and their order."""
    flat, den = _lowest(k._big, k._below, tuple(chain.from_iterable(layer)), den)
    numerators, n = iter(flat), len(k.names)
    return {tuple(islice(numerators, n)): index for index in layer.values()}, den


def _word_at(alphabet: Sequence[str], rank: int) -> Word:
    """The word of shortlex rank `rank` over `alphabet`."""
    n, length, width = len(alphabet), 0, 1
    while rank >= width:
        rank, length, width = rank - width, length + 1, width * n
    return tuple(alphabet[rank // n ** e % n] for e in reversed(range(length)))


def _send(scan: Generator, bar: tuple[int, int]) -> tuple[int, int, int] | None:
    """The scan's next word above `bar`, or None once it is exhausted."""
    try:
        return scan.send(bar)
    except StopIteration:
        return None


def bounded_value_search(
    b: Value1Instance,
    max_len: int,
    *,
    budget: int = DEFAULT_BUDGET,
) -> SearchResult:
    """The best acceptance probability of any word up to `max_len`.

    The scan runs in shortlex order and each best so far is sent to it as
    its bar, so it yields only strictly greater probabilities: the best
    word is the shortest, then the first in the declared alphabet order,
    of the highest probability.
    """
    total = _check_space(b.pa, max_len, budget)
    scan = _shortlex_scan(b.pa, max_len)
    best = next(scan)
    while (better := _send(scan, best[1:])) is not None:
        best = better
    rank, num, den = best
    return SearchResult(_word_at(b.pa.alphabet, rank), Fraction(num, den), total,
                        exhausted=True)


def witness_schedule_search(
    b: Value1Instance,
    k: int,
    max_len: int,
    *,
    budget: int = DEFAULT_BUDGET,
) -> ScheduleSearchResult:
    """Find words u_1..u_k with P(u_i) > 1 - 2^-i, each within `max_len`.

    One shortlex scan serves every rung. It starts with rung 1's bar,
    1/2, and yields the first word above it. A word found for rung i is
    re-checked against rung i+1; when it does not beat it, that rung's bar
    `(2^(i+1) - 1, 2^(i+1))` is sent to the scan, which goes on to the
    next word above it. Every rung's satisfiers are a subset of the
    previous rung's, so the resumed scan returns exactly the word a fresh
    scan would. A word of probability 1 beats every rung, so it fills
    all the rungs left at once. `k` above `budget` is refused, like a
    sweep of more words than the budget, and `k` above `MAX_RUNGS` is an
    input error whatever the budget.
    """
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    if k > MAX_RUNGS:
        raise InputError(f"k must be <= {MAX_RUNGS}, got {k}")
    total = _check_space(b.pa, max_len, budget)
    if k > budget:
        raise BudgetExceededError(f"k of {k} exceeds the budget of {budget}")
    scan = _shortlex_scan(b.pa, max_len, (1, 2))
    found: list[Word] = []
    hit = next(scan, None)
    for i in range(1, k + 1):
        if hit is not None and not _beats_rung(hit[1], hit[2], i):
            hit = _send(scan, ((1 << i) - 1, 1 << i))
        if hit is None:
            return ScheduleSearchResult(tuple(found), False, i, total)
        found.append(_word_at(b.pa.alphabet, hit[0]))
        if hit[1] == hit[2]:  # probability 1
            found += found[-1:] * (k - i)
            break
    return ScheduleSearchResult(tuple(found), True, None, hit[0] + 1)


def certificate_check(c: TwinPa, schedule: Sequence[Sequence[str]]) -> Certificate:
    """Simulate the interleaved witness word once and compare every
    checkpoint norm against its ladder rung, strictly."""
    words = [tuple(w) for w in schedule]
    combined, checkpoints = build_witness_prefix(c, words)
    k = Kernel.of(c.pa)
    at = set(checkpoints)
    norms = tuple(k.norm(pair) for pos, pair in enumerate(k.walk(combined)) if pos in at)
    thresholds = tuple(ONE - Fraction(1, 2 ** i) for i in range(1, len(words) + 1))
    ok = all(n > t for n, t in zip(norms, thresholds))
    return Certificate(tuple(words), checkpoints, norms, thresholds, ok)


def dollar_absorption_check(c: TwinPa, prefix: Sequence[str], horizon: int) -> CheckResult:
    """After a commit letter with no later reset, mass is stuck in the sinks.

    Let j be the position of the first commit letter that has no reset
    letter after it inside `prefix` (an input error if there is none).
    The step right after it may still hold mass on the success sink, so
    there the check is: support inside {success sink, failure pair} and
    equal mass on the two failure-pair members. From the following step
    on, the distribution is exactly 1/2 + 1/2 on the failure pair, and
    any non-reset letter preserves that. The checker verifies the steps
    remaining in `prefix`, then every non-reset letter from the reached
    distribution and, one step later, from the failure pair. Each later
    step would repeat that second sweep exactly, so by induction the work
    is O(|alphabet|) steps for any `horizon`.

    Checked steps are j+1 .. j+1+horizon.
    """
    w = c.pa.check_word(prefix)
    if horizon < 0:
        raise InputError(f"horizon must be >= 0, got {horizon}")
    last_reset = max((i for i, s in enumerate(w) if s == c.hash), default=-1)
    j = next((i for i in range(last_reset + 1, len(w)) if w[i] == c.dollar), None)
    if j is None:
        raise InputError("prefix needs a commit letter with no reset letter after it")

    qn, qn_hat, qf = c.q_n, c.q_n_hat, c.q_f
    k = Kernel.of(c.pa)
    # 1/2 on each failure-pair member, in lowest terms. The second sweep
    # steps from it only once the first sweep's pairs all equalled it, so
    # then 2 divides the base, as a pair that `Kernel.walk` starts from
    # must have its primes there to end in lowest terms.
    sink_pair = tuple(int(q in (qn, qn_hat)) for q in k.names), 2
    run = list(k.walk(w))

    d = k.dist(run[j + 1])
    if not d.support() <= {qf, qn, qn_hat}:
        stray = sorted(d.support() - {qf, qn, qn_hat})
        return CheckResult(False, f"step {j + 1}: mass outside the sinks, on {stray}")
    if d.mass(qn) != d.mass(qn_hat):
        return CheckResult(
            False,
            f"step {j + 1}: failure pair unbalanced ({d.mass(qn)} vs {d.mass(qn_hat)})")

    end = j + 1 + horizon
    for position in range(j + 2, min(end, len(w)) + 1):
        if run[position] != sink_pair:
            return CheckResult(
                False,
                f"step {position}: expected the half/half failure pair, "
                f"got {k.dist(run[position])}")
    for position, start in ((len(w) + 1, run[len(w)]), (len(w) + 2, sink_pair)):
        if position > end:
            break
        for a in c.lifted_alphabet:
            *_, got = k.walk((a,), start)
            if got != sink_pair:
                return CheckResult(
                    False,
                    f"step {position} via {a!r}: expected the half/half "
                    f"failure pair, got {k.dist(got)}")
    return CheckResult(True)


def half_bound_check(c: TwinPa, w: Sequence[str]) -> CheckResult:
    """Without the commit letter, no step ever concentrates beyond 1/2.

    The walk stops at the first step past 1/2, compared in integers."""
    word = c.pa.check_word(w, {c.dollar: "commit"})
    k = Kernel.of(c.pa)
    for i, pair in enumerate(k.walk(word)):
        v, den = pair
        if v and 2 * max(v) > den:
            return CheckResult(False, f"step {i}: norm {k.norm(pair)} exceeds 1/2")
    return CheckResult(True)


def matrix_oracle(pa: Pa, word: Sequence[str]) -> list[Dist]:
    """Reference simulation by row-vector times per-letter matrix products.

    Kept deliberately independent of `semantics.Kernel`: indexed dense
    matrices, explicit multiplication loops. Exact agreement with
    `semantics.outcome` is an acceptance requirement of the package.
    """
    w = pa.check_word(word)
    n = len(pa.states)
    index = {q: i for i, q in enumerate(pa.states)}
    matrices: dict[str, list[list[Fraction]]] = {}
    for a in pa.alphabet:
        m = [[ZERO] * n for _ in range(n)]
        for q in pa.states:
            row = pa.delta.get((q, a))
            if row is None:
                raise InputError(f"delta incomplete at ({q},{a})")
            for target, p in row.items():
                m[index[q]][index[target]] = p
        matrices[a] = m
    vec = [pa.initial.mass(q) for q in pa.states]
    out = [Dist(dict(zip(pa.states, vec)))]
    for a in w:
        m = matrices[a]
        vec = [
            sum((vec[r] * m[r][col] for r in range(n)), ZERO)
            for col in range(n)
        ]
        out.append(Dist(dict(zip(pa.states, vec))))
    return out
