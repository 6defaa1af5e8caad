"""Desk-scale search and certification over constructed automata.

Everything here is a finite probe: exhaustive sweeps up to a length
bound, fixed-horizon absorption checks, checkpoint certificates. None of
it decides anything about the full infinite-word behaviour, and failures
of the searches mean "not found within the bound", nothing stronger.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .core import (
    CheckResult,
    Dist,
    HALF,
    InputError,
    ONE,
    Pa,
    PaError,
    Word,
    ZERO,
)
from .reduction import TwinPa, Value1Instance, build_witness_prefix
from .semantics import norm_trace, outcome, step

DEFAULT_BUDGET = 1 << 20


class BudgetExceededError(PaError):
    """An exhaustive sweep would evaluate more words than the budget allows."""


@dataclass(frozen=True)
class SearchResult:
    """Best word found by an exhaustive bounded sweep.

    Among words attaining `best_prob`, `best_word` is the shortest one,
    ties broken by the declared alphabet order. `exhausted` records that
    the whole word space up to the bound was covered.
    """

    best_word: Word
    best_prob: Fraction
    explored: int
    exhausted: bool


@dataclass(frozen=True)
class ScheduleSearchResult:
    """Outcome of a threshold-ladder search; `failed_at` is the first rung
    (1-based) with no sufficient word within the length bound."""

    words: tuple[Word, ...]
    ok: bool
    failed_at: int | None
    explored: int


@dataclass(frozen=True)
class Certificate:
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
    """Number of words up to `max_len`, refused past `budget`."""
    if max_len < 0:
        raise InputError(f"max_len must be >= 0, got {max_len}")
    total = _word_count(len(pa.alphabet), max_len)
    if total > budget:
        raise BudgetExceededError(
            f"sweep of {total} words exceeds the budget of {budget}")
    return total


def _accept_mass(pa: Pa, d: Dist) -> Fraction:
    return sum((d.mass(q) for q in pa.accepting), ZERO)


def _preorder_probs(pa: Pa, max_len: int) -> Iterator[tuple[Fraction, Word]]:
    """Yield (acceptance probability, word) in lexicographic preorder.

    Depth first, so the stack holds at most |alphabet| entries per level.
    """
    stack: list[tuple[Word, Dist]] = [((), pa.initial)]
    while stack:
        word, dist = stack.pop()
        yield _accept_mass(pa, dist), word
        if len(word) < max_len:
            for a in reversed(pa.alphabet):
                stack.append((word + (a,), step(pa, dist, a)))


def bounded_value_search(
    b: Value1Instance,
    max_len: int,
    *,
    budget: int = DEFAULT_BUDGET,
) -> SearchResult:
    """Evaluate the acceptance probability of every word up to `max_len`.

    The best word has the highest probability, then the shortest length;
    `max` keeps the first of equal keys, and the preorder scan reaches
    equal-length words in the declared alphabet order.
    """
    total = _check_space(b.pa, max_len, budget)
    best_prob, best_word = max(
        _preorder_probs(b.pa, max_len), key=lambda pw: (pw[0], -len(pw[1])))
    return SearchResult(best_word, best_prob, total, exhausted=True)


def _shortlex_probs(pa: Pa, max_len: int) -> Iterator[tuple[Word, Fraction]]:
    """Yield (word, acceptance probability) in shortest-then-lex order.

    Words of length `max_len` are yielded but never stored, so the
    largest layer kept is the one of length `max_len - 1`.
    """
    yield (), _accept_mass(pa, pa.initial)
    layer: list[tuple[Word, Dist]] = [((), pa.initial)]
    for length in range(1, max_len + 1):
        nxt: list[tuple[Word, Dist]] = []
        for word, dist in layer:
            for a in pa.alphabet:
                extended, reached = word + (a,), step(pa, dist, a)
                if length < max_len:
                    nxt.append((extended, reached))
                yield extended, _accept_mass(pa, reached)
        layer = nxt


def witness_schedule_search(
    b: Value1Instance,
    k: int,
    max_len: int,
    *,
    budget: int = DEFAULT_BUDGET,
) -> ScheduleSearchResult:
    """Find words u_1..u_k with P(u_i) > 1 - 2^-i, each within `max_len`.

    Scans words in shortest-then-lex order and resumes the scan across
    rungs: a word already found for rung i is re-checked against rung i+1
    before the scan continues. Because every rung's satisfiers are a
    subset of the previous rung's, the resumed scan returns exactly the
    word a fresh scan would.
    """
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    _check_space(b.pa, max_len, budget)
    gen = _shortlex_probs(b.pa, max_len)
    explored = 0
    found: list[Word] = []
    current: tuple[Fraction, Word] | None = None
    for i in range(1, k + 1):
        threshold = ONE - Fraction(1, 2 ** i)
        if current is not None and current[0] > threshold:
            found.append(current[1])
            continue
        hit: tuple[Fraction, Word] | None = None
        for word, p in gen:
            explored += 1
            if p > threshold:
                hit = (p, word)
                break
        if hit is None:
            return ScheduleSearchResult(tuple(found), False, i, explored)
        current = hit
        found.append(hit[1])
    return ScheduleSearchResult(tuple(found), True, None, explored)


def certificate_check(c: TwinPa, schedule: Sequence[Sequence[str]]) -> Certificate:
    """Simulate the interleaved witness word once and compare every
    checkpoint norm against its ladder rung, strictly."""
    words = [tuple(w) for w in schedule]
    combined, checkpoints = build_witness_prefix(c, words)
    dists = outcome(c.pa, combined)
    norms = tuple(dists[pos].norm() for pos in checkpoints)
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
    sink_pair = Dist({qn: HALF, qn_hat: HALF})
    dists = outcome(c.pa, w)

    d = dists[j + 1]
    if not d.support() <= {qf, qn, qn_hat}:
        stray = sorted(d.support() - {qf, qn, qn_hat})
        return CheckResult(False, f"step {j + 1}: mass outside the sinks, on {stray}")
    if d.mass(qn) != d.mass(qn_hat):
        return CheckResult(
            False,
            f"step {j + 1}: failure pair unbalanced ({d.mass(qn)} vs {d.mass(qn_hat)})")

    end = j + 1 + horizon
    for position in range(j + 2, min(end, len(w)) + 1):
        if dists[position] != sink_pair:
            return CheckResult(
                False,
                f"step {position}: expected the half/half failure pair, "
                f"got {dists[position]}")
    for position, start in ((len(w) + 1, dists[len(w)]), (len(w) + 2, sink_pair)):
        if position > end:
            break
        for a in c.lifted_alphabet:
            got = step(c.pa, start, a)
            if got != sink_pair:
                return CheckResult(
                    False,
                    f"step {position} via {a!r}: expected the half/half "
                    f"failure pair, got {got}")
    return CheckResult(True)


def half_bound_check(c: TwinPa, w: Sequence[str]) -> CheckResult:
    """Without the commit letter, no step ever concentrates beyond 1/2."""
    word = tuple(w)
    for i, a in enumerate(word):
        if a == c.dollar:
            raise InputError(f"commit letter {a!r} at position {i} not allowed here")
        if a not in c.pa.letter_set:
            raise InputError(f"unknown letter {a!r} at position {i}")
    trace = norm_trace(c.pa, word)
    for entry in trace.entries:
        if entry.norm > HALF:
            return CheckResult(
                False, f"step {entry.step}: norm {entry.norm} exceeds 1/2")
    return CheckResult(True)


def matrix_oracle(pa: Pa, word: Sequence[str]) -> list[Dist]:
    """Reference simulation by row-vector times per-letter matrix products.

    Kept deliberately independent of `semantics.step`: indexed dense
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
