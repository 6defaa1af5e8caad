"""The two gadget constructions and their exact checkers.

`lift` wraps an acceptance instance with two fresh sink states and a fresh
*commit* letter: on the commit letter every accepting state routes all its
mass to the success sink `q_f`, every other original state routes to the
failure sink `q_n`, and both sinks fall through to `q_n` on every letter
afterwards. Acceptance of the lifted automaton therefore happens exactly
on words of the form `v·commit`, with the same probability the source
instance gave `v`.

`twin` duplicates every state of a lifted automaton except the success
sink into a paired shadow ("hat") state, splits transition mass evenly
between the two members of each target pair, and adds a fresh *reset*
letter that sends every state to the initial pair with mass 1/2 + 1/2.
Two exact consequences are checkable in finite runs:

* reset replay (`check_p1`): after any prefix followed by one reset
  letter, the run of the remainder replays the from-scratch run exactly;
* pair halving (`check_p2`): on words without commit or reset letters,
  each original state and its hat both carry exactly half of the
  corresponding mass in the lifted automaton, and the success sink
  carries none.

Fresh names use the reserved prefixes "@lift:", "@twin:" and "@sym:"; a
numeric suffix is appended if an input automaton already uses the name.
"""
from __future__ import annotations

from fractions import Fraction
from functools import partial
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .core import (
    CheckResult,
    Dist,
    HALF,
    InputError,
    Pa,
    Word,
    _fill,
    _frozen,
    _half,
)
from .semantics import Kernel


def _fresh(base: str, taken: set[str] | frozenset[str]) -> str:
    if base not in taken:
        return base
    n = 2
    while f"{base}{n}" in taken:
        n += 1
    return f"{base}{n}"


class Value1Instance:
    """An acceptance-probability instance: one start state, nonempty accepting set.

    `require_dirac=False` relaxes the single-start-state requirement and
    accepts any initial distribution; `lift` works unchanged on such
    instances, but the resulting automaton cannot be twinned (the reset
    letter needs a designated start pair).

    Instances are immutable, like `Pa`: the searches rely on `pa` being
    the automaton that was validated here.
    """

    __slots__ = ("pa", "q0")

    def __init__(self, pa: Pa, *, require_dirac: bool = True):
        pa.require_valid()
        if not pa.accepting:
            raise InputError("instance needs a nonempty accepting set")
        supp = pa.initial.support()
        if len(supp) == 1:
            q0: str | None = next(iter(supp))
        elif require_dirac:
            raise InputError(
                "initial distribution must be concentrated on a single state "
                "(pass require_dirac=False to relax)")
        else:
            q0 = None
        _fill(self, pa, q0)

    __setattr__ = __delattr__ = _frozen

    def __reduce__(self):
        # rebuilt, and so re-validated, from its automaton
        return partial(Value1Instance, require_dirac=self.q0 is not None), (self.pa,)

    def __repr__(self):
        return f"Value1Instance({self.pa!r}, q0={self.q0!r})"


class _Roles:
    """Immutable and unhashable like `Pa`; `==`, repr and pickling go by the `__slots__`."""

    __slots__ = ()
    __setattr__ = __delattr__ = _frozen
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # a read-only map does not pickle; it is rebuilt from a plain copy
        return type(self), tuple(dict(v) if isinstance(v, MappingProxyType) else v
                                 for v in self._values())


class LiftedPa(_Roles):
    """A lifted automaton plus the roles the construction assigned.

    `source_states` is a frozen copy of the set it was built from.
    """

    __slots__ = ("pa", "q_f", "q_n", "dollar", "source_states")

    def __init__(self, pa: Pa, q_f: str, q_n: str, dollar: str, source_states: Iterable[str]):
        _fill(self, pa, q_f, q_n, dollar, frozenset(source_states))
        # structural reference checks only; row-level invariants are
        # verified by `twin` so that corrupted fixtures stay constructible
        if self.q_f not in self.pa.state_set:
            raise InputError(f"success sink {self.q_f!r} is not a state")
        if self.q_n not in self.pa.state_set:
            raise InputError(f"failure sink {self.q_n!r} is not a state")
        if self.q_f == self.q_n:
            raise InputError("success and failure sinks must differ")
        if self.dollar not in self.pa.letter_set:
            raise InputError(f"commit letter {self.dollar!r} is not in the alphabet")
        if not self.source_states <= self.pa.state_set:
            raise InputError("source states must be states of the automaton")
        if self.q_f in self.source_states or self.q_n in self.source_states:
            raise InputError("sinks cannot be source states")

    @property
    def source_alphabet(self) -> tuple[str, ...]:
        """The alphabet of the source instance (everything but the commit letter)."""
        return tuple(a for a in self.pa.alphabet if a != self.dollar)


class TwinPa(_Roles):
    """A twinned automaton plus its role map.

    `twin_of` maps every non-sink-success state of the lifted automaton to
    its hat; the success sink `q_f` deliberately has no hat. The commit
    letter and failure sink of the underlying lifted automaton are carried
    along because the absorption and half-bound checkers need them.
    `twin_of` is a read-only copy of the map it was built from.
    """

    __slots__ = ("pa", "twin_of", "hash", "q0", "q0_hat", "q_f", "q_n", "dollar")

    def __init__(self, pa: Pa, twin_of: Mapping[str, str], hash: str, q0: str, q0_hat: str,
                 q_f: str, q_n: str, dollar: str):
        _fill(self, pa, MappingProxyType(dict(twin_of)), hash, q0, q0_hat, q_f, q_n, dollar)
        originals = set(self.twin_of)
        hats = set(self.twin_of.values())
        if len(hats) != len(originals):
            raise InputError("twin map must be a bijection")
        if originals & hats:
            raise InputError("a state cannot be both an original and a hat")
        if originals | hats | {self.q_f} != set(self.pa.state_set):
            raise InputError("twin map must cover every state except the success sink")
        if self.q_f in originals or self.q_f in hats:
            raise InputError("the success sink has no twin")
        for name, role in ((self.q0, "start"), (self.q_n, "failure sink")):
            if name not in originals:
                raise InputError(f"{role} state {name!r} missing from the twin map")
        if self.twin_of[self.q0] != self.q0_hat:
            raise InputError("q0_hat must be the hat of q0")
        for letter, role in ((self.hash, "reset"), (self.dollar, "commit")):
            if letter not in self.pa.letter_set:
                raise InputError(f"{role} letter {letter!r} is not in the alphabet")
        if self.hash == self.dollar:
            raise InputError("reset and commit letters must differ")

    @property
    def q_n_hat(self) -> str:
        return self.twin_of[self.q_n]

    @property
    def lifted_alphabet(self) -> tuple[str, ...]:
        """The alphabet of the lifted automaton (everything but the reset letter)."""
        return tuple(a for a in self.pa.alphabet if a != self.hash)


def lift(b: Value1Instance) -> LiftedPa:
    """Adjoin the success/failure sinks and the commit letter to an instance.

    All original transitions are preserved verbatim. The result accepts
    `v·commit` with the probability the instance accepted `v`, and accepts
    nothing else.
    """
    pa = b.pa
    taken = set(pa.states)
    q_f = _fresh("@lift:qf", taken)
    taken.add(q_f)
    q_n = _fresh("@lift:qn", taken)
    dollar = _fresh("@sym:$", set(pa.alphabet))

    states = pa.states + (q_f, q_n)
    alphabet = pa.alphabet + (dollar,)
    delta = dict(pa.delta)
    for q in pa.states:
        target = q_f if q in pa.accepting else q_n
        delta[(q, dollar)] = Dist.dirac(target)
    sink = Dist.dirac(q_n)
    for q in (q_f, q_n):
        for a in alphabet:
            delta[(q, a)] = sink
    lifted = Pa(states, alphabet, pa.initial, delta, accepting=(q_f,))
    return LiftedPa(lifted, q_f, q_n, dollar, frozenset(pa.states))


def _require_lifted(a: LiftedPa) -> None:
    """Reject inputs that do not satisfy the lifted-automaton invariants."""
    pa = a.pa
    pa.require_valid()
    if pa.accepting != {a.q_f}:
        raise InputError("accepting set must be exactly the success sink")
    if set(pa.states) != set(a.source_states) | {a.q_f, a.q_n}:
        raise InputError("states must be the source states plus the two sinks")
    for q in a.source_states:
        supp = pa.post(q, a.dollar)
        if supp != {a.q_f} and supp != {a.q_n}:
            raise InputError(
                f"commit row of {q!r} must be concentrated on one sink, got {sorted(supp)}")
    sink = Dist.dirac(a.q_n)
    for q in (a.q_f, a.q_n):
        for sigma in pa.alphabet:
            if pa.delta[(q, sigma)] != sink:
                raise InputError(f"sink row ({q},{sigma}) must go to the failure sink")


def twin(a: LiftedPa) -> TwinPa:
    """Duplicate every state except the success sink and add the reset letter.

    Transition mass between non-sink-success states is split evenly over
    each target pair; mass into the success sink is kept whole; the reset
    letter sends every state to the start pair with mass 1/2 each. Every
    row of the result is exactly stochastic.
    """
    _require_lifted(a)
    pa = a.pa
    supp = pa.initial.support()
    if len(supp) != 1:  # validated: one state of the support holds mass 1
        raise InputError("twinning needs an initial distribution concentrated on one state")
    q0 = next(iter(supp))
    if q0 == a.q_f:
        raise InputError("the start state cannot be the success sink")

    taken = set(pa.states)
    hat: dict[str, str] = {}
    for q in pa.states:
        if q == a.q_f:
            continue
        h = _fresh("@twin:" + q, taken)
        taken.add(h)
        hat[q] = h
    hash_letter = _fresh("@sym:#", set(pa.alphabet))

    states = pa.states + tuple(hat[q] for q in pa.states if q != a.q_f)
    alphabet = pa.alphabet + (hash_letter,)
    # every value below is p/2 or p for a mass p of a validated row, and
    # every target a distinct state name, so the rows are built trusted
    reset = Dist._trusted({q0: HALF, hat[q0]: HALF})

    delta: dict[tuple[str, str], Dist] = {}
    built: dict[int, Dist] = {}  # id(lifted row) -> its twinned row, each built once
    for sigma in pa.alphabet:
        for q1 in pa.states:
            source = pa.delta[(q1, sigma)]
            row = built.get(id(source))
            if row is None:
                acc: dict[str, Fraction] = {}
                for q2, p in source.nonzero():  # only q_f has no hat
                    if q2 in hat:
                        acc[q2] = acc[hat[q2]] = _half(p)
                    else:
                        acc[q2] = p
                row = built[id(source)] = Dist._trusted(acc)
            delta[(q1, sigma)] = row
            if q1 in hat:
                delta[(hat[q1], sigma)] = row
    for q in states:
        delta[(q, hash_letter)] = reset

    twinned = Pa(states, alphabet, reset, delta, accepting=(a.q_f,))
    return TwinPa(
        pa=twinned,
        twin_of=hat,
        hash=hash_letter,
        q0=q0,
        q0_hat=hat[q0],
        q_f=a.q_f,
        q_n=a.q_n,
        dollar=a.dollar,
    )


def check_p1(c: TwinPa, v1: Sequence[str], v2: Sequence[str]) -> CheckResult:
    """Reset replay: the run after `v1·reset` equals the run of `v2` from scratch.

    Compares every state's mass at every step 0..|v2|, exactly. Reports
    the first violating (step, state) pair. Both runs are walked in full
    on the automaton's kernel and compared as integer pairs, which come
    from one kernel in lowest terms and so are equal exactly when the
    masses are; `Dist`s are built only to word a failure.
    """
    w1 = c.pa.check_word(v1)
    w2 = c.pa.check_word(v2)
    k = Kernel.of(c.pa)
    full = list(k.walk(w1 + (c.hash,) + w2))
    fresh_run = list(k.walk(w2))
    offset = len(w1) + 1
    for i, pair in enumerate(fresh_run):
        if full[offset + i] == pair:
            continue
        # the pairs may differ only on names outside the states
        lhs, rhs = k.dist(full[offset + i]), k.dist(pair)
        for q in c.pa.states:
            if lhs.mass(q) != rhs.mass(q):
                return CheckResult(False, f"step {i}, state {q}: {lhs.mass(q)} != {rhs.mass(q)}")
    return CheckResult(True)


def _require_twin_of(a: LiftedPa, c: TwinPa) -> None:
    if c.q_f != a.q_f or c.q_n != a.q_n or c.dollar != a.dollar:
        raise InputError("role mismatch: the twin does not belong to this lifted automaton")
    if set(c.twin_of) != set(a.pa.states) - {a.q_f}:
        raise InputError("twin map does not cover the lifted automaton's states")
    if set(c.pa.alphabet) != set(a.pa.alphabet) | {c.hash}:
        raise InputError("alphabet mismatch between lifted automaton and twin")


def check_p2(a: LiftedPa, c: TwinPa, w: Sequence[str]) -> CheckResult:
    """Pair halving on commit-free, reset-free words.

    At every step 0..|w|: each original state and its hat both carry
    exactly half of the lifted automaton's mass on that state, and the
    success sink carries zero in both automata. Exact equality, checked
    on the two kernels' integer pairs: with the lifted pair `(va, Da)`
    and the twinned pair `(vc, Dc)`, state `q` at index `i` and its
    copies at `j` pass when `2·Da·vc[j] == va[i]·Dc`. Both runs are
    walked in full first, and `Fraction`s are built only to word a failure.
    """
    # commit last: a letter that plays both roles is reported as the commit letter
    word = a.pa.check_word(w, {c.hash: "reset", a.dollar: "commit"})
    _require_twin_of(a, c)
    run_a = list(Kernel.of(a.pa).walk(word))
    run_c = list(Kernel.of(c.pa).walk(word))
    # a kernel lists its automaton's states first, in declared order
    at = {q: j for j, q in enumerate(c.pa.states)}
    sink_a, sink_c = a.pa.states.index(a.q_f), at[a.q_f]
    pairs = [(q, i, at[q], at[c.twin_of[q]]) for i, q in enumerate(a.pa.states) if q != a.q_f]
    for step, ((va, da), (vc, dc)) in enumerate(zip(run_a, run_c)):
        if va[sink_a] or vc[sink_c]:
            return CheckResult(
                False,
                f"step {step}: success sink carries mass "
                f"({Fraction(va[sink_a], da)} lifted, {Fraction(vc[sink_c], dc)} twinned)")
        for q, i, j, j_hat in pairs:
            want = va[i] * dc
            if 2 * da * vc[j] != want or 2 * da * vc[j_hat] != want:
                return CheckResult(
                    False,
                    f"step {step}, state {q}: twin pair carries "
                    f"({Fraction(vc[j], dc)}, {Fraction(vc[j_hat], dc)}), "
                    f"expected {Fraction(va[i], 2 * da)} each")
    return CheckResult(True)


def build_witness_prefix(
    c: TwinPa, schedule: Sequence[Sequence[str]],
) -> tuple[Word, tuple[int, ...]]:
    """Interleave schedule words with single reset letters, no trailing reset.

    Returns the combined word and the checkpoint positions: checkpoint i
    is the outcome index reached right after schedule word i+1, which
    equals i + sum of the first i+1 word lengths.
    """
    words = [tuple(w) for w in schedule]
    if not words:
        raise InputError("schedule must be nonempty")
    for k, word in enumerate(words, start=1):
        if not word:
            raise InputError(f"schedule word {k} is empty")
        try:
            c.pa.check_word(word, {c.hash: "reset"})
        except InputError as exc:
            raise InputError(f"schedule word {k}: {exc}") from None
    combined: list[str] = []
    checkpoints: list[int] = []
    for k, word in enumerate(words):
        if k:
            combined.append(c.hash)
        combined.extend(word)
        checkpoints.append(len(combined))
    return tuple(combined), tuple(checkpoints)
