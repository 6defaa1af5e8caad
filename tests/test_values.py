"""The immutable values the package returns: results, traces and gadget roles.

Each class is pinned by what a caller can see: copies compare equal, the
repr names every field, fields cannot be set or deleted, and equal values
hash alike, except the gadget roles, which hold an unhashable `Pa`. A
result equals the plain tuple of its fields; a gadget role does not. A
result with an `ok` verdict is true exactly when it holds.
"""
import copy
import os
import pickle
import subprocess
import sys

import pytest

from pasynch import (
    Pa,
    b_half,
    b_one,
    bounded_value_search,
    certificate_check,
    check_p1,
    core,
    lift,
    norm_trace,
    twin,
    witness_schedule_search,
)


def _instances():
    lifted = lift(b_half())
    c = twin(lifted)
    trace = norm_trace(c.pa, ("a", c.hash))
    broken = Pa(("p",), ("a",), {"p": 1}, {("p", "a"): {"p": "1/2"}})
    return {  # instance, its fields in declared order, hashable
        "ValidationReport": (broken.validate(), ("violations",), True),
        "CheckResult": (check_p1(c, ("a",), ()), ("ok", "reason"), True),
        "TraceEntry": (trace[1], ("step", "letter", "dist", "norm"), True),
        "NormTrace": (trace, ("entries",), True),
        "SearchResult": (bounded_value_search(b_half(), 2),
                         ("best_word", "best_prob", "explored", "exhausted"), True),
        "ScheduleSearchResult": (witness_schedule_search(b_one(), 2, 3),
                                 ("words", "ok", "failed_at", "explored"), True),
        "Certificate": (certificate_check(c, [("a", lifted.dollar)]),
                        ("schedule", "checkpoints", "norms", "thresholds", "ok"), True),
        "LiftedPa": (lifted, ("pa", "q_f", "q_n", "dollar", "source_states"), False),
        "TwinPa": (c, ("pa", "twin_of", "hash", "q0", "q0_hat", "q_f", "q_n", "dollar"), False),
    }


INSTANCES = _instances()


@pytest.mark.parametrize("name", INSTANCES)
def test_value_copies_repr_immutability_and_hash(name):
    value, fields, hashable = INSTANCES[name]
    assert type(value).__name__ == name
    for clone in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        other = clone(value)
        assert other == value and type(other) is type(value)
        assert other != object()
        if hashable:
            assert hash(other) == hash(value)
    # a trace's entries are shown as the plain tuple they hold
    shown = (tuple(getattr(value, f)) if isinstance(getattr(value, f), tuple)
             else getattr(value, f) for f in fields)
    assert repr(value) == f"{name}(" + ", ".join(
        f"{f}={v!r}" for f, v in zip(fields, shown)) + ")"
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(value, f, getattr(value, f))
        with pytest.raises(AttributeError):
            delattr(value, f)
    # a result is its tuple of fields, in equality and hash; a gadget role
    # equals only its own class
    plain = tuple(value) if hashable else tuple(getattr(value, f) for f in fields)
    assert (value == plain) is hashable
    if hashable:
        assert hash(value) == hash(plain)
    else:
        with pytest.raises(TypeError):
            hash(value)


def test_a_schedule_is_true_iff_ok_and_a_search_always_true():
    # like `Certificate`, a schedule's truth is its verdict; a search
    # result carries none, so it is true even at probability 0
    failed = witness_schedule_search(b_half(), 2, 2)
    assert failed.failed_at == 1 and bool(failed) is False
    assert bool(witness_schedule_search(b_one(), 2, 3)) is True
    result = bounded_value_search(b_half(), 0)
    assert result.best_prob == 0 and bool(result) is True


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    src = os.path.dirname(os.path.dirname(core.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import pasynch.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
