"""Convert CPU time into reference milliseconds with calibration chunks.

On a shared machine, speed drifts with the neighbours' load (shared
cores, caches, frequency): on a 2-core x86-64 VM it was seen to change
by up to 4x between runs a minute apart. Two measures keep the numbers
steady:

* time is the process's CPU time, which leaves out the time the process
  waits for a core;
* every timed piece of work sits between two runs of a fixed
  calibration chunk, timed the same way. The work's CPU time divided by
  the mean of the two chunks, times ``REF_MS``, is its time on a machine
  where one chunk takes ``REF_MS`` milliseconds.

Contention slows interpreter-bound code and big-integer arithmetic by
different factors, so each workload is calibrated with the chunk closest
to its own work. The chunks are plain Python and ``fractions``, never
the package, so a change to the package cannot move them. Each takes
about ``REF_MS`` of CPU on that VM with Python 3.11. They must never
change: doing so would change every reported time.

So a figure reported in ms is milliseconds at that reference speed, not
raw wall time. Raw wall times are kept in the stored results next to it.
"""
from __future__ import annotations

import argparse
import functools
import random
import time
from fractions import Fraction

REF_MS = 2.5
_N = 6

cpu_ns = time.process_time_ns


def _composition(rng: random.Random, den: int) -> list[Fraction]:
    cuts = sorted(rng.randint(0, den) for _ in range(_N - 1))
    bounds = [0, *cuts, den]
    return [Fraction(bounds[i + 1] - bounds[i], den) for i in range(_N)]


def _step(v: list[Fraction], matrix) -> list[Fraction]:
    return [sum((v[r] * matrix[r][c] for r in range(_N)), Fraction(0)) for c in range(_N)]


_rng = random.Random(20121)
_LETTERS = [[_composition(_rng, _rng.randint(2, 8)) for _ in range(_N)] for _ in range(3)]
_ROWS = [[Fraction((r * 7 + c * 3) % 5 + 1) for c in range(_N)] for r in range(_N)]
_CHAIN = [[x / sum(row) for x in row] for row in _ROWS]
_TEXT = "\n".join(
    f"row: q{i} {a} " + " ".join(f"q{j} {j + 1}/{i + 9}" for j in range(5))
    for i in range(12) for a in "abc")


@functools.cache
def _grown() -> tuple[Fraction, ...]:
    """A distribution after 120 letters, with ~600-bit denominators."""
    v = [Fraction(1, _N)] * _N
    for i in range(120):
        v = _step(v, _LETTERS[i % 3])
    return tuple(v)


def rational() -> None:
    """Small-denominator stepping: twelve steps of a fixed chain."""
    v = [Fraction(1, _N)] * _N
    for _ in range(12):
        v = _step(v, _CHAIN)


def bigint() -> None:
    """Big-integer stepping: nine more letters from a grown distribution."""
    v = list(_grown())
    for i in range(9):
        v = _step(v, _LETTERS[i % 3])


def text() -> None:
    """Argument parsing, text parsing into fractions, and a few small steps."""
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command")
    for name in ("x", "y", "z", "w"):
        p = sub.add_parser(name)
        p.add_argument("file")
        p.add_argument("--k", type=int)
    parser.parse_args(["y", "file", "--k", "3"])
    rows = {}
    for line in _TEXT.splitlines():
        tokens = line.partition(":")[2].split()
        rows[tokens[0], tokens[1]] = {q: Fraction(p) for q, p in zip(tokens[2::2], tokens[3::2])}
    v = [Fraction(1, _N)] * _N
    for i in range(4):
        v = _step(v, _LETTERS[i % 3])


CHUNKS = {"rational": rational, "bigint": bigint, "text": text}


def chunk_ns(chunk) -> int:
    start = cpu_ns()
    chunk()
    return cpu_ns() - start


def to_ref_ms(work_ns: int, chunk_ns_mean: float) -> float:
    return work_ns / chunk_ns_mean * REF_MS
