"""Run both searches on random instances against a parent commit's `src/`.

    python3 tools/scan_differential.py --parent HEAD --searches 50000

The parent's ``src/`` is extracted from git with ``git archive`` into
``.bench_build/differential/`` and imported as the package
``parent_pasynch``, next to the working tree's ``pasynch``, in this one
process. Each case builds the same automaton on both sides and compares:

- ``bounded_value_search`` and ``witness_schedule_search`` (``k`` 1-6 at
  random), whole results, ``explored`` included: these are the searches
  counted by ``--searches``;
- the words ``_shortlex_scan`` yields above a fixed random bar of at
  least 0, as ``(rank, Fraction(num, den))``: a scan's yields are not in
  lowest terms, so they are compared by value.

Cases are of four kinds. 72% are plain: 1-6 states, 1-3 letters,
``max_len`` 0-7, denominators up to 8, rows either drawn fresh, from a
shared pool of two, or absorbing, the start Dirac or a random
distribution (Dirac in twins). 22% are twins of a random lifted 1-3-state instance, with
``max_len`` 0-5 over their 3-5 letters. 4% are large twins, of 6-7-state
sources at ``max_len`` 0-3: their 15-17 names are past
``semantics.DENSE_MAX_NAMES``, so they step on columns. 2% are chains: a
plain one-letter automaton at ``max_len`` 1,000-3,000, whose search layers
pass ``analysis.LAYER_DEN_BITS`` and are reduced. The exit status is 1 on
any mismatch, printing the first few, else 0. Only the standard library is
used.
"""
from __future__ import annotations

import argparse
import importlib.util
import io
import random
import shutil
import subprocess
import sys
import tarfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pasynch  # noqa: E402  (the working tree's)


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True,
                          timeout=120).stdout


def extract(rev: str, dest: Path, *paths: str) -> None:
    """`paths` of commit `rev` into `dest`, through `git archive`."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev, *paths))) as tar:
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def load_parent(rev: str) -> object:
    """The `src/pasynch` package of commit `rev`, as `parent_pasynch`."""
    dest = ROOT / ".bench_build" / "differential"
    shutil.rmtree(dest, ignore_errors=True)
    extract(rev, dest, "src/pasynch")
    package = dest / "src" / "pasynch"
    spec = importlib.util.spec_from_file_location(
        "parent_pasynch", package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules["parent_pasynch"] = module
    spec.loader.exec_module(module)
    return module


def random_dist(rng: random.Random, states: list[str]) -> dict[str, Fraction]:
    den = rng.randint(1, 8)
    cuts = sorted(rng.randint(0, den) for _ in range(len(states) - 1))
    parts = [b - a for a, b in zip([0, *cuts], [*cuts, den])]
    return {q: Fraction(p, den) for q, p in zip(states, parts) if p}


def random_spec(rng: random.Random, min_states: int, max_states: int, dirac: bool,
                max_letters: int = 3) -> tuple:
    """(states, letters, initial, delta, accepting) of a random automaton."""
    states = [f"q{i}" for i in range(rng.randint(min_states, max_states))]
    letters = "abc"[:rng.randint(1, max_letters)]
    kind = rng.choice(("plain", "pool", "sinks"))
    pool = [random_dist(rng, states) for _ in range(2)]
    sinks = set(rng.sample(states, rng.randint(0, len(states) - 1))) if kind == "sinks" else ()
    delta = {(q, a): {q: 1} if q in sinks else rng.choice(pool) if kind == "pool"
             else random_dist(rng, states) for q in states for a in letters}
    initial = {"q0": 1} if dirac or rng.random() < 0.5 else random_dist(rng, states)
    accepting = rng.sample(states, rng.randint(1, len(states)))
    return states, tuple(letters), initial, delta, accepting


def instance(package, spec: tuple, twinned: bool):
    states, letters, initial, delta, accepting = spec
    pa = package.Pa(tuple(states), letters, initial, delta, accepting=tuple(accepting))
    b = package.Value1Instance(pa, require_dirac=False)
    if twinned:
        b = package.Value1Instance(package.twin(package.lift(b)).pa, require_dirac=False)
    return b


def random_case(rng: random.Random) -> tuple:
    """(kind, spec, max_len) of one random case; see the module docstring."""
    r = rng.random()
    if r < 0.02:
        return "chain", random_spec(rng, 1, 6, False, max_letters=1), rng.randint(1000, 3000)
    if r < 0.06:
        return "large twin", random_spec(rng, 6, 7, True), rng.randint(0, 3)
    if r < 0.28:
        return "twin", random_spec(rng, 1, 3, True), rng.randint(0, 5)
    return "plain", random_spec(rng, 1, 6, False), rng.randint(0, 7)


def run_case(rng: random.Random, sides: dict) -> tuple[list, int]:
    """One random case on every side: its results per side, and the number
    of searches it ran on each."""
    kind, spec, max_len = random_case(rng)
    twinned = kind.endswith("twin")
    ks = rng.sample(range(1, 7), 2)
    bar = Fraction(rng.randint(0, 16), rng.randint(1, 16))
    out = []
    for package in sides.values():
        b = instance(package, spec, twinned)
        scan = package.analysis._shortlex_scan(b.pa, max_len, (bar.numerator, bar.denominator))
        out.append((
            tuple(package.bounded_value_search(b, max_len)),
            *(tuple(package.witness_schedule_search(b, k, max_len)) for k in ks),
            [(rank, Fraction(num, den)) for rank, num, den in scan],
        ))
    return [kind, spec, max_len, ks, bar, out], 1 + len(ks)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    parser.add_argument("--searches", type=int, default=50_000,
                        help="searches to run on each side, at least")
    parser.add_argument("--seed", type=int, default=17)
    args = parser.parse_args(argv)
    sides = {"parent": load_parent(args.parent), "change": pasynch}
    rng = random.Random(args.seed)
    cases = searches = scanned = 0
    kinds = dict.fromkeys(("twin", "large twin", "chain"), 0)
    mismatches = []
    start = time.perf_counter()
    while searches < args.searches:
        case, n = run_case(rng, sides)
        cases, searches = cases + 1, searches + n
        if case[0] in kinds:
            kinds[case[0]] += 1
        parent, change = case[-1]
        scanned += len(change[-1])
        if parent != change:
            mismatches.append(case)
    counts = ", ".join(f"{n} {kind}s" for kind, n in kinds.items())
    print(f"{cases} cases ({counts}), {searches} searches and {cases} bar scans "
          f"per side, {scanned} scan yields; seed {args.seed}, "
          f"{time.perf_counter() - start:.1f} s")
    print(f"mismatches: {len(mismatches)}")
    for kind, spec, max_len, ks, bar, out in mismatches[:5]:
        print(f"  kind={kind} max_len={max_len} k={ks} bar={bar} spec={spec}\n"
              f"    parent: {out[0]}\n    change: {out[1]}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
