"""Compare the benchmark of a parent commit and of the working tree.

    python3 tools/bench_compare.py --parent HEAD --pairs 10 --out BENCH_13.json

Each side runs from its own fresh directory under
``.bench_build/compare/``: the parent's ``src/`` and ``bench/`` extracted
from git with ``git archive``, and a copy of the working tree's. For every
workload the tool runs ``--pairs`` pairs of ``bench/run.py`` (one seed per
pair: ``--seed``, plus 100 per set before it, plus the pair's index),
alternating which side runs first, and reports each end-to-end metric of
BENCHMARK.json per side: median, quartiles, IQR and every run, with the
pairs each side won. ``--workload NAME:PAIRS`` picks the workloads and
their pair counts instead; ``--aa NAME:PAIRS`` adds an A/A set, the parent
against a second extraction of itself, whose spread is what the same code
reads from another directory. The JSON file also records ``nproc``, the
Python version, both sides' source and, counted outside the harness, the
scan's work on 300 ``search_sweep`` ops of seed 7 on each side: forward
steps, back steps, ``analysis._dominated`` tests and the words the scan
yields above the bar its consumer sends. A forward step is a
``Kernel.advance`` call (a step of ``Kernel.walk`` on a side without
``advance``) or a call of a forward step that
``Kernel.shared_steps`` hands out; a back step is a ``Kernel.weights``
call or a call of a shared back step. Each side counts whichever of these
its kernel has, so the counts mean the same on sides from before and after
``Kernel.shared_steps`` replaced ``Kernel.weights`` in the scan. The
counter forwards every bar, so both searches run as they would. A scan
that takes no bar yields every word it scores, so on such a side the last
count is of scored words; on a side whose scan takes the bar it is of
words above it only. Parent and change counts then differ in meaning.
The same process then counts, over 300 ``long_word`` ops of seed 7, the
calls of ``max`` made from ``semantics`` and of ``gcd`` made from
``semantics`` and from ``core``, by replacing those module globals with
counting wrappers; calls made while a result is checked are not counted.

Only the standard library is used; nothing under ``bench/`` is changed.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TREES = ("src", "bench")

# Run in each side's directory: counts the scan's work on 300 ops of the
# search_sweep workload, then the max and gcd calls of 300 long_word ops,
# checking every result as the harness does.
COUNTER = """
import json, sys
sys.path[:0] = ["src", "bench"]
from pasynch import analysis
from pasynch.semantics import Kernel
import workloads
counts = {"forward_steps": 0, "back_steps": 0, "dominated_tests": 0,
          "words_yielded_above_bar": 0}
def counted(f, key):
    def call(*args):
        counts[key] += 1
        return f(*args)
    return call
if hasattr(Kernel, "advance"):
    Kernel.advance = counted(Kernel.advance, "forward_steps")
else:
    walk = Kernel.walk
    def counted_walk(*args):
        run = walk(*args)
        yield next(run)
        for pair in run:
            counts["forward_steps"] += 1
            yield pair
    Kernel.walk = counted_walk
if hasattr(Kernel, "weights"):
    Kernel.weights = counted(Kernel.weights, "back_steps")
if hasattr(Kernel, "shared_steps"):
    shared = Kernel.shared_steps
    def counted_shared(k):
        lam, steps = shared(k)
        return lam, {a: (counted(f, "forward_steps"), counted(b, "back_steps"))
                     for a, (f, b) in steps.items()}
    Kernel.shared_steps = counted_shared
scan = analysis._shortlex_scan
def counted_scan(*args):
    inner, bar = scan(*args), None
    while True:
        try:
            item = inner.send(bar)
        except StopIteration:
            return
        counts["words_yielded_above_bar"] += 1
        bar = yield item
analysis._dominated = counted(analysis._dominated, "dominated_tests")
analysis._shortlex_scan = counted_scan
wl = workloads.SearchSweep(7)
for i in range(300):
    problem = wl.check(i, wl.op(i)())
    if problem:
        sys.exit(problem)
scan_counts = dict(counts)  # the wrappers above go on counting long_word's steps
import builtins, math
from pasynch import core, semantics
calls = {"long_word_semantics_max": 0, "long_word_semantics_gcd": 0, "long_word_core_gcd": 0}
counting = False
def tallied(f, key):
    def call(*args):
        if counting:
            calls[key] += 1
        return f(*args)
    return call
semantics.max = tallied(builtins.max, "long_word_semantics_max")
semantics.gcd = tallied(math.gcd, "long_word_semantics_gcd")
core.gcd = tallied(math.gcd, "long_word_core_gcd")
wl = workloads.LongWord(7)
for i in range(300):
    counting = True
    trace = wl.op(i)()
    counting = False
    problem = wl.check(i, trace)
    if problem:
        sys.exit(problem)
print(json.dumps({**scan_counts, **calls}))
"""


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True,
                          timeout=120).stdout


def extract(rev: str, dest: Path) -> None:
    """`src/` and `bench/` of commit `rev` into `dest`."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev, *TREES))) as tar:
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def copy_working_tree(dest: Path) -> None:
    for name in TREES:
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))


def src_digest(side: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((side / "src" / "pasynch").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def bench_run(side: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=side, capture_output=True, text=True, timeout=seconds + 600)
    if proc.returncode != 0:
        raise SystemExit(f"bench/run.py failed in {side} ({workload}, seed {seed}):\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else runs * 3
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "iqr": q3 - q1,
            "runs": runs}


def compare(sides: dict[str, Path], workload: str, pairs: int, seed: int,
            seconds: float) -> dict:
    """`pairs` alternating runs of the two `sides` (base first, then other)."""
    (base, base_dir), (other, other_dir) = sides.items()
    results: dict[str, list[dict]] = {base: [], other: []}
    for i in range(pairs):
        order = [(base, base_dir), (other, other_dir)]
        for name, side in order if i % 2 == 0 else order[::-1]:
            result = bench_run(side, workload, seed + i, seconds)
            results[name].append(result)
            print(f"# {workload} pair {i + 1}/{pairs} {name}: "
                  f"ops_per_s {result['metrics']['ops_per_s']['value']:.1f}", file=sys.stderr)
    out = {
        "seeds": [seed + i for i in range(pairs)],
        "attempted_ops": {n: sum(r["attempted"] for r in rs) for n, rs in results.items()},
        "failed_ops": {n: sum(r["failed"] for r in rs) for n, rs in results.items()},
        "all_correct": all(r["correct"] for rs in results.values() for r in rs),
        "metrics": {},
    }
    for spec in SPEC["end_to_end"]:
        name, lower = spec["name"], spec["better"] == "lower"
        values = {n: [r["metrics"][name]["value"] for r in rs] for n, rs in results.items()}
        a, b = summary(values[base]), summary(values[other])
        wins = sum((y < x) if lower else (y > x) for x, y in zip(values[base], values[other]))
        losses = sum((y > x) if lower else (y < x) for x, y in zip(values[base], values[other]))
        ratio = b["median"] / a["median"] if a["median"] else None
        out["metrics"][name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            base: a, other: b,
            f"{other}_over_{base}": ratio,
            f"{other}_wins": wins, f"{base}_wins": losses, "pairs": pairs,
            f"median_gap_exceeds_{base}_iqr": abs(b["median"] - a["median"]) > a["iqr"],
            "worse_than_bound": ratio is not None and (ratio - 1 > spec["bound"] if lower
                                                       else 1 - ratio > spec["bound"]),
        }
    return out


def counters(side: Path) -> dict:
    proc = subprocess.run([sys.executable, "-c", COUNTER], cwd=side, capture_output=True,
                          text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"counter run failed in {side}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout)


def pair_counts(items: list[str], flag: str) -> dict[str, int]:
    counts = {}
    for item in items:
        name, _, pairs = item.partition(":")
        if name not in WORKLOADS or not pairs.isdigit() or int(pairs) < 1:
            raise SystemExit(f"{flag} {item!r}: expected NAME:PAIRS with NAME one of "
                             f"{', '.join(WORKLOADS)} and PAIRS >= 1")
        counts[name] = int(pairs)
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    parser.add_argument("--pairs", type=int, default=10,
                        help="pairs per workload when --workload is not given")
    parser.add_argument("--workload", action="append", default=[], metavar="NAME:PAIRS")
    parser.add_argument("--aa", action="append", default=[], metavar="NAME:PAIRS")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--change", default="", help="one-line description of the change")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs and --seconds must be positive")
    plan = pair_counts(args.workload, "--workload") or dict.fromkeys(WORKLOADS, args.pairs)
    aa_plan = pair_counts(args.aa, "--aa")

    work = ROOT / ".bench_build" / "compare"
    shutil.rmtree(work, ignore_errors=True)
    parent, change, parent_copy = work / "parent", work / "change", work / "parent_copy"
    parent_sha = git("rev-parse", args.parent).decode().strip()
    extract(parent_sha, parent)
    copy_working_tree(change)
    if aa_plan:
        extract(parent_sha, parent_copy)

    report = {
        "change": args.change,
        "harness": f"python3 bench/run.py --workload W --seed S --seconds {args.seconds:g} "
                   "--trace 0",
        "method": "Per workload, one seed per pair, alternating which side runs first "
                  "(parent first on the 1st, 3rd, ... pair); each side from its own fresh "
                  "directory. Quartiles are statistics.quantiles(n=4) (exclusive method). "
                  "A pair is won when a side's value is strictly better in the metric's "
                  "direction; ties count for neither side. The A/A sets compare the parent "
                  "with a second extraction of itself.",
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "implementation": platform.python_implementation(),
                    "system": platform.system()},
        "parent_sha": parent_sha,
        "change_base_sha": git("rev-parse", "HEAD").decode().strip(),
        "change_src_sha256": src_digest(change),
        "parent_src_sha256": src_digest(parent),
        "workloads": {w: compare({"parent": parent, "change": change}, w, n,
                                 args.seed + 100 * i, args.seconds)
                      for i, (w, n) in enumerate(plan.items())},
        "aa": {w: compare({"parent": parent, "parent_copy": parent_copy}, w, n,
                          args.seed + 100 * (len(plan) + i), args.seconds)
               for i, (w, n) in enumerate(aa_plan.items())},
        "counts": {
            "what": "one process per side, outside the harness: forward steps (calls of "
                    "Kernel.advance, or steps of Kernel.walk where there is no "
                    "Kernel.advance, and of the forward steps of Kernel.shared_steps), "
                    "back steps (calls of Kernel.weights and of the back steps of "
                    "Kernel.shared_steps), each counted where the side's kernel has it, "
                    "analysis._dominated tests, and words analysis._shortlex_scan yields "
                    "above the bar its consumer sends (every scored word where the scan "
                    "takes no bar), over ops 0-299 of search_sweep seed 7, every op checked; "
                    "then the calls of max made from semantics and of gcd made from "
                    "semantics and from core (module globals replaced by counting "
                    "wrappers) over ops 0-299 of long_word seed 7, every op checked, the "
                    "checks not counted",
            "parent": counters(parent),
            "change": counters(change),
        },
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
