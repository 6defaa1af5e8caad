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
Python version, both sides' source and the work of 300 ``search_sweep``
ops, then of 300 ``long_word`` ops, seed 7, counted in one process per
side outside the harness. One ``sys.setprofile`` hook, on only while an
op runs (not while its result is checked), counts from one table:

- in ``search_sweep``, the calls of code named ``forward`` and ``back``
  (the compiled letter steps, whether ``Kernel.walk`` or the scan takes
  them) and ``_dominated`` (dominance tests), and the ``return`` events
  with a value of ``_shortlex_scan`` frames: the words the scan yields
  above the bar its consumer sends;
- in ``long_word``, the ``c_call`` events of ``max`` and ``gcd`` from
  frames of ``pasynch.semantics`` and of ``gcd`` from frames of
  ``pasynch.core``.

The hook replaces nothing in the package, so each op runs as it does in
the harness, and a name that a side lacks counts 0. The JSON file is
written in any case; then the exit status is 1, with one ``error:`` line
naming each key, when a count key is on one side only or a count of the
change is 0 (a step renamed out of the table's sight, say), else 0.

Only the standard library is used; nothing under ``bench/`` is changed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from differential import extract, git

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TREES = ("src", "bench")

# Run in each side's directory: every op checked as the harness does, the
# hook on only while the op runs.
COUNTER = """
import json, sys
sys.path[:0] = ["src", "bench"]
import workloads
TABLE = {  # (event, code name or module.builtin): (workload, key)
    ("call", "forward"): ("SearchSweep", "forward_steps"),
    ("call", "back"): ("SearchSweep", "back_steps"),
    ("call", "_dominated"): ("SearchSweep", "dominated_tests"),
    ("return", "_shortlex_scan"): ("SearchSweep", "words_yielded_above_bar"),
    ("c_call", "pasynch.semantics.max"): ("LongWord", "long_word_semantics_max"),
    ("c_call", "pasynch.semantics.gcd"): ("LongWord", "long_word_semantics_gcd"),
    ("c_call", "pasynch.core.gcd"): ("LongWord", "long_word_core_gcd"),
}
counts = {key: 0 for _, key in TABLE.values()}
def hook(frame, event, arg):
    if event == "c_call":
        name = f"{frame.f_globals.get('__name__')}.{arg.__name__}"
    elif event == "call" or event == "return" and arg is not None:  # None: the scan ended
        name = frame.f_code.co_name
    else:
        return
    hit = TABLE.get((event, name))
    if hit and hit[0] == type(wl).__name__:
        counts[hit[1]] += 1
for wl in workloads.SearchSweep(7), workloads.LongWord(7):
    for i in range(300):
        op = wl.op(i)
        sys.setprofile(hook)
        result = op()
        sys.setprofile(None)
        problem = wl.check(i, result)
        if problem:
            sys.exit(problem)
print(json.dumps(counts))
"""


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


def count_faults(counts: dict[str, dict[str, int]]) -> list[str]:
    """What the two sides' counts show wrong: a key that one side lacks,
    and a change count of 0."""
    parent, change = counts["parent"], counts["change"]
    faults = [f"count {key!r} is on the {'parent' if key in parent else 'change'} side only"
              for key in sorted(parent.keys() ^ change.keys())]
    return faults + [f"count {key!r} of the change is 0" for key, n in change.items() if n == 0]


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
    extract(parent_sha, parent, *TREES)
    copy_working_tree(change)
    if aa_plan:
        extract(parent_sha, parent_copy, *TREES)

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
            "what": "one process per side, outside the harness, one sys.setprofile hook "
                    "on only while an op runs, every op checked and the checks not "
                    "counted: over ops 0-299 of search_sweep seed 7, the calls of code "
                    "named forward (forward_steps), back (back_steps) and _dominated "
                    "(dominated_tests), and the return events with a value of "
                    "_shortlex_scan frames, its yields above the bar its consumer sends "
                    "(words_yielded_above_bar); then over ops 0-299 of long_word seed 7, "
                    "the c_call events of max and gcd from frames of pasynch.semantics "
                    "and of gcd from frames of pasynch.core. The hook replaces nothing in "
                    "the package; a name a side lacks counts 0",
            "parent": counters(parent),
            "change": counters(change),
        },
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    faults = count_faults(report["counts"])
    for fault in faults:
        print(f"error: {fault}", file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
