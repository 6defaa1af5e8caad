"""pasynch benchmark: one command per workload run.

    python3 bench/run.py --workload long_word --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the package is imported from its
``src/`` directory, so nothing needs installing. Each run starts fresh
single-threaded worker processes (see ``worker.py``):

* ``SETUP_SAMPLES - 1`` workers that only set up, plus the measuring worker,
  each sample set-up time: interpreter start, ``import pasynch`` and
  seeded input generation, up to the first timed op. ``setup_s`` is
  their median.
* the measuring worker then times ops for ``--seconds`` and checks every
  output. With ``--trace 1`` it runs every op twice, traced and not, and
  reports the per-layer metrics of BENCHMARK.json instead.

Human-readable lines go first; the last stdout line is the JSON result.
Each result is also stored with the environment it ran in under
``.bench_build/results/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("long_word", "search_sweep", "cli_pipeline")
SETUP_SAMPLES = 9
# Capped at p95 so that the tail figure stays comparable when a faster
# commit or machine completes more ops in the same run time.
TAIL_LADDER = (95.0, 90.0, 75.0)
MIN_BEYOND = 10
DEADLINE_S = 170


class BenchError(Exception):
    """The benchmark could not produce a result."""


def spawn(argv: list[str], timeout: float) -> dict:
    """Run one worker to completion and return its JSON report."""
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *argv], cwd=ROOT,
                              capture_output=True, text=True, timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(argv)} did not finish in {timeout:.0f}s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(argv)} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies_ms: list[float]) -> tuple[float, float, int]:
    """Latency at the highest ladder percentile with >= MIN_BEYOND samples
    beyond it (nearest rank); the median when no rung has that many.
    Returns (value, percentile, samples beyond)."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100 * n)
        if n - rank >= MIN_BEYOND:
            return ordered[rank - 1], pct, n - rank
    rank = math.ceil(n / 2)
    return ordered[rank - 1], 50.0, n - rank


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pasynch").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "loadavg": os.getloadavg(),
        "cpu_pinning": "not controlled",
        "cpu_frequency": "not controlled",
    }


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    began = time.monotonic()
    base = ["--workload", workload, "--seed", str(seed)]
    probes = [spawn(base + ["--setup-only"], DEADLINE_S - (time.monotonic() - began))
              for _ in range(SETUP_SAMPLES - 1)]
    report = spawn(base + ["--seconds", str(seconds), "--trace", str(trace)],
                   DEADLINE_S - (time.monotonic() - began))
    probes.append(report)

    def setup_median(key: str) -> float:
        return statistics.median(p[key] for p in probes) / 1e3

    latencies_ms = report["latencies_ms"]
    tail_ms, tail_pct, beyond = tail(latencies_ms)
    if trace:
        metrics = dict(report["layers"])
        metrics["setup.import_s"] = (setup_median("import_ms"), "s")
        metrics["setup.inputs_s"] = (setup_median("inputs_ms"), "s")
    else:
        metrics = {
            "setup_s": (setup_median("setup_ms"), "s"),
            "ops_per_s": (len(latencies_ms) / (sum(latencies_ms) / 1e3), "1/s"),
            "op_p50_ms": (statistics.median(latencies_ms), "ms"),
            "op_tail_ms": (tail_ms, "ms"),
            "peak_rss_mib": (report["peak_rss_kib"] / 1024, "MiB"),
        }
    wall_ms = [ns / 1e6 for ns in report["wall_latencies_ns"]]
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "fail_ratio": report["failed"] / report["attempted"],
        "failures": report["failures"],
        "ops_timed": len(latencies_ms),
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "setup_samples_s": [p["setup_ms"] / 1e3 for p in probes],
        "wall_op_p50_ms": statistics.median(wall_ms) if wall_ms else None,
        "wall_op_total_s": sum(wall_ms) / 1e3,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "environment": environment(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "pasynch" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'pasynch'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    results_dir = ROOT / ".bench_build" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    print(f"# environment: {json.dumps(result['environment'])}")
    print(f"# {args.workload} seed={args.seed}: {result['ops_timed']} ops timed, "
          f"tail = p{result['tail_percentile']:g} with {result['tail_samples_beyond']} "
          f"samples beyond; setup samples {result['setup_samples_s']}")
    for failure in result["failures"]:
        print(f"# FAILED {failure}")
    for key, metric in result["metrics"].items():
        print(f"{key} {metric['value']} {metric['unit']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
