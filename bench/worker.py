"""One fresh benchmark process: set up a workload, then time its ops.

Started by ``run.py``; prints one JSON object on its last stdout line.
With ``--setup-only`` it stops as soon as the inputs exist, so that
``run.py`` can sample set-up time in several fresh interpreters.
All times in the report are reference milliseconds (see ``calibrate``)
unless their key says ``wall``.
"""
import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build"
MAX_FAILURES_SHOWN = 5
SETUP_CAL_CHUNKS = 7


def describe(exc: Exception) -> str:
    """One line: the exception and the innermost frame that raised it."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__}: {exc} (at {frame.filename}:{frame.lineno})"


def run_one(wl, i, tracer=None):
    """Run and check op i. Only the op call is timed; its check runs after.

    Returns (reference ms, wall ns, failure reason or None).
    """
    fn = wl.op(i)
    chunk = calibrate.CHUNKS[wl.CALIBRATION]
    before = calibrate.chunk_ns(chunk)
    wall = time.perf_counter_ns()
    cpu = calibrate.cpu_ns()
    failure = None
    try:
        result = fn() if tracer is None else tracer.run_op(i, fn)
    except Exception as exc:  # an op that raises is a counted failure, not a crash
        failure = f"op {i}: raised {describe(exc)}"
    cpu = calibrate.cpu_ns() - cpu
    wall = time.perf_counter_ns() - wall
    ref_ms = calibrate.to_ref_ms(cpu, (before + calibrate.chunk_ns(chunk)) / 2)
    if failure is None:
        try:
            failure = wl.check(i, result)
        except Exception as exc:
            failure = f"op {i}: check raised {describe(exc)}"
    return ref_ms, wall, failure


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    t0 = calibrate.cpu_ns()
    import pasynch
    import pasynch.cli  # noqa: F401  (the CLI module is not imported by the package)
    t1 = calibrate.cpu_ns()
    if Path(pasynch.__file__).resolve().parent != SRC / "pasynch":
        print(f"error: imported pasynch from {pasynch.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.make(args.workload, args.seed, str(workdir))
        # CPU time since the interpreter started: start-up, import, inputs
        t2 = calibrate.cpu_ns()
        cal = statistics.median(calibrate.chunk_ns(calibrate.rational)
                                for _ in range(SETUP_CAL_CHUNKS))
        report = {"setup_ms": calibrate.to_ref_ms(t2, cal),
                  "import_ms": calibrate.to_ref_ms(t1 - t0, cal),
                  "inputs_ms": calibrate.to_ref_ms(t2 - t1, cal)}
        if not args.setup_only:
            calibrate.chunk_ns(calibrate.CHUNKS[wl.CALIBRATION])  # warm-up, not timed
            report.update(measure(wl, args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


def measure(wl, args) -> dict:
    """Run ops 0, 1, ... until --seconds of wall time have passed.

    With --trace 1 every op runs twice, once traced and once not, in
    alternating order so that neither side always runs on warm caches;
    the ratio of the two time sums is the tracing overhead.
    """
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    plain, plain_wall, traced, traced_wall, failures = [], [], [], [], []
    deadline = time.perf_counter() + args.seconds
    n = 0
    while time.perf_counter() < deadline:
        sides = (None,) if tracer is None else ((None, tracer), (tracer, None))[n % 2]
        for side in sides:
            ref_ms, wall, failure = run_one(wl, n, side)
            if side is None:
                plain.append(ref_ms)
                plain_wall.append(wall)
            else:
                traced.append(ref_ms)
                traced_wall.append(wall)
            if failure is not None:
                failures.append(failure)
        n += 1
    report = {"latencies_ms": plain, "wall_latencies_ns": plain_wall,
              "attempted": len(plain) + len(traced), "failed": len(failures),
              "failures": failures[:MAX_FAILURES_SHOWN]}
    if tracer is None:
        report["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return report

    spans_dir = OUT_DIR / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    # one file per workload, replaced by the next traced run, to bound disk use
    tracer.write(str(spans_dir / f"{args.workload}.csv"))
    # spans are timed on the wall clock; one factor per run converts them
    # to reference seconds, so that all self times sum to the traced op time
    traced_s = sum(traced) / 1e3
    layers = tracer.summary(traced_s / (sum(traced_wall) / 1e9))
    layers["trace.ops"] = (n, "count")
    layers["trace.untraced_op_s"] = (sum(plain) / 1e3, "s")
    layers["trace.traced_op_s"] = (traced_s, "s")
    layers["trace.overhead_ratio"] = (sum(traced) / sum(plain), "ratio")
    report["layers"] = layers
    return report


if __name__ == "__main__":
    sys.exit(main())
