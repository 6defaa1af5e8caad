"""Self-test of the benchmark; exits 0 when every check holds.

    python3 bench/selftest.py

1. A tiny run (6 s) of every workload, untraced and traced, exits 0,
   prints exactly the metric names and units listed in BENCHMARK.json,
   and has no failed op (fail_ratio 0). In the traced run the self times
   of all layers add up to the traced op time, which divided by
   ``trace.overhead_ratio`` is the untraced op time.
2. A deliberately wrong expected value in each workload is counted as a
   failure, while the right value passes on the same ops: the checks are
   not vacuous.
3. In a directory holding only BENCHMARK.json and the benchmark's own
   files, the command exits non-zero without printing a result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "7", "--seconds", "6",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_tiny_runs() -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            proc = bench(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == RESULT_KEYS, sorted(result)
            metrics = result["metrics"]
            want = {m["name"]: m["unit"] for m in listed}
            got = {name: m["unit"] for name, m in metrics.items()}
            assert got == want, (set(got) ^ set(want), workload, trace)
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
                (workload, trace, proc.stdout[-2000:])
            if trace:
                layers = sum(metrics[f"{layer}.self_s"]["value"] for layer in
                             ("core", "semantics", "reduction", "analysis", "paformat",
                              "cli", "bench"))
                traced = metrics["trace.traced_op_s"]["value"]
                untraced = metrics["trace.untraced_op_s"]["value"]
                ratio = metrics["trace.overhead_ratio"]["value"]
                assert abs(layers - traced) <= 0.02 * traced, (workload, layers, traced)
                assert abs(traced / ratio - untraced) <= 1e-9 * untraced, workload
            print(f"ok   {workload} trace={trace}: {len(metrics)} metrics, "
                  f"{result['attempted']} ops, 0 failed")


def check_faults_are_counted() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    from worker import run_one

    cases = [
        ("long_word", "expected_total", Fraction(2), [0]),
        # op 5 is the first op on the coin-flip twin
        ("search_sweep", "expected_coin_top", Fraction(2, 3), [5]),
        ("cli_pipeline", "expected_exit", 1, [1]),
    ]
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as workdir:
        for name, attr, wrong, ops in cases:
            wl = workloads.make(name, 7, workdir)
            right = [run_one(wl, i)[2] for i in ops]
            assert right == [None] * len(ops), right
            setattr(wl, attr, wrong)
            wrong_results = [run_one(wl, i)[2] for i in ops]
            assert all(r is not None for r in wrong_results), (name, wrong_results)
            print(f"ok   {name}: wrong {attr} is counted as a failure ({wrong_results[0]})")


def check_bare_directory_fails() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(Path(bare), SPEC["workloads"][0]["name"], 0)
        assert proc.returncode != 0, proc.stdout
        assert not proc.stdout.strip(), proc.stdout
        print(f"ok   bare directory: exit {proc.returncode}, no result printed")


def main() -> int:
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    check_tiny_runs()
    check_faults_are_counted()
    check_bare_directory_fails()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
