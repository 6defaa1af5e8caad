"""Run the test suite in-process and list every line of `src/` that never ran.

    python3 tools/line_coverage.py

The executable lines of each module under ``src/pasynch`` are the line
numbers of its code objects (``co_lines()``). ``sys.settrace`` and
``threading.settrace`` record the lines that run while ``pytest`` runs the
``tests`` directory in this process. Every executable line that never ran
is printed with its text. The exit status is 1 when the tests fail or
when an unrun line is not in ``ALLOWED`` below, else 0.
Only the standard library and pytest are used.
"""
from __future__ import annotations

import os
import sys
import threading
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Lines that run only in child processes, which the tracer does not see:
# `test_pipeline_in_separate_processes` runs `python -m pasynch`, which is
# all of `__main__.py`. The value is the set of stripped line texts allowed
# to stay unrun, None for all.
ALLOWED: dict[str, set[str] | None] = {
    "__main__.py": None,
}


def executable_lines(path: Path) -> set[int]:
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines: set[int] = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def traced_run(paths: list[Path], pytest_args: list[str]) -> tuple[int, dict[Path, set[int]]]:
    """Run pytest under the tracer; the exit code and the lines run per file."""
    ran: dict[Path, set[int]] = {p: set() for p in paths}
    local_of: dict[str, object] = {}  # co_filename -> the local tracer of its file, or None

    def local_tracer(hits: set[int]):
        def local(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return local
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in local_of:
            hits = ran.get(Path(os.path.realpath(name)))
            local_of[name] = None if hits is None else local_tracer(hits)
        return local_of[name]

    import pytest  # imported untraced; pasynch itself must be imported under the tracer

    if any(m == "pasynch" or m.startswith("pasynch.") for m in sys.modules):
        raise SystemExit("pasynch was imported before tracing started")
    sys.path.insert(0, str(SRC))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main() -> int:
    start = time.perf_counter()
    paths = sorted(Path(os.path.realpath(p)) for p in (SRC / "pasynch").glob("*.py"))
    code, ran = traced_run(paths, ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    unexplained = allowed = 0
    for path in paths:
        text = path.read_text(encoding="utf-8").splitlines()
        permitted = ALLOWED.get(path.name, set())
        for line in sorted(executable_lines(path) - ran[path]):
            source = text[line - 1].strip()
            ok = permitted is None or source in permitted
            allowed += ok
            unexplained += not ok
            print(f"{path.relative_to(ROOT)}:{line}: {source}"
                  f"{'  [allowed: runs only in a child process]' if ok else ''}")
    print(f"unrun src lines: {allowed + unexplained} ({allowed} allowed, "
          f"{unexplained} not); pytest exit {code}; "
          f"{time.perf_counter() - start:.1f} s wall")
    return 1 if code or unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
