"""Run the tier-1 tests under each local Python, with this Python's pytest.

    python3 tools/pythons.py [PYTHON ...] [-- PYTEST_ARG ...]

Each PYTHON is an interpreter to test; by default every
``~/.pyenv/versions/3.1*/bin/python``. The interpreter running this tool
lends its own pytest and Hypothesis: the top-level modules of those two
distributions and of their dependencies (``LENT``), with their
``.dist-info`` directories so that Hypothesis's pytest plugin loads, are
linked into a temporary directory that goes on ``PYTHONPATH`` after
``src``. Below Python 3.11 the directory also holds two stand-ins, since
pytest and Hypothesis import them there and no local Python has them:

- ``exceptiongroup``: ``BaseExceptionGroup`` and ``ExceptionGroup`` with
  ``message`` and ``exceptions``, subscriptable; not the backport, so a
  test that raises an exception group there would behave otherwise;
- ``tomli``: the tested Python's own ``pip._vendor.tomli``, which pytest
  reads ``pyproject.toml`` with.

Each interpreter runs CI's tier-1 command, ``python -m pytest -q
--continue-on-collection-errors``, with ``-p no:cacheprovider`` and the
PYTEST_ARGs after ``--`` added, from the repository root. Bytecode goes
under the temporary directory (``PYTHONPYCACHEPREFIX``), never beside the
lent sources. One line per interpreter gives its version, its counts and
its wall time; a failing run also prints the tail of its output. The exit
status is 1 when any run fails or prints no summary, else 0.
"""
from __future__ import annotations

import importlib.metadata
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# pytest and Hypothesis and what they import at run time
LENT = ("pytest", "pluggy", "iniconfig", "packaging", "pygments", "hypothesis", "sortedcontainers")
COUNTS = re.compile(r"(\d+) (passed|skipped|failed|errors?|xfailed|xpassed|deselected)\b")

EXCEPTIONGROUP = '''\
"""Stand-in for the exceptiongroup backport: enough for pytest and Hypothesis to import."""


class BaseExceptionGroup(BaseException):
    def __init__(self, message, exceptions):
        super().__init__(message, exceptions)
        self.message, self.exceptions = message, tuple(exceptions)

    def __class_getitem__(cls, item):
        return cls


class ExceptionGroup(BaseExceptionGroup, Exception):
    pass
'''
TOMLI = '''\
"""Stand-in for tomli: the copy pip vendors."""
from pip._vendor.tomli import TOMLDecodeError, load, loads  # noqa: F401
'''


def lend(into: Path) -> None:
    """Link the top-level modules and `.dist-info` of each `LENT`
    distribution of this Python into `into`."""
    for name in LENT:
        dist = importlib.metadata.distribution(name)
        tops = {f.parts[0] for f in dist.files or () if f.parts[0] not in ("..", "__pycache__")}
        for top in tops:
            link = into / top
            if not link.exists():
                link.symlink_to(Path(dist.locate_file(top)))


def default_pythons() -> list[str]:
    def version(path: Path) -> tuple:
        return tuple(int(p) if p.isdigit() else p for p in path.parent.parent.name.split("."))
    found = Path.home().glob(".pyenv/versions/3.1*/bin/python")
    return [str(p) for p in sorted(found, key=version)]


def run(python: str, lent: Path, pytest_args: list[str]) -> bool:
    """Run the tier-1 tests under `python`, print its line, and say
    whether they passed."""
    probe = subprocess.run([python, "-c", "import platform, sys; "
                            "print(platform.python_version(), int(sys.version_info < (3, 11)))"],
                           capture_output=True, text=True)
    if probe.returncode:
        print(f"{python}: cannot start: {probe.stderr.strip()}")
        return False
    version, old = probe.stdout.split()
    path = [str(ROOT / "src"), str(lent)]
    if old == "1":
        path.append(str(lent.parent / "standins"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path),
               PYTHONPYCACHEPREFIX=str(lent.parent / f"pycache-{version}"))
    start = time.perf_counter()
    done = subprocess.run([python, "-m", "pytest", "-q", "--continue-on-collection-errors",
                           "-p", "no:cacheprovider", *pytest_args],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    summary = done.stdout.strip().splitlines()[-1:] or [""]
    counts = dict((kind, int(n)) for n, kind in COUNTS.findall(summary[0]))
    ok = done.returncode == 0 and "passed" in counts
    listed = ", ".join(f"{counts.get(kind, 0)} {kind}" for kind in ("passed", "skipped", "failed"))
    extra = "".join(f", {n} {kind}" for kind, n in counts.items()
                    if kind not in ("passed", "skipped", "failed"))
    print(f"{version}: {listed}{extra} in {seconds:.1f} s{'' if ok else f' (exit {done.returncode})'}")
    if not ok:
        tail = (done.stdout + done.stderr).strip().splitlines()[-30:]
        print("\n".join(f"    {line}" for line in tail))
    return ok


def main(argv: list[str]) -> int:
    cut = argv.index("--") if "--" in argv else len(argv)
    pythons, pytest_args = argv[:cut] or default_pythons(), argv[cut + 1:]
    if not pythons:
        print("no interpreter given and none found under ~/.pyenv/versions")
        return 1
    with tempfile.TemporaryDirectory(prefix="pythons-") as tmp:
        lent, standins = Path(tmp, "lent"), Path(tmp, "standins")
        lent.mkdir()
        standins.mkdir()
        lend(lent)
        (standins / "exceptiongroup.py").write_text(EXCEPTIONGROUP)
        (standins / "tomli.py").write_text(TOMLI)
        results = [run(python, lent, pytest_args) for python in pythons]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
