"""Command-line interface: output shapes and exit codes."""
import contextlib
import errno
import io
import os
import random
import re
import signal
import subprocess
import sys
import tempfile
import time
from itertools import chain
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from pasynch import (
    CheckResult,
    InputError,
    NormTrace,
    Pa,
    TraceEntry,
    TwinPa,
    Value1Instance,
    b_half,
    b_one,
    dollar_absorption_check,
    lasso_trace,
    lift,
    norm_trace,
    parse_pa,
    read_trace_csv,
    save_pa,
    serialize_pa,
    twin,
    write_trace_csv,
)
from pasynch import core, paformat
from pasynch.cli import _build_parser, main
from helpers import (
    corrupted,
    family_pa,
    random_dist,
    random_value1_instance,
    random_word,
    rebuilt,
    reference_absorb,
    reference_main,
    reference_outcome,
)


def _write_fixtures(tmp_path, instances=None):
    """Each of `instances` (by name; b_one and b_half by default) as
    `<name>.pa`, with its lift and twin, and the directory as `dir`."""
    paths = {}
    for name, instance in (instances or {"b_one": b_one(), "b_half": b_half()}).items():
        a = lift(instance)
        c = twin(a)
        paths[name] = str(tmp_path / f"{name}.pa")
        paths[name + "_lift"] = str(tmp_path / f"{name}_lift.pa")
        paths[name + "_twin"] = str(tmp_path / f"{name}_twin.pa")
        save_pa(instance.pa, paths[name])
        save_pa(a, paths[name + "_lift"])
        save_pa(c, paths[name + "_twin"])
    paths["dir"] = str(tmp_path)
    return paths


@pytest.fixture()
def files(tmp_path):
    return _write_fixtures(tmp_path)


def test_accept(files, capsys):
    assert main(["accept", files["b_one"], "--word", "a"]) == 0
    assert capsys.readouterr().out == "1\n"
    assert main(["accept", files["b_half"], "--word", "a.a"]) == 0
    assert capsys.readouterr().out == "1/2\n"


def test_accept_empty_word(files, capsys):
    assert main(["accept", files["b_one"], "--word", ""]) == 0
    assert capsys.readouterr().out == "0\n"


def test_run_prints_final_distribution(files, capsys):
    assert main(["run", files["b_half"], "--word", "a"]) == 0
    assert capsys.readouterr().out == "sA 1/2\nsR 1/2\n"


def test_validate_ok(files, capsys):
    assert main(["validate", files["b_one_twin"]]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_validate_reports_violations(files, tmp_path, capsys):
    bad = tmp_path / "bad.pa"
    bad.write_text(
        "format: pa/1\nstates: s0\nletters: a\ninitial: s0 1\n"
        "accepting:\nrow: s0 a s0 1/2\n")
    assert main(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "violation: row (s0,a) sums to 1/2" in out


def test_trace_stdout(files, capsys):
    assert main(["trace", files["b_one"], "--word", "a"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "step,letter,norm,s0,sA"
    assert lines[2] == "1,a,1,0,1"


def test_trace_csv_file(files, tmp_path, capsys):
    out = tmp_path / "trace.csv"
    assert main(["trace", files["b_half_twin"], "--word", "a.@sym:$",
                 "--csv", str(out)]) == 0
    assert capsys.readouterr().out == ""
    states, rows = read_trace_csv(io.StringIO(out.read_text()))
    assert len(rows) == 3
    assert all(sum(r.values()) == 1 for r in rows)


def test_unwritable_csv_is_input_error(files, tmp_path, capsys):
    out = str(tmp_path / "missing" / "x.csv")
    assert main(["trace", files["b_one"], "--word", "a", "--csv", out]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write")
    assert main(["lasso", files["b_one_twin"], "--loop", "a", "--reps", "1",
                 "--csv", out]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write")


def test_lift_into_a_missing_directory(files, tmp_path, capsys):
    out = str(tmp_path / "missing" / "lift.pa")
    with pytest.raises(OSError) as err:
        open(out, "w", encoding="utf-8")
    assert main(["lift", files["b_one"], "-o", out]) == 2
    assert capsys.readouterr() == ("", f"error: cannot write {out}: {err.value}\n")
    assert not os.path.exists(os.path.dirname(out))


WRITERS = ("save_pa", "lift", "trace")


def _write(how, files, path, capsys):
    """Write one output to `path` the way `how` names: (exit code, stderr)."""
    if how == "save_pa":
        try:
            save_pa(twin(lift(b_half())), path)
        except InputError as exc:
            return 2, f"error: {exc}\n"
        return 0, ""
    code = main({"lift": ["lift", files["b_half"], "-o", path],
                 "trace": ["trace", files["b_half_twin"], "--word", "a.@sym:$.a.a",
                           "--csv", path]}[how])
    out, err = capsys.readouterr()
    assert out == ""
    return code, err


@pytest.mark.parametrize("how", WRITERS)
def test_outputs_are_written_in_place(how, files, tmp_path, capsys):
    path = tmp_path / "out"
    assert _write(how, files, str(path), capsys) == (0, "")
    fresh = path.read_bytes()
    for old in (b"", fresh[:7], b"#" * len(fresh), fresh, b"#" * (3 * len(fresh))):
        path.write_bytes(old)
        assert _write(how, files, str(path), capsys) == (0, "")
        assert path.read_bytes() == fresh  # no stale tail past the written length

    target, link = tmp_path / "target", tmp_path / "link"
    target.write_bytes(b"#" * (2 * len(fresh)))
    link.symlink_to(target)
    assert _write(how, files, str(link), capsys) == (0, "")
    assert link.is_symlink() and target.read_bytes() == fresh

    other = tmp_path / "other"
    other.write_bytes(b"#" * (2 * len(fresh)))
    os.link(other, tmp_path / "same")
    assert _write(how, files, str(tmp_path / "same"), capsys) == (0, "")
    assert other.read_bytes() == fresh and os.path.samefile(other, tmp_path / "same")


@pytest.mark.parametrize("how", WRITERS)
def test_output_modes_are_those_of_open(how, files, tmp_path, capsys):
    kept = tmp_path / "kept"
    kept.write_bytes(b"#" * 10_000)
    kept.chmod(0o600)
    assert _write(how, files, str(kept), capsys) == (0, "")
    assert kept.stat().st_mode & 0o7777 == 0o600
    mask = os.umask(0o002)
    try:
        assert _write(how, files, str(tmp_path / "new"), capsys) == (0, "")
    finally:
        os.umask(mask)
    assert (tmp_path / "new").stat().st_mode & 0o7777 == 0o666 & ~0o002


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
@pytest.mark.parametrize("how", WRITERS)
def test_outputs_to_dev_null(how, files, capsys):
    assert _write(how, files, "/dev/null", capsys) == (0, "")


@pytest.mark.parametrize("how", WRITERS)
@pytest.mark.parametrize("kind", ("read-only file", "directory"))
def test_unwritable_outputs_exit_2_with_the_text_of_open(how, kind, files, tmp_path, capsys):
    path = tmp_path / "out"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"old")
        path.chmod(0o444)
        if os.access(path, os.W_OK):
            pytest.skip("this user may write read-only files")
    with pytest.raises(OSError) as err:
        open(path, "w", encoding="utf-8")
    assert _write(how, files, str(path), capsys) == (2, f"error: cannot write {path}: {err.value}\n")
    assert kind == "directory" or path.read_bytes() == b"old"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", (
    ["lift", "b_one", "-o"],
    ["trace", "b_one_twin", "--word", "a", "--csv"],  # fails as the file is closed
    ["lasso", "b_one_twin", "--loop", "a", "--reps", "3000", "--csv"],  # part-way through
), ids=("lift", "trace", "lasso"))
def test_a_full_device_is_an_input_error(argv, files, capsys):
    assert main([argv[0], files[argv[1]], *argv[2:], "/dev/full"]) == 2
    assert capsys.readouterr() == (
        "", "error: cannot write /dev/full: [Errno 28] No space left on device\n")


def test_a_write_error_part_way_cuts_the_file_where_it_stopped(files, tmp_path, capsys):
    """Past `RLIMIT_FSIZE`, a write fails with EFBIG (Python ignores SIGXFSZ):
    the file ends where the written bytes stopped, with no old tail."""
    resource = pytest.importorskip("resource")
    out = tmp_path / "lasso.csv"
    out.write_bytes(b"#" * 100_000)
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    resource.setrlimit(resource.RLIMIT_FSIZE, (20_000, hard))
    try:
        code = main(["lasso", files["b_one_twin"], "--loop", "a", "--reps", "3000",
                     "--csv", str(out)])
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
    assert code == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: [Errno 27] File too large\n"
    assert 0 < len(out.read_bytes()) <= 20_000
    assert b"#" not in out.read_bytes()


def test_an_error_in_the_writer_keeps_what_was_written(tmp_path):
    out = tmp_path / "out"
    out.write_bytes(b"#" * 100)
    with pytest.raises(RuntimeError):
        with paformat._output(str(out)) as fh:
            fh.write("kept\n")
            raise RuntimeError
    assert out.read_bytes() == b"kept\n"


def test_lasso(files, capsys):
    assert main(["lasso", files["b_one_twin"], "--stem", "a.@sym:$",
                 "--loop", "@sym:#.a.@sym:$", "--reps", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10  # header + 9 steps
    assert lines[4].startswith("3,@sym:#,1/2")


def test_lift_twin_pipeline(files, tmp_path, capsys):
    lifted_path = str(tmp_path / "out_lift.pa")
    twin_path = str(tmp_path / "out_twin.pa")
    assert main(["lift", files["b_one"], "-o", lifted_path]) == 0
    assert main(["twin", lifted_path, "-o", twin_path]) == 0
    with open(twin_path) as fh:
        restored = parse_pa(fh.read())
    assert restored.pa == twin(lift(b_one())).pa


def _child_env(**extra: str) -> dict[str, str]:
    """The environment of a child `python -m pasynch`, with this package on
    its path and `extra` set."""
    src = os.path.dirname(os.path.dirname(core.__file__))
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
            **extra}


def _child_pasynch(*argv: str) -> subprocess.CompletedProcess:
    """`python -m pasynch ARGV` as a real process, with this package on its path."""
    return subprocess.run([sys.executable, "-m", "pasynch", *argv], env=_child_env(),
                          capture_output=True, text=True, timeout=60)


# a stdout that fails gives exit 2 and one line, whether the failure shows
# on a write or only when `main` flushes stdout's buffer; nothing is printed
# when the interpreter flushes it again at exit
UNBUFFERED = pytest.mark.parametrize("unbuffered", ("1", ""), ids=("unbuffered", "buffered"))


@UNBUFFERED
def test_a_closed_stdout_pipe_exits_2_in_a_child_process(files, unbuffered):
    child = subprocess.Popen(
        [sys.executable, "-m", "pasynch", "lasso", files["b_half_twin"], "--loop", "a.@sym:#",
         "--reps", "20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(PYTHONUNBUFFERED=unbuffered))
    head = child.stdout.read(20)
    child.stdout.close()  # as `| head -c 20` does
    err = child.stderr.read()
    child.stderr.close()
    assert (child.wait(timeout=60), head) == (2, b"step,letter,norm,s0,")
    assert err == b"error: cannot write stdout: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@UNBUFFERED
def test_a_full_stdout_exits_2_in_a_child_process(files, unbuffered):
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "pasynch", "check-p1", files["b_half_twin"], "--v1", "a",
             "--v2", "a"], stdout=full, stderr=subprocess.PIPE, text=True, timeout=60,
            env=_child_env(PYTHONUNBUFFERED=unbuffered))
    assert (done.returncode, done.stderr) == (
        2, "error: cannot write stdout: [Errno 28] No space left on device\n")


def test_main_runs_without_a_stdout(files, monkeypatch):
    # a process started with its stdout closed has `sys.stdout` None
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["validate", files["b_one"]]) == 0


def test_pipeline_in_separate_processes(tmp_path):
    # `python -m pasynch` as real processes, from a `.pa` file to a certificate
    def pasynch(*argv):
        done = _child_pasynch(*argv)
        assert done.returncode == 0, done.stderr
        return done.stdout

    source, lifted, twinned = (str(tmp_path / name) for name in ("b.pa", "lift.pa", "twin.pa"))
    save_pa(b_one().pa, source)
    pasynch("lift", source, "-o", lifted)
    pasynch("twin", lifted, "-o", twinned)
    lines = pasynch("schedule", source, "--k", "3", "--max-len", "3").splitlines()
    assert [line.partition(": ")[0] for line in lines] == ["u1", "u2", "u3"]
    # each printed word "u<i>: a.b" is certified with the commit letter appended
    schedule = ",".join(".".join(filter(None, (line.partition(": ")[2], "@sym:$")))
                        for line in lines)
    assert pasynch("certify", twinned, "--schedule", schedule).splitlines()[-1] == "PASS"


# one letter keeps 1/10^100 on the accepting start state, so after 43 letters
# the acceptance probability is 1/10^4300: its denominator has 4,301 digits,
# one past CPython's default limit on int/str conversion
BIG_LETTERS = 43
BIG_DEN = "1" + "0" * 100 * BIG_LETTERS


def _shrinking_pa_file(tmp_path) -> str:
    keep = Fraction(1, 10 ** 100)
    path = str(tmp_path / "shrink.pa")
    save_pa(Pa(("s", "z"), ("a",), {"s": 1},
               {("s", "a"): {"s": keep, "z": 1 - keep}, ("z", "a"): {"z": 1}}, ("s",)), path)
    return path


@contextlib.contextmanager
def _no_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="CPython before 3.10.7 has no int/str digit limit")
def test_numbers_past_the_digit_limit_are_printed_exactly(tmp_path, capsys):
    path = _shrinking_pa_file(tmp_path)
    word = ".".join("a" * BIG_LETTERS)
    limit = sys.get_int_max_str_digits()
    expected = [{"s": Fraction(1, 10 ** (100 * i)), "z": 1 - Fraction(1, 10 ** (100 * i))}
                for i in range(BIG_LETTERS + 1)]

    assert main(["accept", path, "--word", word]) == 0
    assert capsys.readouterr().out == f"1/{BIG_DEN}\n"
    assert main(["run", path, "--word", word]) == 0
    assert capsys.readouterr().out == f"s 1/{BIG_DEN}\nz {'9' * (len(BIG_DEN) - 1)}/{BIG_DEN}\n"
    assert main(["trace", path, "--word", word]) == 0
    printed = capsys.readouterr().out
    assert sys.get_int_max_str_digits() == limit
    # a library caller reads these numbers back only once it lifts the limit itself
    with pytest.raises(InputError, match="sys.set_int_max_str_digits"):
        read_trace_csv(io.StringIO(printed))
    with _no_digit_limit():
        assert read_trace_csv(io.StringIO(printed)) == (("s", "z"), expected)

    csv_path = tmp_path / "big.csv"
    for argv in (["trace", path, "--word", word],
                 ["lasso", path, "--loop", "a", "--reps", str(BIG_LETTERS)]):
        assert main([*argv, "--csv", str(csv_path)]) == 0
        assert sys.get_int_max_str_digits() == limit
        with _no_digit_limit():
            assert read_trace_csv(io.StringIO(csv_path.read_text())) == (("s", "z"), expected)
    assert main(["accept", path, "--word", "b"]) == 2
    assert sys.get_int_max_str_digits() == limit


def test_numbers_past_the_digit_limit_in_a_child_process(tmp_path):
    done = _child_pasynch("accept", _shrinking_pa_file(tmp_path),
                          "--word", ".".join("a" * BIG_LETTERS))
    assert "Traceback" not in done.stderr
    assert (done.returncode, done.stdout, done.stderr) == (0, f"1/{BIG_DEN}\n", "")


def test_main_runs_where_python_has_no_digit_limit(monkeypatch, files, capsys):
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
    assert main(["accept", files["b_one"], "--word", "a"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_a_literal_longer_than_the_bound_is_refused_before_parsing(tmp_path, capsys):
    # one literal over the bound exits 2 at once, however many digits it holds;
    # one at the bound is read, past CPython's digit limit, which main lifts
    path = tmp_path / "long.pa"
    source = serialize_pa(b_one().pa)
    assert "row: s0 a sA 1\n" in source
    for ones, code in ((core.MAX_LITERAL_LEN, 0), (core.MAX_LITERAL_LEN + 1, 2),
                       (1_000_000, 2)):
        path.write_text(source.replace("row: s0 a sA 1\n", f"row: s0 a sA {'0' * (ones - 1)}1\n"))
        start = time.perf_counter()
        assert main(["validate", str(path)]) == code
        assert time.perf_counter() - start < 2
        out, err = capsys.readouterr()
        if code == 0:
            assert (out, err) == ("ok\n", "")
        else:
            line = source[:source.index("row: s0 a sA 1")].count("\n") + 1
            assert (out, err) == ("", f"error: line {line}: rational literal of {ones:,} "
                                      f"characters exceeds the limit of 10,000\n")


def test_a_pa_file_longer_than_the_bound_is_refused_unparsed(tmp_path, capsys):
    # a comment pads b_one's document to the bound, then one character past it
    path = tmp_path / "padded.pa"
    source = serialize_pa(b_one().pa)
    for size, code in ((paformat.MAX_PA_CHARS, 0), (paformat.MAX_PA_CHARS + 1, 2)):
        path.write_text(source + "#" + "x" * (size - len(source) - 2) + "\n", encoding="utf-8")
        assert main(["validate", str(path)]) == code
        assert capsys.readouterr() == (("ok\n", "") if code == 0 else (
            "", "error: .pa file longer than the limit of 10,000,000 characters\n"))


def test_twin_requires_lift_metadata(files, capsys):
    assert main(["twin", files["b_one"], "-o", "/dev/null"]) == 2
    assert "no lift metadata" in capsys.readouterr().err


def test_check_p1(files, capsys):
    assert main(["check-p1", files["b_one_twin"], "--v1", "a.@sym:$",
                 "--v2", "a"]) == 0
    assert capsys.readouterr().out == "PASS\n"


def test_check_p2(files, capsys):
    assert main(["check-p2", files["b_half_lift"], files["b_half_twin"],
                 "--word", "a.a.a"]) == 0
    assert capsys.readouterr().out == "PASS\n"


def test_check_p1_fail_exit_code(files, tmp_path, capsys):
    # corrupt the reset row of the success sink in the serialized twin
    with open(files["b_one_twin"]) as fh:
        text = fh.read()
    broken = text.replace(
        "row: @lift:qf @sym:# s0 1/2 @twin:s0 1/2",
        "row: @lift:qf @sym:# @lift:qn 1")
    bad = tmp_path / "broken_twin.pa"
    bad.write_text(broken)
    assert main(["check-p1", str(bad), "--v1", "a.@sym:$", "--v2", "a"]) == 1
    assert capsys.readouterr().out.startswith("FAIL: step 0")


def test_search(files, capsys):
    assert main(["search", files["b_half"], "--max-len", "8"]) == 0
    out = capsys.readouterr().out
    assert "word: a\n" in out
    assert "prob: 1/2\n" in out
    assert "explored: 9\n" in out
    assert "exhausted: true\n" in out


def test_search_without_letters_at_a_huge_max_len(tmp_path, capsys):
    path = tmp_path / "no_letters.pa"
    path.write_text("format: pa/1\nstates: q\nletters:\ninitial: q 1\naccepting: q\n")
    start = time.perf_counter()
    assert main(["search", str(path), "--max-len", str(10**12)]) == 0
    assert capsys.readouterr().out == "word: \nprob: 1\nexplored: 1\nexhausted: true\n"
    assert main(["schedule", str(path), "--k", "2", "--max-len", str(10**12)]) == 0
    assert capsys.readouterr().out == "u1: \nu2: \n"
    assert time.perf_counter() - start < 1


def test_search_budget_exceeded(files, capsys):
    assert main(["search", files["b_one"], "--max-len", "64",
                 "--budget", "10"]) == 3
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("max_len", (100_000, 10**9))
@pytest.mark.parametrize("command", (["search"], ["schedule", "--k", "1"]))
def test_huge_max_len_is_refused_at_once(files, capsys, command, max_len):
    start = time.perf_counter()
    assert main([command[0], files["b_half_lift"], *command[1:],
                 "--max-len", str(max_len)]) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        f"error: sweep of at least 2^{max_len} words exceeds the budget of 1048576\n")


@pytest.mark.parametrize("command", (["search"], ["schedule", "--k", "1"]))
def test_negative_budget_is_an_input_error(files, capsys, command):
    argv = [command[0], files["b_half"], *command[1:], "--max-len", "3"]
    assert main([*argv, "--budget", "-1"]) == 2
    assert capsys.readouterr() == ("", "error: budget must be >= 0, got -1\n")
    assert main([*argv, "--budget", "0"]) == 3
    assert capsys.readouterr() == ("", "error: sweep of 4 words exceeds the budget of 0\n")


def test_schedule_budget_exceeded(files, capsys):
    assert main(["schedule", files["b_one"], "--k", "1", "--max-len", "64",
                 "--budget", "10"]) == 3
    assert "budget" in capsys.readouterr().err


def test_schedule_k_is_bounded_by_the_budget(tmp_path, capsys):
    path = str(tmp_path / "one.pa")
    save_pa(Pa(("s0",), ("a",), {"s0": 1}, {("s0", "a"): {"s0": 1}}, accepting=("s0",)), path)
    assert main(["schedule", path, "--k", "1000", "--max-len", "1", "--budget", "1000"]) == 0
    assert capsys.readouterr().out == "".join(f"u{i}: \n" for i in range(1, 1001))
    assert main(["schedule", path, "--k", "1001", "--max-len", "1", "--budget", "1000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: k of 1001 exceeds the budget of 1000\n"


def test_schedule_success(files, capsys):
    assert main(["schedule", files["b_one"], "--k", "3", "--max-len", "4"]) == 0
    assert capsys.readouterr().out == "u1: a\nu2: a\nu3: a\n"


def test_schedule_failure(files, capsys):
    assert main(["schedule", files["b_half"], "--k", "1", "--max-len", "6"]) == 1
    assert "threshold 1-2^-1" in capsys.readouterr().err


def test_certify_pass(files, capsys):
    assert main(["certify", files["b_one_twin"],
                 "--schedule", "a.@sym:$,a.@sym:$"]) == 0
    out = capsys.readouterr().out
    assert "checkpoint 1: position=2 norm=1 threshold=1/2 ok" in out
    assert out.endswith("PASS\n")


def test_certify_fail(files, capsys):
    assert main(["certify", files["b_half_twin"], "--schedule", "a.@sym:$"]) == 1
    out = capsys.readouterr().out
    assert "norm=1/2 threshold=1/2 FAIL" in out
    assert out.endswith("FAIL\n")


def test_certify_rejects_the_reset_letter(files, capsys):
    assert main(["certify", files["b_one_twin"], "--schedule", "a.@sym:#.a"]) == 2
    assert capsys.readouterr().err == (
        "error: schedule word 1: reset letter '@sym:#' at position 1 not allowed here\n")


@pytest.mark.parametrize("argv, bad, block", (
    (["certify", "b_one", "--schedule", "a"], "b_one", "twin"),
    (["check-p2", "b_one_twin", "b_one_twin", "--word", "a"], "b_one_twin", "lift"),
    (["check-p2", "b_one_lift", "b_one_lift", "--word", "a"], "b_one_lift", "twin"),
))
def test_missing_metadata_block_is_input_error(files, capsys, argv, bad, block):
    assert main([files.get(arg, arg) for arg in argv]) == 2
    assert capsys.readouterr().err == f"error: {files[bad]} carries no {block} metadata block\n"


# a letter "b" in the lift of b_one, with a row for every state
_ADD_LETTER_B = [("letters: a @sym:$", "letters: a @sym:$ b"),
                 ("lift.qf:", "row: s0 b s0 1\nrow: sA b sA 1\nrow: @lift:qf b @lift:qn 1\n"
                              "row: @lift:qn b @lift:qn 1\nlift.qf:")]
_PAIRS = ("twin.pair: s0 @twin:s0\n", "twin.pair: sA @twin:sA\n",
          "twin.pair: @lift:qn @twin:@lift:qn\n")
_CERTIFY = ["certify", "FILE", "--schedule", "a"]
_TWIN = ["twin", "FILE", "-o", "OUT"]


@pytest.mark.parametrize("name, edits, argv, message", (
    # parse_pa
    ("b_one", [("initial: s0 1", "initial:")], ["validate", "FILE"],
     "line 4: initial distribution needs at least one state/probability pair"),
    ("b_one", [("initial: s0 1", "initial: s0 1/2 s0 1/2")], ["validate", "FILE"],
     "line 4: initial distribution mentions 's0' twice"),
    ("b_one", [("row: s0 a sA 1", "row: s0 a sA 1/2 sA 1/2")], ["validate", "FILE"],
     "line 6: row mentions 'sA' twice"),
    ("b_one", [("states: s0 sA", "states:")], ["validate", "FILE"],
     "line 2: at least one state is required"),
    ("b_one", [("letters: a", "letters: a a")], ["validate", "FILE"],
     "line 3: duplicate letters"),
    ("b_one_twin", [(pair, "") for pair in _PAIRS], _CERTIFY,
     "twin metadata incomplete: no twin.pair lines"),
    ("b_one_twin", [("twin.pair: s0 @twin:s0", "twin.pair: s0")], _CERTIFY,
     "line 33: twin.pair needs ORIGINAL HAT"),
    ("b_one_twin", [(_PAIRS[1], _PAIRS[1] * 2)], _CERTIFY,
     "line 35: duplicate twin.pair entry for 'sA'/'@twin:sA'"),
    ("b_one_twin", [(_PAIRS[1], "twin.pair: sA @twin:s0\n")], _CERTIFY,  # a hat named twice
     "line 34: duplicate twin.pair entry for 'sA'/'@twin:s0'"),
    # LiftedPa roles
    ("b_one_lift", [("lift.qf: @lift:qf", "lift.qf: nosuch")], _TWIN,
     "success sink 'nosuch' is not a state"),
    ("b_one_lift", [("lift.qn: @lift:qn", "lift.qn: nosuch")], _TWIN,
     "failure sink 'nosuch' is not a state"),
    ("b_one_lift", [("lift.qn: @lift:qn", "lift.qn: @lift:qf")], _TWIN,
     "success and failure sinks must differ"),
    ("b_one_lift", [("lift.dollar: @sym:$", "lift.dollar: nosuch")], _TWIN,
     "commit letter 'nosuch' is not in the alphabet"),
    ("b_one_lift", [("lift.source: s0 sA", "lift.source: s0 sA nosuch")], _TWIN,
     "source states must be states of the automaton"),
    ("b_one_lift", [("lift.source: s0 sA", "lift.source: s0 sA @lift:qn")], _TWIN,
     "sinks cannot be source states"),
    # TwinPa roles
    ("b_one_twin", [("twin.pair: s0 @twin:s0", "twin.pair: s0 sA")], _CERTIFY,
     "a state cannot be both an original and a hat"),
    ("b_one_twin", [(_PAIRS[1], "")], _CERTIFY,
     "twin map must cover every state except the success sink"),
    ("b_one_twin", [("twin.q0: s0", "twin.q0: nosuch")], _CERTIFY,
     "start state 'nosuch' missing from the twin map"),
    ("b_one_twin", [("twin.qn: @lift:qn", "twin.qn: nosuch")], _CERTIFY,
     "failure sink state 'nosuch' missing from the twin map"),
    ("b_one_twin", [("twin.q0hat: @twin:s0", "twin.q0hat: @twin:sA")], _CERTIFY,
     "q0_hat must be the hat of q0"),
    ("b_one_twin", [("twin.hash: @sym:#", "twin.hash: nosuch")], _CERTIFY,
     "reset letter 'nosuch' is not in the alphabet"),
    ("b_one_twin", [("twin.dollar: @sym:$", "twin.dollar: nosuch")], _CERTIFY,
     "commit letter 'nosuch' is not in the alphabet"),
    ("b_one_twin", [("twin.hash: @sym:#", "twin.hash: @sym:$")], _CERTIFY,
     "reset and commit letters must differ"),
    # _require_lifted and the start state, through `twin`
    ("b_one_lift", [("accepting: @lift:qf", "accepting: sA @lift:qf")], _TWIN,
     "accepting set must be exactly the success sink"),
    ("b_one_lift", [("lift.source: s0 sA", "lift.source: s0")], _TWIN,
     "states must be the source states plus the two sinks"),
    ("b_one_lift", [("row: s0 @sym:$ @lift:qn 1", "row: s0 @sym:$ @lift:qn 1/2 @lift:qf 1/2")],
     _TWIN, "commit row of 's0' must be concentrated on one sink, got ['@lift:qf', '@lift:qn']"),
    ("b_one_lift", [("row: @lift:qf a @lift:qn 1", "row: @lift:qf a @lift:qf 1")], _TWIN,
     "sink row (@lift:qf,a) must go to the failure sink"),
    ("b_one_lift", [("initial: s0 1", "initial: s0 1/2 sA 1/2")], _TWIN,
     "twinning needs an initial distribution concentrated on one state"),
    ("b_one_lift", [("initial: s0 1", "initial: @lift:qf 1")], _TWIN,
     "the start state cannot be the success sink"),
    # a twin checked against a lift it was not built from
    ("b_one_twin", [("twin.hash: @sym:#", "twin.hash: @sym:$"),
                    ("twin.dollar: @sym:$", "twin.dollar: @sym:#")],
     ["check-p2", "b_one_lift", "FILE", "--word", "a"],
     "role mismatch: the twin does not belong to this lifted automaton"),
    ("b_one_twin", [], ["check-p2", "b_one_lift", "b_half_twin", "--word", "a"],
     "twin map does not cover the lifted automaton's states"),
    ("b_one_lift", _ADD_LETTER_B,
     ["check-p2", "FILE", "b_one_twin", "--word", "a"],
     "alphabet mismatch between lifted automaton and twin"),
    ("b_one", [], ["schedule", "FILE", "--k", "0", "--max-len", "3"], "k must be >= 1, got 0"),
    # load_pa
    ("b_one", [("format: pa/1\n", "format: pa/1\n#" + "x" * paformat.MAX_PA_CHARS + "\n")],
     ["validate", "FILE"], ".pa file longer than the limit of 10,000,000 characters"),
    # witness_schedule_search: a word of probability 1 would fill every rung,
    # so k is bounded whatever the budget
    ("b_one", [], ["schedule", "FILE", "--k", str(10**12), "--max-len", "2",
                   "--budget", str(10**12)], "k must be <= 1048576, got 1000000000000"),
))
def test_input_errors_name_their_cause(files, tmp_path, capsys, name, edits, argv, message):
    # `name`'s document with each `old` text replaced by `new` is FILE
    with open(files[name], encoding="utf-8") as fh:
        text = fh.read()
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    edited, out = tmp_path / "edited.pa", tmp_path / "out.pa"
    edited.write_text(text, encoding="utf-8")
    paths = {**files, "FILE": str(edited), "OUT": str(out)}
    assert main([paths.get(arg, arg) for arg in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("lines, message", (
    ([], "missing 'format: pa/1' line"),
    (["# a comment only"], "missing 'format: pa/1' line"),
    (["format: pa/1", "format: pa/1"], "line 2: duplicate 'format' line"),
    (["format: pa/1", "states: s", "letters: a", "initial: s 1", "accepting:", "row: s a s"],
     "line 6: row needs STATE LETTER and at least one target pair"),
))
def test_grammar_errors_name_their_line(tmp_path, capsys, lines, message):
    path = tmp_path / "bad.pa"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_absorb(files, capsys):
    assert main(["absorb", files["b_one_twin"], "--prefix", "a.@sym:$",
                 "--horizon", "5"]) == 0
    assert capsys.readouterr().out == "PASS\n"


def test_absorb_precondition(files, capsys):
    assert main(["absorb", files["b_one_twin"], "--prefix", "a.@sym:$.@sym:#",
                 "--horizon", "5"]) == 2


@pytest.mark.parametrize("row, prefix, reason", [
    # on b_one's twin, "a" puts 1/2 on sA and 1/2 on its twin, and the
    # commit letter sends both to the success sink
    (("sA", "@sym:$", {"sA": 1}), "a.@sym:$",
     "step 2: mass outside the sinks, on ['sA']"),
    (("sA", "@sym:$", {"@lift:qn": 1}), "a.@sym:$",
     "step 2: failure pair unbalanced (1/2 vs 0)"),
    (("@lift:qf", "a", {"@lift:qn": 1}), "a.@sym:$.a",
     "step 3: expected the half/half failure pair, got Dist({@lift:qn: 1})"),
    # past the prefix: the first sweep steps from the success sink, the
    # second from the failure pair
    (("@lift:qf", "a", {"@lift:qn": 1}), "a.@sym:$",
     "step 3 via 'a': expected the half/half failure pair, got Dist({@lift:qn: 1})"),
    (("@lift:qn", "a", {"@lift:qn": 1}), "a.@sym:$",
     "step 4 via 'a': expected the half/half failure pair, "
     "got Dist({@lift:qn: 3/4, @twin:@lift:qn: 1/4})"),
    # a pair (2, 1, 1) / 4: each mass is written in lowest terms
    (("@lift:qf", "a", {"@lift:qn": "1/2", "@twin:@lift:qn": "1/4", "s0": "1/4"}), "a.@sym:$",
     "step 3 via 'a': expected the half/half failure pair, "
     "got Dist({@lift:qn: 1/2, @twin:@lift:qn: 1/4, s0: 1/4})"),
])
def test_absorb_failures(tmp_path, capsys, row, prefix, reason):
    bad = corrupted(twin(lift(b_one())), *row)
    assert (dollar_absorption_check(bad, prefix.split("."), 3)
            == CheckResult(False, reason))
    path = str(tmp_path / "bad.pa")
    save_pa(bad, path)
    assert main(["absorb", path, "--prefix", prefix, "--horizon", "3"]) == 1
    assert capsys.readouterr() == (f"FAIL: {reason}\n", "")


def _absorb_corpus(rng: random.Random, n: int):
    """`n` (twin, prefix, horizon) cases: the twins of `b_one`, `b_half` and
    random instances with one row on a non-reset letter replaced, and for
    a paired state often its hat's row too; a sink row half the time. On
    `b_one`'s twin, a prefix that ends in "a" and the commit letter puts
    all mass on the success sink, so a broken failure-pair row shows only
    in the second sweep past the prefix."""
    twins = [twin(lift(b)) for b in (b_one(), b_one(), b_half())] + [
        twin(lift(random_value1_instance(rng, max_states=3, max_letters=2)))
        for _ in range(3)]
    for _ in range(n):
        c = rng.choice(twins)
        sinks = (c.q_f, c.q_n, c.twin_of[c.q_n])
        q = rng.choice(sinks if rng.random() < 0.5 else c.pa.states)
        letter = rng.choice(c.lifted_alphabet)
        row = random_dist(rng, rng.sample(c.pa.states, rng.randint(1, 3)), 4)
        bad = corrupted(c, q, letter, row)
        if q in c.twin_of and rng.random() < 0.7:
            bad = corrupted(bad, c.twin_of[q], letter, row)
        prefix = (random_word(rng, c.pa.alphabet, 2) + ("a", c.dollar)
                  + random_word(rng, c.lifted_alphabet, 2) * rng.randint(0, 1))
        yield bad, prefix, rng.choice((0, 1, 2, 3, 10 ** 6))


def test_absorb_matches_the_oracle_on_corrupted_twins(tmp_path, capsys):
    # every verdict, through the API and the CLI
    verdicts = set()
    path = str(tmp_path / "bad.pa")
    for bad, prefix, horizon in _absorb_corpus(random.Random(71), 120):
        want = reference_absorb(bad, prefix, horizon)
        assert dollar_absorption_check(bad, prefix, horizon) == want
        save_pa(bad, path)
        argv = ["absorb", path, "--prefix", ".".join(prefix), "--horizon", str(horizon)]
        assert main(argv) == (0 if want.ok else 1)
        assert capsys.readouterr() == ("PASS\n" if want.ok else f"FAIL: {want.reason}\n", "")
        if want.ok:
            verdicts.add("PASS")
            continue
        kind = next(k for k in ("outside the sinks", "unbalanced", "via", "expected")
                    if k in want.reason)
        step = int(want.reason.split()[1].rstrip(":"))
        verdicts.add(f"via {step - len(prefix)}" if kind == "via" else kind)
    # "via 1" and "via 2": the sweeps from the reached pair and from the failure pair
    assert verdicts == {"PASS", "outside the sinks", "unbalanced", "expected", "via 1", "via 2"}


def _odd_base_twin() -> TwinPa:
    """The twin of `b_one` with every half/half split made 1/3 and 2/3, so
    that every denominator, and so the kernel's base, is odd."""
    c = twin(lift(b_one()))

    def thirds(d):
        (q, _), *rest = d.items()
        return {q: Fraction(1, 3), rest[0][0]: Fraction(2, 3)} if rest else d

    pa = Pa(c.pa.states, c.pa.alphabet, thirds(c.pa.initial),
            {key: thirds(row) for key, row in c.pa.delta.items()}, c.pa.accepting)
    return rebuilt(c, pa=pa)


@pytest.mark.parametrize("horizon", (0, 1, 3, 100))
@pytest.mark.parametrize("prefix, reason", (
    ("a.@sym:$", "step 3 via 'a': expected the half/half failure pair, "
                 "got Dist({@lift:qn: 1/3, @twin:@lift:qn: 2/3})"),
    ("a.@sym:$.a.a", "step 3: expected the half/half failure pair, "
                     "got Dist({@lift:qn: 1/3, @twin:@lift:qn: 2/3})"),
))
def test_absorb_on_an_odd_base(tmp_path, capsys, prefix, reason, horizon):
    # no pair over an odd base is the half/half failure pair; at horizon 0
    # only the step after the commit letter is checked, where all mass
    # sits on the success sink
    c = _odd_base_twin()
    expected = CheckResult(True) if horizon == 0 else CheckResult(False, reason)
    assert dollar_absorption_check(c, prefix.split("."), horizon) == expected
    path = str(tmp_path / "odd.pa")
    save_pa(c, path)
    assert main(["absorb", path, "--prefix", prefix, "--horizon", str(horizon)]) == (
        0 if expected else 1)
    assert capsys.readouterr() == ("PASS\n" if expected else f"FAIL: {reason}\n", "")


def test_absorb_negative_horizon(files, capsys):
    c = twin(lift(b_one()))
    with pytest.raises(InputError) as err:
        dollar_absorption_check(c, ("a", c.dollar), -1)
    assert str(err.value) == "horizon must be >= 0, got -1"
    assert main(["absorb", files["b_one_twin"], "--prefix", "a.@sym:$",
                 "--horizon", "-1"]) == 2
    assert capsys.readouterr() == ("", "error: horizon must be >= 0, got -1\n")


def test_halfbound(files, capsys):
    assert main(["halfbound", files["b_one_twin"],
                 "--word", "a.@sym:#.a"]) == 0
    assert capsys.readouterr().out == "PASS\n"


def test_halfbound_rejects_commit(files, capsys):
    assert main(["halfbound", files["b_one_twin"], "--word", "a.@sym:$"]) == 2


def test_main_reads_sys_argv_by_default(files, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["pasynch", "accept", files["b_half"], "--word", "a.a"])
    assert main() == 0
    assert capsys.readouterr().out == "1/2\n"
    monkeypatch.setattr(sys, "argv", ["pasynch", "--wat"])
    assert main() == 2
    assert "pasynch: error: " in capsys.readouterr().err


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2


def test_reused_parser_gives_the_same_results(files):
    sequence = (["--help"], ["search", files["b_half"]], ["frobnicate"],
                ["accept", files["b_half"], "--word", "a.a"])

    def one_pass():
        results = []
        for argv in sequence:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            results.append((code, out.getvalue(), err.getvalue()))
        return results

    first = one_pass()
    assert [code for code, _, _ in first] == [0, 2, 2, 0]
    assert first[0][1].startswith("usage: pasynch")
    assert "--max-len" in first[1][2]
    assert first[3][1] == "1/2\n"
    assert one_pass() == first
    assert _build_parser() is _build_parser()


def test_unknown_flag(files, capsys):
    assert main(["accept", files["b_one"], "--word", "a", "--wat"]) == 2


def test_missing_file(capsys):
    assert main(["accept", "/nonexistent/x.pa", "--word", "a"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_non_utf8_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "utf16.pa"
    path.write_bytes(b"\xff\xfe" + "format: pa/1\n".encode("utf-16-le"))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")


@pytest.mark.parametrize("command, automata", (
    (["lift", "b_one", "-o", "OUT"], 2),
    (["twin", "b_one_lift", "-o", "OUT"], 2),
    (["schedule", "b_one", "--k", "2", "--max-len", "2"], 1),
))
def test_each_automaton_is_validated_once(files, tmp_path, monkeypatch, command, automata):
    made = []

    def counted(violations):
        made.append(violations)
        return report_type(violations)

    report_type = core.ValidationReport
    monkeypatch.setattr(core, "ValidationReport", counted)
    out = str(tmp_path / "out.pa")
    argv = [files.get(arg, out if arg == "OUT" else arg) for arg in command]
    assert main(argv) == 0
    assert made == [()] * automata


def test_bad_word_token(files, capsys):
    assert main(["accept", files["b_one"], "--word", "a..a"]) == 2
    assert "empty letter token" in capsys.readouterr().err


def test_unknown_letter_exit(files, capsys):
    assert main(["accept", files["b_one"], "--word", "z"]) == 2


def test_lasso_huge_reps_is_input_error(files, capsys):
    assert main(["lasso", files["b_one_twin"], "--loop", "a",
                 "--reps", "99999999999999999999"]) == 2
    assert "too long" in capsys.readouterr().err


def test_lasso_csv_streams_the_same_bytes(files, tmp_path, capsys):
    with open(files["b_half_twin"]) as fh:
        c = parse_pa(fh.read())
    out = tmp_path / "lasso.csv"
    assert main(["lasso", files["b_half_twin"], "--stem", "a.@sym:$",
                 "--loop", "@sym:#.a.@sym:$", "--reps", "4", "--csv", str(out)]) == 0
    want = io.StringIO(newline="")
    write_trace_csv(c.pa.states, lasso_trace(c.pa, ("a", c.dollar), (c.hash, "a", c.dollar), 4),
                    want)
    assert out.read_bytes() == want.getvalue().encode()
    assert main(["trace", files["b_half_twin"], "--word", "a.@sym:$.@sym:#.a"]) == 0
    want = io.StringIO()
    write_trace_csv(c.pa.states, norm_trace(c.pa, ("a", c.dollar, c.hash, "a")), want)
    assert capsys.readouterr().out == want.getvalue()


def test_trace_and_lasso_csv_match_fraction_stepping(tmp_path):
    # kernel-built rows reduce each mass over the automaton's base; the
    # bytes equal those of rows built by per-entry `Fraction` stepping,
    # on automata with large-prime and prime-power denominators
    rng = random.Random(59)
    out, path = tmp_path / "out.csv", str(tmp_path / "pa.pa")
    for _ in range(25):
        pa = family_pa(rng)
        if not pa.validate().ok:
            continue
        save_pa(pa, path)
        stem = tuple(rng.choice(pa.alphabet) for _ in range(rng.randint(0, 30)))
        loop = tuple(rng.choice(pa.alphabet) for _ in range(rng.randint(1, 3)))
        reps = rng.randint(0, 10)
        for argv, word in ((["trace", path, "--word", ".".join(stem)], stem),
                           (["lasso", path, "--stem", ".".join(stem), "--loop", ".".join(loop),
                             "--reps", str(reps)], stem + loop * reps)):
            assert main(argv + ["--csv", str(out)]) == 0
            dists = reference_outcome(pa, word)
            want = io.StringIO(newline="")
            write_trace_csv(pa.states, NormTrace(tuple(
                TraceEntry(i, word[i - 1] if i else None, d, d.norm())
                for i, d in enumerate(dists))), want)
            assert out.read_bytes() == want.getvalue().encode()


def test_lasso_and_trace_check_letters_before_opening_the_csv(files, tmp_path, capsys):
    out = tmp_path / "never.csv"
    assert main(["lasso", files["b_one_twin"], "--loop", "a.z", "--reps", "3",
                 "--csv", str(out)]) == 2
    assert "unknown letter 'z' at position 1" in capsys.readouterr().err
    assert main(["trace", files["b_one_twin"], "--word", "a.z", "--csv", str(out)]) == 2
    assert not out.exists()


# The fuzz test's automata: b_one and b_half, one with no letters and one
# with non-ASCII names, each written with its lift and twin (`FIXTURES`);
# `bad_twin`, b_one's twin with four rows changed so that every twin check
# fails on some words; and `short`, whose row sums to 1/2, so that only
# `validate` reads it.
FUZZ_INSTANCES = {
    "b_one": b_one(), "b_half": b_half(),
    "empty": Value1Instance(Pa(("q",), (), {"q": 1}, {}, ("q",))),
    "umlaut": Value1Instance(Pa(("ö", "Ω"), ("a", "ä"), {"ö": 1}, {
        ("ö", "a"): {"ö": Fraction(2, 3), "Ω": Fraction(1, 3)}, ("ö", "ä"): {"ö": 1},
        ("Ω", "a"): {"Ω": 1}, ("Ω", "ä"): {"ö": 1}}, ("Ω",))),
}
SHORT = "format: pa/1\nstates: s0\nletters: a\ninitial: s0 1\naccepting:\nrow: s0 a s0 1/2\n"


def _read_only_holds() -> bool:
    """Whether this user is refused a write to a file of mode 0o444."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch, "ro")
        path.touch(0o444)
        return not os.access(path, os.W_OK)


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("fuzz")
    paths = _write_fixtures(tmp_path, FUZZ_INSTANCES)
    paths["bad_twin"] = str(tmp_path / "bad_twin.pa")
    bad = twin(lift(b_one()))
    for row in (("s0", "a", {"sA": 1}), ("@lift:qf", "a", {"@lift:qn": 1}),
                ("@lift:qf", "@sym:#", {"@lift:qn": 1}), ("sA", "@sym:#", {"sA": 1})):
        bad = corrupted(bad, *row)
    save_pa(bad, paths["bad_twin"])
    paths["short"] = str(tmp_path / "short.pa")
    Path(paths["short"]).write_text(SHORT, encoding="utf-8")
    if "ro.pa" in OUTPUTS:
        ro = tmp_path / "ro.pa"
        ro.write_bytes(Path(paths["b_half_lift"]).read_bytes())
        ro.chmod(0o444)
    return paths


@pytest.fixture(scope="module")
def fuzz_bytes(fuzz_files):
    """The bytes of each file no command may change, read before any runs."""
    kept = [Path(fuzz_files[name]) for name in FIXTURES]
    kept += [Path(fuzz_files["dir"], "ro.pa")] if "ro.pa" in OUTPUTS else []
    return {path: path.read_bytes() for path in kept}


# the files an argv names, resolved in the test: the fixtures, and outputs,
# which never overwrite a fixture; of these, `WRITTEN` are read back
INSTANCES = tuple(FUZZ_INSTANCES)
LIFTS = tuple(f"{name}_lift" for name in INSTANCES)
TWINS = tuple(f"{name}_twin" for name in INSTANCES) + ("bad_twin",)
FIXTURES = INSTANCES + LIFTS + TWINS + ("short",)
WRITTEN = ("out.pa", "out.csv", os.path.join("missing", "x.pa"), "out\udcff.pa")
DEVICES = tuple(dev for dev in ("/dev/null", "/dev/full") if os.path.exists(dev))
OUTPUTS = WRITTEN + ("dir",) + DEVICES + (("ro.pa",) if _read_only_holds() else ())
# the values of each kind a well-formed argv gives a flag, and the odd ones
# a fault gives it; a lone surrogate is how POSIX decodes a non-UTF-8 byte
VALUES = {"word": ("", "a", "a.a", "a.@sym:$", "@sym:#.a"),
          "schedule": ("a", "a.a,a", "a.@sym:$,a"),
          "int": ("-1", "0", "1", "2", "3", "6", "100"),
          "out": ("out.pa", "out.csv", "out\udcff.pa")}
HUGE = (10**12, -10**12, -10**30, sys.maxsize, sys.maxsize + 1)
ODD = {"word": ("z", "a..a", "@sym:$", "a.ä", "a.\udcff"),
       "schedule": ("\udcff", "a,,a"),
       "int": tuple(str(n) for n in HUGE),
       "out": tuple(name for name in OUTPUTS if name not in VALUES["out"])}
# stdout's room, as `_Stdout` takes it, when it is drawn to fail
ROOMS = (0, 8, 64)

# subcommand -> (the fixtures each of its file arguments is drawn from, each
# of its flags with the kind of value it takes); only OPTIONAL flags may be
# left out of a well-formed argv. A twin's start is not a single state, so
# only instances and lifts load for `search` and `schedule`.
WELL_FORMED = {
    "validate": ((FIXTURES,), {}),
    "run": ((FIXTURES,), {"--word": "word"}),
    "accept": ((FIXTURES,), {"--word": "word"}),
    "trace": ((FIXTURES,), {"--word": "word", "--csv": "out"}),
    "lasso": ((FIXTURES,), {"--stem": "word", "--loop": "word", "--reps": "int", "--csv": "out"}),
    "lift": ((INSTANCES,), {"-o": "out"}),
    "twin": ((LIFTS,), {"-o": "out"}),
    "check-p1": ((TWINS,), {"--v1": "word", "--v2": "word"}),
    "check-p2": ((LIFTS, TWINS), {"--word": "word"}),
    "search": ((INSTANCES + LIFTS,), {"--max-len": "int", "--budget": "int"}),
    "schedule": ((INSTANCES + LIFTS,), {"--k": "int", "--max-len": "int", "--budget": "int"}),
    "certify": ((TWINS,), {"--schedule": "schedule"}),
    "absorb": ((TWINS,), {"--prefix": "word", "--horizon": "int"}),
    "halfbound": ((TWINS,), {"--word": "word"}),
}
OPTIONAL = ("--stem", "--csv")
KIND = {flag: kind for _, flags in WELL_FORMED.values() for flag, kind in flags.items()}


def _unbounded(argv) -> bool:
    """`argv` may legitimately ask for 10^12 steps: a lasso of that many
    repetitions, or a search with `--max-len` and `--budget` both that large."""
    value, big = dict(zip(argv, argv[1:])), {str(n) for n in HUGE if n > 0}
    if argv[0] == "lasso":
        return value.get("--reps") in big
    return argv[0] in ("search", "schedule") and {value.get("--max-len"), value.get("--budget")} <= big


@st.composite
def cli_argvs(draw):
    """`(argv, room)`: an argv for `main`, its files named as in `FIXTURES`
    and `OUTPUTS`, and the room of its stdout (`_Stdout`), None in 7 of 8.

    One `random.Random`, seeded with 16 drawn bytes, makes every choice, as
    Hypothesis's own choices cluster and repeat. It builds a well-formed
    argv, and gives half of them one to three faults."""
    rng = random.Random(draw(st.binary(min_size=16, max_size=16)))
    command = rng.choice(sorted(WELL_FORMED))
    file_kinds, kinds = WELL_FORMED[command]
    files = [rng.choice(names) for names in file_kinds]
    flags = [[flag, rng.choice(VALUES[kind])] for flag, kind in kinds.items()
             if flag not in OPTIONAL or rng.random() < 0.5]
    for _ in range(rng.randint(1, 3) if rng.random() < 0.5 else 0):
        fault = rng.choices(range(5), (1, 4, 4, 4, 4))[0]  # 0 ends the parse at once
        if fault == 0:  # an unknown command
            command, files = "frobnicate", []
        elif fault == 1 and files:  # a file swapped for any fixture or output
            files[rng.randrange(len(files))] = rng.choice(FIXTURES + OUTPUTS)
        elif fault == 2 and flags:  # a flag left out, required or not
            del flags[rng.randrange(len(flags))]
        elif fault == 3 and flags:  # a value of any kind, odd ones too; an output stays one
            pair = rng.choice(flags)
            kind = "out" if KIND[pair[0]] == "out" else rng.choice(("word", "schedule", "int"))
            pair[1] = rng.choice(VALUES[kind] + ODD[kind])
        elif fault == 4:  # another command's flag
            flag = rng.choice([flag for flag in KIND if flag not in kinds])
            flags.insert(rng.randint(0, len(flags)), [flag, rng.choice(VALUES[KIND[flag]])])
    argv = [command, *files, *chain.from_iterable(flags)]
    assume(not _unbounded(argv))
    return argv, rng.choice(ROOMS) if rng.random() < 0.125 else None


def test_the_fuzz_table_has_every_argument_of_each_command():
    """Each subparser parses its `WELL_FORMED` argv, with or without the
    OPTIONAL flags, into just those arguments, ints as `int`: a command or
    flag the CLI gains fails here until the fuzz test draws it."""
    _, commands = _build_parser()
    assert sorted(commands) == sorted(WELL_FORMED)
    for name, parser in commands.items():
        file_kinds, kinds = WELL_FORMED[name]
        files = [f"file{i}" for i in range(len(file_kinds))]
        given = {flag: str(100 + i) for i, flag in enumerate(kinds)}
        args = vars(parser.parse_args(files + list(chain.from_iterable(given.items()))))
        del args["func"]
        want = files + [int(v) if kinds[flag] == "int" else v for flag, v in given.items()]
        assert sorted(map(repr, args.values())) == sorted(map(repr, want)), name
        parser.parse_args(files + [token for flag, v in given.items()
                                   if flag not in OPTIONAL for token in (flag, v)])


def _fuzz_paths(fuzz_files, argv):
    """`argv` with each fixture and output name replaced by its path."""
    paths = {name: fuzz_files[name] for name in FIXTURES}
    paths |= {name: os.path.join(fuzz_files["dir"], name) for name in OUTPUTS}
    paths["dir"] = fuzz_files["dir"]
    return [paths.get(arg, arg) for arg in argv]


class _Stdout(io.StringIO):
    """Stdout as `main` gets it in the fuzz test. Like a process's stdout,
    it takes only what encodes as strict UTF-8. With `room` set, a write
    past `room` characters raises ENOSPC, as on a full device. `close`
    only records that it was called, so the text stays readable."""

    def __init__(self, room):
        super().__init__()
        self.room, self.failed, self.shut = room, False, False

    def write(self, text):
        text.encode("utf-8")
        if self.room is not None:
            if len(text) > self.room:
                self.failed = True
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            self.room -= len(text)
        return super().write(text)

    def close(self):
        self.shut = True


class _Overtime(BaseException):
    """Raised in a call that runs past `CALL_SECONDS`; no `except` in the
    package catches it."""


CALL_SECONDS = 2


@contextlib.contextmanager
def _time_bound():
    """Raise `_Overtime` in the block once it runs `CALL_SECONDS`."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def overtime(signum, frame):
        raise _Overtime

    old = signal.signal(signal.SIGALRM, overtime)
    signal.setitimer(signal.ITIMER_REAL, CALL_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _outcome(main_function, argv, room, outputs):
    """`(code, stdout, stderr, bytes of each of outputs, stdout failed,
    stdout closed)` of one call, None for an output file not there after
    it; a call past `CALL_SECONDS` fails the test."""
    out, err = _Stdout(room), io.StringIO()
    try:
        with _time_bound(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main_function(argv)
    except _Overtime:
        raise AssertionError(f"{argv!r} ran past {CALL_SECONDS} s") from None
    written = [path.read_bytes() if path.exists() else None for path in outputs]
    return code, out.getvalue(), err.getvalue(), written, out.failed, out.shut


def _outcomes(argv, room, outputs):
    """The `_outcome` of `reference_main` and then of `main` on `argv`, each
    from the output files as they were; `main`'s files are left."""
    before = [path.read_bytes() if path.exists() else None for path in outputs]
    want = _outcome(reference_main, argv, room, outputs)
    for path, old, new in zip(outputs, before, want[3]):
        if new != old:  # put back what the reference run changed
            if old is None:
                path.unlink()
            else:
                path.write_bytes(old)
    return want, _outcome(main, argv, room, outputs)


PASS_OR_FAIL = ("check-p1", "check-p2", "absorb", "halfbound")
NO_WORD = re.compile(r"no word of length <= \d+ exceeds threshold 1-2\^-\d+\n")


def _verdict(command, out, err):
    """The exit code that `command`'s output gives, None if it gives none:
    1 only for `validate`'s violations, one `FAIL:` line, `certify`'s
    `FAIL` or `schedule`'s missing word, 0 for any other quiet command."""
    lines = out.splitlines()
    if command == "schedule" and NO_WORD.fullmatch(err):
        return 1
    if err or command not in WELL_FORMED:
        return None
    if command == "validate":
        return 0 if out == "ok\n" else 1 if all(
            line.startswith("violation: ") for line in lines) and lines else None
    if command in PASS_OR_FAIL:
        return 0 if out == "PASS\n" else 1 if len(lines) == 1 and out.startswith("FAIL: ") else None
    if command == "certify":
        return {"PASS": 0, "FAIL": 1}.get(lines[-1] if lines else None)
    return 0


@given(call=cli_argvs())
# a negative budget once exited 3, as if the sweep had overrun it
@example(call=(["search", "b_one", "--max-len", "2", "--budget", "-1"], None))
# a sweep with no letters once grew its suffix depth one length at a time
@example(call=(["search", "empty", "--max-len", str(10**12), "--budget", "6"], None))
# a full device once raised out of `main`; stdout must not be blamed for it
@example(call=(["trace", "b_one", "--word", "a", "--csv", "/dev/full"], None))
# a stdout that fails once raised out of `main`
@example(call=(["validate", "b_one"], 0))
# a word of probability 1 once filled 10^12 rungs
@example(call=(["schedule", "b_one", "--k", str(10**12), "--max-len", "2",
                "--budget", str(10**12)], None))
@settings(max_examples=500, deadline=None)
def test_main_keeps_the_exit_code_contract(fuzz_files, fuzz_bytes, call):
    argv, room = call
    argv = _fuzz_paths(fuzz_files, argv)
    want, got = _outcomes(argv, room, [Path(fuzz_files["dir"], name) for name in WRITTEN])
    code, out, err, _, failed, shut = got
    context = (argv, room, out, err)
    # a command's own parser does what the top-level parser does for it
    assert got == want, context
    assert code in (0, 1, 2, 3), context
    event(f"exit {code}")
    # the code agrees with what the command said: 3 is an overrun of a
    # budget of at least 0, 2 one reported error, with a failed stdout
    # reported as such and closed, and 0 or 1 the command's verdict
    negative_budget = any(flag == "--budget" and value.startswith("-")
                          for flag, value in zip(argv, argv[1:]))
    assert ("cannot write stdout" in err) == failed == shut, context
    if code == 3:
        assert "exceeds the budget" in err and not negative_budget, context
    if code in (2, 3):
        assert err.count("error: ") == 1 and "error: " in err.splitlines()[-1], context
        assert "Traceback" not in err, context
    else:
        assert _verdict(argv[0], out, err) == code, context
    for path, old in fuzz_bytes.items():
        assert path.read_bytes() == old, (path, context)


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["frobnicate", "b_one"],
    ["--wat", "validate", "b_one"], ["-h", "validate", "b_one"],  # an option before the command
    ["validate", "-h"], ["check-p1", "--help"],
    ["validate", "b_one", "b_half", "--wat"],  # extras after a valid command
    ["accept", "--word", "a", "--", "b_one"], ["validate", "--", "b_one"],  # `--` before a file
    ["accept", "b_one", "--word", "a", "--max-len", "2"],  # another command's flag
    ["accept", "b_one", "--word", "a", "--wo", "a.a"],  # an abbreviated flag
    ["lift", "b_one", "-o", "out.pa", "--", "b_half"],
])
def test_main_parses_as_the_top_level_parser_does(fuzz_files, fuzz_bytes, argv):
    argv = _fuzz_paths(fuzz_files, argv)
    want, got = _outcomes(argv, None, [Path(fuzz_files["dir"], name) for name in WRITTEN])
    assert got == want
    assert got[0] in (0, 2)
    for path, old in fuzz_bytes.items():
        assert path.read_bytes() == old, path
