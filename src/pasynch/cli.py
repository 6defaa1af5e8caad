"""Command-line front end.

Words on the command line are letter tokens joined by ".", so
multi-character letters like "@sym:$" stay unambiguous; the empty string
is the empty word. Schedules are ","-separated words.

Exit codes: 0 success/pass, 1 check failed, 2 input error (a stdout that
cannot be written included), 3 budget exceeded.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from typing import Sequence

from .analysis import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    bounded_value_search,
    certificate_check,
    dollar_absorption_check,
    half_bound_check,
    witness_schedule_search,
)
from .core import InputError, Pa, PaError, Word
from .paformat import _output, load_pa, save_pa, write_trace_csv
from .reduction import LiftedPa, TwinPa, Value1Instance, check_p1, check_p2, lift, twin
from .semantics import TraceStream, acceptance_probability, lasso_stream, outcome, trace_stream


def _parse_word(text: str) -> Word:
    if text == "":
        return ()
    parts = text.split(".")
    if any(not p for p in parts):
        raise InputError(f"empty letter token in word {text!r}")
    return tuple(parts)


def _format_word(word: Sequence[str]) -> str:
    return ".".join(word)


def _parse_schedule(text: str) -> list[Word]:
    return [_parse_word(part) for part in text.split(",")]


def _load(path: str, kind: type = Pa, **kw):
    """The automaton in `path` as `kind`: any file gives its `Pa`, and only a
    file with that metadata block gives a `LiftedPa` or `TwinPa`."""
    obj = load_pa(path, **kw)
    if kind is Pa:
        return obj if isinstance(obj, Pa) else obj.pa
    if not isinstance(obj, kind):
        block = "twin" if kind is TwinPa else "lift"
        raise InputError(f"{path} carries no {block} metadata block")
    return obj


def _emit_trace(pa: Pa, trace: TraceStream, csv_path: str | None) -> None:
    if csv_path:
        with _output(csv_path) as fh:
            write_trace_csv(pa.states, trace, fh)
    else:
        write_trace_csv(pa.states, trace, sys.stdout)


def _report(result) -> int:
    if result.ok:
        print("PASS")
        return 0
    print(f"FAIL: {result.reason}")
    return 1


def _cmd_validate(args) -> int:
    report = _load(args.file, require_valid=False).validate()
    if report.ok:
        print("ok")
        return 0
    for violation in report.violations:
        print(f"violation: {violation}")
    return 1


def _cmd_run(args) -> int:
    pa = _load(args.file)
    final = outcome(pa, _parse_word(args.word))[-1]
    for q in pa.states:
        p = final.mass(q)
        if p:
            print(f"{q} {p}")
    return 0


def _cmd_accept(args) -> int:
    pa = _load(args.file)
    print(acceptance_probability(pa, _parse_word(args.word)))
    return 0


def _cmd_trace(args) -> int:
    pa = _load(args.file)
    _emit_trace(pa, trace_stream(pa, _parse_word(args.word)), args.csv)
    return 0


def _cmd_lasso(args) -> int:
    pa = _load(args.file)
    trace = lasso_stream(pa, _parse_word(args.stem), _parse_word(args.loop), args.reps)
    _emit_trace(pa, trace, args.csv)
    return 0


def _cmd_lift(args) -> int:
    instance = Value1Instance(_load(args.file))
    save_pa(lift(instance), args.output)
    return 0


def _cmd_twin(args) -> int:
    lifted = _load(args.file, LiftedPa)
    save_pa(twin(lifted), args.output)
    return 0


def _cmd_check_p1(args) -> int:
    c = _load(args.file, TwinPa)
    return _report(check_p1(c, _parse_word(args.v1), _parse_word(args.v2)))


def _cmd_check_p2(args) -> int:
    lifted = _load(args.lifted, LiftedPa)
    c = _load(args.twin, TwinPa)
    return _report(check_p2(lifted, c, _parse_word(args.word)))


def _cmd_search(args) -> int:
    instance = Value1Instance(_load(args.file))
    result = bounded_value_search(instance, args.max_len, budget=args.budget)
    print(f"word: {_format_word(result.best_word)}")
    print(f"prob: {result.best_prob}")
    print(f"explored: {result.explored}")
    print(f"exhausted: {'true' if result.exhausted else 'false'}")
    return 0


def _cmd_schedule(args) -> int:
    instance = Value1Instance(_load(args.file))
    result = witness_schedule_search(instance, args.k, args.max_len, budget=args.budget)
    for i, word in enumerate(result.words, start=1):
        print(f"u{i}: {_format_word(word)}")
    if result.ok:
        return 0
    print(
        f"no word of length <= {args.max_len} exceeds threshold 1-2^-{result.failed_at}",
        file=sys.stderr,
    )
    return 1


def _cmd_certify(args) -> int:
    c = _load(args.file, TwinPa)
    cert = certificate_check(c, _parse_schedule(args.schedule))
    for i, (pos, norm, threshold) in enumerate(
            zip(cert.checkpoints, cert.norms, cert.thresholds), start=1):
        verdict = "ok" if norm > threshold else "FAIL"
        print(f"checkpoint {i}: position={pos} norm={norm} threshold={threshold} {verdict}")
    print("PASS" if cert.ok else "FAIL")
    return 0 if cert.ok else 1


def _cmd_absorb(args) -> int:
    c = _load(args.file, TwinPa)
    return _report(dollar_absorption_check(c, _parse_word(args.prefix), args.horizon))


def _cmd_halfbound(args) -> int:
    c = _load(args.file, TwinPa)
    return _report(half_bound_check(c, _parse_word(args.word)))


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The argument parser and its subcommand parsers by name, built once
    per process: parsing leaves them unchanged, and help and errors go to
    `sys.stdout`/`sys.stderr` as they are when printed."""
    parser = argparse.ArgumentParser(
        prog="pasynch",
        description="Exact-rational probabilistic-automata toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an automaton file against all invariants")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("run", help="print the final distribution after a word")
    p.add_argument("file")
    p.add_argument("--word", required=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("accept", help="print the acceptance probability of a word")
    p.add_argument("file")
    p.add_argument("--word", required=True)
    p.set_defaults(func=_cmd_accept)

    p = sub.add_parser("trace", help="emit the norm trace of a word as CSV")
    p.add_argument("file")
    p.add_argument("--word", required=True)
    p.add_argument("--csv", help="write to this file instead of stdout")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("lasso", help="norm trace of stem plus repeated loop")
    p.add_argument("file")
    p.add_argument("--stem", default="")
    p.add_argument("--loop", required=True)
    p.add_argument("--reps", required=True, type=int)
    p.add_argument("--csv", help="write to this file instead of stdout")
    p.set_defaults(func=_cmd_lasso)

    p = sub.add_parser("lift", help="adjoin sinks and the commit letter")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("twin", help="duplicate states and add the reset letter")
    p.add_argument("file", help="a lift output (must carry the lift metadata block)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_twin)

    p = sub.add_parser("check-p1", help="reset-replay check on a twin automaton")
    p.add_argument("file")
    p.add_argument("--v1", required=True)
    p.add_argument("--v2", required=True)
    p.set_defaults(func=_cmd_check_p1)

    p = sub.add_parser("check-p2", help="pair-halving check of a twin against its lift")
    p.add_argument("lifted")
    p.add_argument("twin")
    p.add_argument("--word", required=True)
    p.set_defaults(func=_cmd_check_p2)

    p = sub.add_parser("search", help="exhaustive acceptance-probability sweep")
    p.add_argument("file")
    p.add_argument("--max-len", required=True, type=int)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("schedule", help="find words beating the 1-2^-i ladder")
    p.add_argument("file")
    p.add_argument("--k", required=True, type=int,
                   help="number of rungs, 1 to 2^20 (exit 2 above it); "
                        "above --budget exits 3")
    p.add_argument("--max-len", required=True, type=int)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("certify", help="checkpoint-norm certificate for a schedule")
    p.add_argument("file")
    p.add_argument("--schedule", required=True, help="comma-separated words")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("absorb", help="commit-letter absorption check")
    p.add_argument("file")
    p.add_argument("--prefix", required=True)
    p.add_argument("--horizon", required=True, type=int)
    p.set_defaults(func=_cmd_absorb)

    p = sub.add_parser("halfbound", help="norms stay <= 1/2 without the commit letter")
    p.add_argument("file")
    p.add_argument("--word", required=True)
    p.set_defaults(func=_cmd_halfbound)

    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    """Run the command `argv` names (`sys.argv[1:]` by default) and return
    its exit code.

    An argv that starts with a command name is parsed by that command's
    parser alone, as the top-level parser would hand it on: its leftover
    arguments are the top-level parser's "unrecognized arguments" error.
    Any other argv (none, an option first, an unknown command) goes
    through the top-level parser.
    """
    parser, commands = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        command = commands.get(argv[0]) if argv else None
        if command is None:
            args = parser.parse_args(argv)
        else:
            args, extras = command.parse_known_args(argv[1:])
            if extras:
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
            args.command = argv[0]
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    return _run(args)


def _run(args: argparse.Namespace) -> int:
    """Run the parsed command `args` and return its exit code.

    A write to stdout that fails (a closed pipe, a full device) is an
    input error, reported on stderr. Every file is opened through
    `load_pa` or `_output`, which report their own `OSError`, so any other
    is stdout's. Stdout is flushed before the code is returned, so a
    failure in its buffer shows here, and closed once it fails, so the
    interpreter's flush at exit does not fail again on what it still holds.
    """
    # exact numbers are printed whole, past CPython's int/str digit limit
    # (3.10.7 and later; literals read stay bounded by core.MAX_LITERAL_LEN);
    # the caller's limit is restored on return
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        if sys.stdout is not None:  # None when the process started without one
            sys.stdout.flush()
        return code
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        with contextlib.suppress(OSError):
            sys.stdout.close()
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
