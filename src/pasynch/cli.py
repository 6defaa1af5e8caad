"""Command-line front end.

Words on the command line are letter tokens joined by ".", so
multi-character letters like "@sym:$" stay unambiguous; the empty string
is the empty word. Schedules are ","-separated words.

One table, `COMMANDS`, declares each command once: its help, its handler
and its arguments, each file with the kind it loads as. The parser is
built from it, and `_call` loads a command's files, in declared order,
before its handler runs.

Exit codes: 0 success/pass, 1 check failed, 2 input error (a stdout that
cannot be written included), 3 budget exceeded.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from typing import Callable

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


# the kind a file argument of `validate` loads as: its `Pa`, not validated
UNVALIDATED = "unvalidated Pa"


def _load(path: str, kind: object):
    """The automaton in `path` as `kind`: any file gives its `Pa` (validated
    unless `kind` is UNVALIDATED) and the `Value1Instance` of it, and only a
    file with that metadata block gives a `LiftedPa` or `TwinPa`."""
    obj = load_pa(path, require_valid=kind is not UNVALIDATED)
    pa = obj if isinstance(obj, Pa) else obj.pa
    if kind is Pa or kind is UNVALIDATED:
        return pa
    if kind is Value1Instance:
        return Value1Instance(pa)
    if not isinstance(obj, kind):
        block = "twin" if kind is TwinPa else "lift"
        raise InputError(f"{path} carries no {block} metadata block")
    return obj


class _Discard:
    """A text sink that keeps nothing: stdout for a process started without one."""

    def write(self, text: str) -> int:
        return len(text)


def _emit_trace(pa: Pa, trace: TraceStream, csv_path: str | None) -> None:
    if csv_path is not None:  # "" too, which cannot be opened, as `-o ""` cannot
        with _output(csv_path) as fh:
            write_trace_csv(pa.states, trace, fh)
    else:  # with no stdout the rows are made and dropped, as `print` drops its text
        write_trace_csv(pa.states, trace, sys.stdout if sys.stdout is not None else _Discard())


def _report(result) -> int:
    print("PASS" if result.ok else f"FAIL: {result.reason}")
    return 0 if result.ok else 1


def _cmd_validate(args, pa: Pa) -> int:
    report = pa.validate()
    if report.ok:
        print("ok")
        return 0
    for violation in report.violations:
        print(f"violation: {violation}")
    return 1


def _cmd_run(args, pa: Pa) -> None:
    final = outcome(pa, _parse_word(args.word))[-1]
    for q in pa.states:
        p = final.mass(q)
        if p:
            print(f"{q} {p}")


def _cmd_accept(args, pa: Pa) -> None:
    print(acceptance_probability(pa, _parse_word(args.word)))


def _cmd_trace(args, pa: Pa) -> None:
    _emit_trace(pa, trace_stream(pa, _parse_word(args.word)), args.csv)


def _cmd_lasso(args, pa: Pa) -> None:
    trace = lasso_stream(pa, _parse_word(args.stem), _parse_word(args.loop), args.reps)
    _emit_trace(pa, trace, args.csv)


def _cmd_lift(args, instance: Value1Instance) -> None:
    save_pa(lift(instance), args.output)


def _cmd_twin(args, lifted: LiftedPa) -> None:
    save_pa(twin(lifted), args.output)


def _cmd_check_p1(args, c: TwinPa) -> int:
    return _report(check_p1(c, _parse_word(args.v1), _parse_word(args.v2)))


def _cmd_check_p2(args, lifted: LiftedPa, c: TwinPa) -> int:
    return _report(check_p2(lifted, c, _parse_word(args.word)))


def _cmd_search(args, instance: Value1Instance) -> None:
    result = bounded_value_search(instance, args.max_len, budget=args.budget)
    print(f"word: {'.'.join(result.best_word)}")
    print(f"prob: {result.best_prob}")
    print(f"explored: {result.explored}")
    print(f"exhausted: {'true' if result.exhausted else 'false'}")


def _cmd_schedule(args, instance: Value1Instance) -> int:
    result = witness_schedule_search(instance, args.k, args.max_len, budget=args.budget)
    for i, word in enumerate(result.words, start=1):
        print(f"u{i}: {'.'.join(word)}")
    if result.ok:
        return 0
    print(f"no word of length <= {args.max_len} exceeds threshold 1-2^-{result.failed_at}",
          file=sys.stderr)
    return 1


def _cmd_certify(args, c: TwinPa) -> int:
    cert = certificate_check(c, [_parse_word(part) for part in args.schedule.split(",")])
    for i, (pos, norm, threshold) in enumerate(
            zip(cert.checkpoints, cert.norms, cert.thresholds), start=1):
        verdict = "ok" if norm > threshold else "FAIL"
        print(f"checkpoint {i}: position={pos} norm={norm} threshold={threshold} {verdict}")
    print("PASS" if cert.ok else "FAIL")
    return 0 if cert.ok else 1


def _cmd_absorb(args, c: TwinPa) -> int:
    return _report(dollar_absorption_check(c, _parse_word(args.prefix), args.horizon))


def _cmd_halfbound(args, c: TwinPa) -> int:
    return _report(half_bound_check(c, _parse_word(args.word)))


def _arg(*names: str, kind: object = None, **spec) -> tuple:
    """One argument of a command: `add_argument`'s option strings and
    keywords, and for a file the kind `_load` loads it as (None for a flag)."""
    return names, spec, kind


def _file(kind: object, **spec) -> tuple:
    return _arg("file", kind=kind, **spec)


# the flags that more than one command takes
WORD = _arg("--word", required=True)
CSV = _arg("--csv", help="write to this file instead of stdout")
OUTPUT = _arg("-o", "--output", required=True)
MAX_LEN = _arg("--max-len", required=True, type=int)
BUDGET = _arg("--budget", type=int, default=DEFAULT_BUDGET)

# Every command, in the order the top-level help lists them: its help, its
# handler and its arguments (`_arg`), files first. A handler takes the parsed
# arguments and then each file as `_load` loaded it; it only computes and
# prints, and returns the exit code, None for 0.
COMMANDS = {
    "validate": ("check an automaton file against all invariants", _cmd_validate,
                 _file(UNVALIDATED)),
    "run": ("print the final distribution after a word", _cmd_run, _file(Pa), WORD),
    "accept": ("print the acceptance probability of a word", _cmd_accept, _file(Pa), WORD),
    "trace": ("emit the norm trace of a word as CSV", _cmd_trace, _file(Pa), WORD, CSV),
    "lasso": ("norm trace of stem plus repeated loop", _cmd_lasso, _file(Pa),
              _arg("--stem", default=""), _arg("--loop", required=True),
              _arg("--reps", required=True, type=int), CSV),
    "lift": ("adjoin sinks and the commit letter", _cmd_lift, _file(Value1Instance), OUTPUT),
    "twin": ("duplicate states and add the reset letter", _cmd_twin,
             _file(LiftedPa, help="a lift output (must carry the lift metadata block)"), OUTPUT),
    "check-p1": ("reset-replay check on a twin automaton", _cmd_check_p1, _file(TwinPa),
                 _arg("--v1", required=True), _arg("--v2", required=True)),
    "check-p2": ("pair-halving check of a twin against its lift", _cmd_check_p2,
                 _arg("lifted", kind=LiftedPa), _arg("twin", kind=TwinPa), WORD),
    "search": ("exhaustive acceptance-probability sweep", _cmd_search,
               _file(Value1Instance), MAX_LEN, BUDGET),
    "schedule": ("find words beating the 1-2^-i ladder", _cmd_schedule, _file(Value1Instance),
                 _arg("--k", required=True, type=int,
                      help="number of rungs, 1 to 2^20 (exit 2 above it); above --budget exits 3"),
                 MAX_LEN, BUDGET),
    "certify": ("checkpoint-norm certificate for a schedule", _cmd_certify, _file(TwinPa),
                _arg("--schedule", required=True, help="comma-separated words")),
    "absorb": ("commit-letter absorption check", _cmd_absorb, _file(TwinPa),
               _arg("--prefix", required=True), _arg("--horizon", required=True, type=int)),
    "halfbound": ("norms stay <= 1/2 without the commit letter", _cmd_halfbound,
                  _file(TwinPa), WORD),
}


def _call(handler: Callable[..., int | None], arguments: tuple[tuple, ...], args) -> int:
    """The exit code of `handler` run on `args` and then on each file among
    `arguments` (`_arg`), loaded from `args` in declared order: a file that
    does not load stops the command before any word or schedule is parsed."""
    return handler(args, *[_load(getattr(args, names[0]), kind)
                           for names, _, kind in arguments if kind is not None]) or 0


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The argument parser and its subcommand parsers by name, built once
    per process from `COMMANDS`: parsing leaves them unchanged, and help and
    errors go to `sys.stdout`/`sys.stderr` as they are when printed."""
    parser = argparse.ArgumentParser(
        prog="pasynch", description="Exact-rational probabilistic-automata toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, handler, *arguments) in COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for names, spec, _ in arguments:
            command.add_argument(*names, **spec)
        command.set_defaults(func=functools.partial(_call, handler, tuple(arguments)))
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
