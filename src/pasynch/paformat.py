"""Text format for automata, plus CSV export of norm traces.

The `.pa` format is line oriented. Blank lines and lines whose first
non-space character is ``#`` are ignored. Every other line is
``key: tokens...`` with whitespace-separated tokens:

    format: pa/1
    states: NAME ...
    letters: NAME ...
    initial: NAME FRACTION [NAME FRACTION ...]
    accepting: [NAME ...]
    row: STATE LETTER TARGET FRACTION [TARGET FRACTION ...]

`format` must come first; `states`, `letters`, `initial` and `accepting`
appear exactly once; one `row` line per (state, letter) pair. Names are
free-form tokens without whitespace, probabilities are exact ``p/q`` or
integer literals in ASCII digits and are canonicalized on read (``2/4``
reads as ``1/2``).

Automata produced by the constructions carry their role assignments in an
optional metadata block, so downstream tools recover roles without
guessing from names:

    lift.qf: NAME          lift.qn: NAME        lift.dollar: LETTER
    lift.source: NAME ...

    twin.hash: LETTER      twin.q0: NAME        twin.q0hat: NAME
    twin.qf: NAME          twin.qn: NAME        twin.dollar: LETTER
    twin.pair: ORIGINAL HAT                     (one line per pair)

`parse_pa` returns a `TwinPa` or `LiftedPa` when the corresponding block
is present, otherwise a plain `Pa`.
"""
from __future__ import annotations

import csv
from fractions import Fraction
from typing import IO, Sequence

from .core import Dist, InputError, Pa, as_prob
from .reduction import LiftedPa, TwinPa
from .semantics import NormTrace, TraceStream

# The longest `.pa` document `load_pa` reads, in characters: a longer file
# is refused after reading one character more, before anything is parsed.
MAX_PA_CHARS = 10_000_000

# metadata key -> the block class and field it fills, in serialized order; every
# key holds one token except `lift.source`, and `twin_of` comes from `twin.pair` lines
_ROLES = {
    "lift.qf": (LiftedPa, "q_f"), "lift.qn": (LiftedPa, "q_n"),
    "lift.dollar": (LiftedPa, "dollar"), "lift.source": (LiftedPa, "source_states"),
    "twin.hash": (TwinPa, "hash"), "twin.q0": (TwinPa, "q0"), "twin.q0hat": (TwinPa, "q0_hat"),
    "twin.qf": (TwinPa, "q_f"), "twin.qn": (TwinPa, "q_n"), "twin.dollar": (TwinPa, "dollar"),
}
_SINGLE_KEYS = {"format", "states", "letters", "initial", "accepting", *_ROLES}
_SHORT_ROW = "row needs STATE LETTER and at least one target pair"


class FormatError(InputError):
    """A document violates the format grammar."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def _mass_pairs(tokens: list[str], line: int, what: str,
                parsed: dict[str, Fraction]) -> dict[str, Fraction]:
    """Name -> probability for `tokens`; `parsed` memoises literals already read."""
    if not tokens:
        raise FormatError(f"{what} needs at least one state/probability pair", line)
    if len(tokens) % 2:
        raise FormatError(f"{what} has an odd number of tokens", line)
    out: dict[str, Fraction] = {}
    for name, literal in zip(tokens[::2], tokens[1::2]):
        if name in out:
            raise FormatError(f"{what} mentions {name!r} twice", line)
        p = parsed.get(literal)
        if p is None:
            try:
                p = parsed[literal] = as_prob(literal)
            except InputError as exc:
                raise FormatError(str(exc), line) from None
        out[name] = p
    return out


def parse_pa(text: str, *, require_valid: bool = True) -> Pa | LiftedPa | TwinPa:
    """Parse a `.pa` document.

    With `require_valid` (the default) the assembled automaton must pass
    validation; otherwise only the grammar is enforced, so broken automata
    can be loaded for diagnosis.
    """
    singles: dict[str, tuple[list[str], int]] = {}
    rows: list[tuple[str, int]] = []
    pairs: list[tuple[list[str], int]] = []
    first_key: str | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped[0] == "#":
            continue
        key, sep, rest = stripped.partition(":")
        if key == "row" and sep and first_key:  # most lines: split below, each body once
            rows.append((rest, lineno))
            continue
        key = key.strip()
        if not sep:
            raise FormatError("expected 'key: tokens...'", lineno)
        if first_key is None:
            first_key = key
            if key != "format":
                raise FormatError("document must start with 'format: pa/1'", lineno)
        if key == "row":
            rows.append((rest, lineno))
        elif key == "twin.pair":
            pairs.append((rest.split(), lineno))
        elif key in _SINGLE_KEYS:
            if key in singles:
                raise FormatError(f"duplicate {key!r} line", lineno)
            singles[key] = (rest.split(), lineno)
        else:
            raise FormatError(f"unknown key {key!r}", lineno)

    if "format" not in singles:
        raise FormatError("missing 'format: pa/1' line")
    fmt_tokens, fmt_line = singles["format"]
    if fmt_tokens != ["pa/1"]:
        raise FormatError(f"unsupported format {' '.join(fmt_tokens)!r}", fmt_line)
    for required in ("states", "letters", "initial", "accepting"):
        if required not in singles:
            raise FormatError(f"missing {required!r} line")

    state_tokens, state_line = singles["states"]
    if not state_tokens:
        raise FormatError("at least one state is required", state_line)
    if len(set(state_tokens)) != len(state_tokens):
        raise FormatError("duplicate state names", state_line)
    letter_tokens, letter_line = singles["letters"]
    if len(set(letter_tokens)) != len(letter_tokens):
        raise FormatError("duplicate letters", letter_line)

    # every value has passed `as_prob` and every name is a non-empty token,
    # so the distributions are built trusted; one per distinct row body
    parsed: dict[str, Fraction] = {}  # literal text -> value, for this document only
    initial = Dist._trusted(
        _mass_pairs(*singles["initial"], what="initial distribution", parsed=parsed))
    accepting = singles["accepting"][0]

    delta: dict[tuple[str, str], Dist] = {}
    bodies: dict[str, Dist] = {}  # row text after STATE LETTER -> shared row
    for rest, lineno in rows:
        head = rest.split(None, 2)
        if len(head) < 3:
            raise FormatError(_SHORT_ROW, lineno)
        state, letter, body = head
        row = bodies.get(body)
        if row is None:  # a body not read yet: its tokens, checked before the key
            tokens = body.split()
            if len(tokens) < 2:
                raise FormatError(_SHORT_ROW, lineno)
        if (state, letter) in delta:
            raise FormatError(f"duplicate row for ({state},{letter})", lineno)
        if row is None:
            row = bodies[body] = Dist._trusted(
                _mass_pairs(tokens, lineno, what="row", parsed=parsed))
        delta[(state, letter)] = row

    pa = Pa(state_tokens, letter_tokens, initial, delta, accepting)
    if require_valid:
        pa.require_valid()

    kinds = {_ROLES[key][0] for key in singles if key in _ROLES} | ({TwinPa} if pairs else set())
    if len(kinds) > 1:
        raise FormatError("a document cannot carry both lift and twin metadata")
    if not kinds:
        return pa
    kind = kinds.pop()
    roles = [(key, field) for key, (owner, field) in _ROLES.items() if owner is kind]
    for key, _ in roles:
        if key not in singles:
            raise FormatError(f"{key.split('.')[0]} metadata incomplete: missing {key!r}")
    fields: dict[str, object] = {}
    if kind is TwinPa:
        if not pairs:
            raise FormatError("twin metadata incomplete: no twin.pair lines")
        fields["twin_of"] = twin_of = {}
        hats_seen: set[str] = set()
        for tokens, lineno in pairs:
            if len(tokens) != 2:
                raise FormatError("twin.pair needs ORIGINAL HAT", lineno)
            orig, hat = tokens
            if orig in twin_of or hat in hats_seen:
                raise FormatError(f"duplicate twin.pair entry for {orig!r}/{hat!r}", lineno)
            twin_of[orig] = hat
            hats_seen.add(hat)
    for key, field in roles:
        tokens, lineno = singles[key]
        if key == "lift.source":
            fields[field] = frozenset(tokens)
        elif len(tokens) != 1:
            raise FormatError(f"{key} needs exactly one token", lineno)
        else:
            fields[field] = tokens[0]
    return kind(pa=pa, **fields)


def _check_token(name: str, what: str) -> str:
    if name != "".join(name.split()):
        raise InputError(f"{what} {name!r} cannot be serialized (empty or whitespace)")
    return name


def _mass_tokens(dist: Dist, order: Sequence[str]) -> str:
    texts = dist._texts()
    return " ".join([f"{q} {texts[q]}" for q in order if q in texts])


def serialize_pa(obj: Pa | LiftedPa | TwinPa) -> str:
    """Serialize deterministically: declared order everywhere, zero masses
    dropped, probabilities in lowest terms. Round-trips through `parse_pa`."""
    pa = obj if isinstance(obj, Pa) else obj.pa
    pa.require_valid()
    for q in pa.states:
        _check_token(q, "state name")
    for a in pa.alphabet:
        _check_token(a, "letter")

    lines = ["format: pa/1"]
    lines.append("states: " + " ".join(pa.states))
    lines.append(("letters: " + " ".join(pa.alphabet)).rstrip())
    lines.append("initial: " + _mass_tokens(pa.initial, pa.states))
    lines.append(("accepting: " + " ".join(q for q in pa.states if q in pa.accepting)).rstrip())
    rendered: dict[int, str] = {}  # id(row) -> its tokens, each shared row rendered once
    for q in pa.states:
        for a in pa.alphabet:
            row = pa.delta[(q, a)]
            body = rendered.get(id(row))
            if body is None:
                body = rendered[id(row)] = _mass_tokens(row, pa.states)
            lines.append(f"row: {q} {a} {body}")
    for key, (kind, field) in _ROLES.items():
        if isinstance(obj, kind):
            value = getattr(obj, field)
            if key == "lift.source":
                value = " ".join(q for q in pa.states if q in value)
            lines.append(f"{key}: {value}")
    if isinstance(obj, TwinPa):
        lines.extend(f"twin.pair: {q} {obj.twin_of[q]}" for q in pa.states if q in obj.twin_of)
    return "\n".join(lines) + "\n"


def load_pa(path: str, *, require_valid: bool = True) -> Pa | LiftedPa | TwinPa:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read(MAX_PA_CHARS + 1)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    if len(text) > MAX_PA_CHARS:
        raise InputError(f".pa file longer than the limit of {MAX_PA_CHARS:,} characters")
    return parse_pa(text, require_valid=require_valid)


def save_pa(obj: Pa | LiftedPa | TwinPa, path: str) -> None:
    text = serialize_pa(obj)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def write_trace_csv(states: Sequence[str], trace: NormTrace | TraceStream, fh: IO[str]) -> None:
    """One CSV row per trace entry: step, letter, norm, then the exact mass
    on every state in declared order. Masses are rational strings, never floats.
    Rows are written as the entries arrive, so a `TraceStream` is never held whole."""
    writer = csv.writer(fh)
    writer.writerow(["step", "letter", "norm", *states])
    for entry in trace.entries:
        writer.writerow([
            str(entry.step),
            entry.letter or "",
            str(entry.norm),
            *[str(entry.dist.mass(q)) for q in states],
        ])


def read_trace_csv(fh: IO[str]) -> tuple[tuple[str, ...], list[dict[str, Fraction]]]:
    """Read back a trace CSV; returns the state column names and, per row,
    the exact mass map. Used to confirm that exported rows re-sum to 1."""
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise FormatError("empty trace CSV") from None
    if header[:3] != ["step", "letter", "norm"]:
        raise FormatError(f"unexpected trace header {header[:3]}")
    states = tuple(header[3:])
    out: list[dict[str, Fraction]] = []
    for row in reader:
        if len(row) != len(header):
            raise FormatError(f"trace row has {len(row)} fields, header has {len(header)}")
        out.append({q: as_prob(text) for q, text in zip(states, row[3:])})
    return states, out
