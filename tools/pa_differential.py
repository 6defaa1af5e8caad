"""Read, check, compile, twin and write random `.pa` documents against a
parent commit's `src/`.

    python3 tools/pa_differential.py --parent HEAD --documents 20000

The parent's ``src/`` is loaded as the package ``parent_pasynch`` by
``scan_differential.load_parent``, next to the working tree's ``pasynch``,
in this one process; both differentials extract into
``.bench_build/differential/``, so run them one at a time. Each document
is generated once and read by both sides, which are compared on:

- ``parse_pa(text)``: the ``serialize_pa`` text of the result, or the
  exception's class name and exact text;
- ``parse_pa(text, require_valid=False)``: ``validate().violations``, and
  ``Kernel.walk`` pairs, with the kernel's names, on three random words
  over the alphabet (or the exception, if compiling or a step raises);
- on that automaton, a random word of ``TRACE_LETTERS`` letters, in runs
  of one letter: its ``Kernel.walk`` pairs and the entries of its
  ``norm_trace``, and those of ``lasso_trace`` on a random stem and loop
  repeated to about as many letters: step, letter, each mass and the norm,
  as class name and ``Fraction`` slots, so a mass or norm equal in value
  but not in lowest terms is a mismatch; and ``semantics.step`` on each
  letter from a random distribution whose denominator has primes that no
  row has (its pair and its masses). On an automaton of two or more
  states, ``step`` on each letter and ``Kernel.walk`` on the word also
  start from an over-full distribution over those denominators, each
  mass at most 1 and the total past 1, so a mass past 1 raises on valid
  automata too. Words this long take the change's
  ``Kernel.walk`` past its first reduction round; the count of walk
  steps that needed more rounds is printed;
- ``Pa.check_word`` on that automaton, on random words that mix its
  letters with foreign tokens (other names, the empty string, an int,
  ``None``, a tuple, a list and a set) at random positions, each with no
  role map and with a random one over its letters: the tuple returned, or
  the exception's class name and exact text;
- whatever construction the parsed document admits, as written text or
  exception: ``lift`` of a plain automaton with an accepting state,
  ``twin`` of its lift when its start is one state, ``twin`` of a lifted
  document;
- the files written, byte for byte: ``save_pa`` of the parsed document
  and of each construction, and ``pasynch trace --csv`` of a random word
  on the document, each over no file, then over an empty file and files
  shorter than, as long as and longer than the first output, in a
  temporary directory per side;
- before the documents, ``as_prob`` on a literal corpus: edge cases (a
  zero denominator, a sign, a point, an underscore, padding, non-ASCII
  digits, a numerator past the int/str digit limit, a literal one
  character past ``core.MAX_LITERAL_LEN``) and random literals, by value
  and exact type or by exception.

A document is a random automaton of 1-5 states and 1-3 letters whose rows
come from a pool of three, written as plain text or, through the parent's
``serialize_pa``, with its lift or twin metadata. Half of the documents are
then corrupted by one to three edits: tokens re-spaced with runs of spaces
and tabs (so equal bodies differ in text), comments and blank lines, a row
repeated or dropped, a literal replaced by an edge case, an unknown name,
a short, odd or self-repeating row, a metadata line dropped or repeated, a
key misspelt or its colon dropped. The exit status is 1 on any mismatch,
printing the first few, else 0. Only the standard library is used.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import random
import sys
import tempfile
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

from scan_differential import load_parent

import pasynch  # the working tree's: importing scan_differential put src/ on the path
from pasynch.core import MAX_LITERAL_LEN

# literals without whitespace, so each can stand as one `.pa` token
TOKEN_LITERALS = (
    "0", "1", "00", "01", "007/8", "1/1", "2/4", "0/5", "3/8", "8/8", "9/8", "2", "1/0",
    "0/0", "00/00", "1.5", "0.5", ".5", "5e-1", "+1", "-0", "1_0", "1/2/3", "/2", "2/", "x",
    "٣/٤", "１/２", "1" + "0" * 4300, "0/" + "1" * 4301,
    "1/" + "7" * 40, "9" * 30 + "/" + "9" * 31, "1" * (MAX_LITERAL_LEN + 1),
)
CORPUS = TOKEN_LITERALS + ("", " 1/2", "1/2 ", "1 /2", "\t0")
TRACE_LETTERS = 60
# denominators of `step`'s distributions, most with primes no row has (rows are over 1-8)
STEP_DENS = (1, 4, 11, 13, 3 * 7 * 11, 2 ** 5 * 11, 10 ** 6 + 3)
# what `checked_words` mixes into words besides the letters: other names, and
# other objects, hashable or not
FOREIGN = ("zz", "", "A", "q0", "@sym:#", 3, None, ("a",), ["a"], {"a"})
EDITS = ("space", "comment", "repeat row", "drop row", "literal", "unknown name",
         "short row", "odd row", "twice", "metadata", "key", "colon")


def outcome(fn, *args, **kw) -> tuple:
    """`("ok", value)` or `("error", class name, text)`."""
    try:
        return "ok", fn(*args, **kw)
    except Exception as exc:  # compared by name and text across the two packages
        return "error", type(exc).__name__, str(exc)


def literal_value(package, text: str):
    p = package.as_prob(text)
    return type(p).__name__, p.numerator, p.denominator


def random_literal(rng: random.Random) -> str:
    den = rng.choice((1, 2, 3, 8, 12, 10 ** rng.randint(1, 30), rng.randint(1, 10 ** 6)))
    num = rng.randint(0, den + 2)
    g = rng.choice((1, 1, 2, 7))
    zeros = "0" * rng.choice((0, 0, 0, 1, 3))
    return zeros + str(num * g) + ("" if den == 1 and rng.random() < 0.5 else f"/{den * g}")


def random_row(rng: random.Random, states: list[str]) -> dict[str, Fraction]:
    den = rng.randint(1, 8)
    cuts = sorted(rng.randint(0, den) for _ in range(len(states) - 1))
    parts = [b - a for a, b in zip([0, *cuts], [*cuts, den])]
    return {q: Fraction(p, den) for q, p in zip(states, parts) if p}


def masses(row: dict[str, Fraction], rng: random.Random) -> str:
    # unreduced forms too, so equal masses are written in different texts
    out = []
    for q, p in row.items():
        k = rng.choice((1, 1, 1, 2, 3))
        out.append(f"{q} {p.numerator * k}/{p.denominator * k}" if p.denominator * k != 1
                   else f"{q} {p.numerator}")
    return " ".join(out)


def random_document(rng: random.Random, parent) -> tuple[str, str]:
    """(kind, text) of one valid document."""
    states = [f"q{i}" for i in range(rng.randint(1, 5))]
    letters = list("abc"[:rng.randint(1, 3)])
    pool = [random_row(rng, states) for _ in range(3)]
    delta = {(q, a): rng.choice(pool) for q in states for a in letters}
    initial = {"q0": Fraction(1)} if rng.random() < 0.6 else random_row(rng, states)
    accepting = rng.sample(states, rng.randint(0, len(states)))
    kind = rng.choice(("plain", "plain", "lift", "twin"))
    if kind != "plain" and accepting:
        pa = parent.Pa(states, letters, initial, delta, accepting)
        b = parent.Value1Instance(pa, require_dirac=False)
        lifted = parent.lift(b)
        if kind == "lift" or b.q0 is None:
            return "lift", parent.serialize_pa(lifted)
        return "twin", parent.serialize_pa(parent.twin(lifted))
    lines = ["format: pa/1", "states: " + " ".join(states), "letters: " + " ".join(letters),
             "initial: " + masses(initial, rng), "accepting: " + " ".join(accepting)]
    lines += [f"row: {q} {a} {masses(delta[q, a], rng)}" for q in states for a in letters]
    return "plain", "\n".join(lines) + "\n"


def respace(line: str, rng: random.Random) -> str:
    key, sep, rest = line.partition(":")
    body = "".join(rng.choice((" ", " ", "  ", "\t", " \t ")) + token for token in rest.split())
    return (rng.choice(("", " ", "\t")) + key + rng.choice(("", "", " ", "\t")) + sep + body
            + rng.choice(("", "", " ", "\t ")))


def corrupt(text: str, rng: random.Random) -> tuple[str, list[str]]:
    lines = text.splitlines()
    edits = rng.sample(EDITS, rng.randint(1, 3))
    for edit in edits:
        rows = [i for i, line in enumerate(lines) if line.lstrip().startswith("row")]
        i = rng.choice(rows) if rows else rng.randrange(len(lines))
        tokens = lines[i].split()
        if edit == "space":
            lines = [respace(line, rng) if rng.random() < 0.7 else line for line in lines]
        elif edit == "comment":
            for _ in range(rng.randint(1, 3)):
                lines.insert(rng.randint(1, len(lines)), rng.choice(("", "  ", "# note: x", " #")))
        elif edit == "repeat row":
            lines.insert(rng.randint(1, len(lines)), respace(lines[i], rng))
        elif edit == "drop row" and rows:
            del lines[i]
        elif edit == "literal" and len(tokens) > 4:
            tokens[rng.randrange(4, len(tokens), 2)] = rng.choice(TOKEN_LITERALS)
            lines[i] = " ".join(tokens)
        elif edit == "unknown name" and len(tokens) > 3:
            tokens[rng.choice((1, 2, 3))] = rng.choice(("zz", "q9", "@lift:qf"))
            lines[i] = " ".join(tokens)
        elif edit == "short row":
            lines[i] = " ".join(tokens[:rng.randint(1, 4)])
        elif edit == "odd row":
            lines[i] = " ".join(tokens[:-1])
        elif edit == "twice" and len(tokens) > 4:
            lines[i] = " ".join(tokens + tokens[3:5])
        elif edit == "metadata":
            meta = [k for k, line in enumerate(lines) if line.startswith(("lift.", "twin."))]
            if meta and rng.random() < 0.5:
                del lines[rng.choice(meta)]
            else:
                lines.append(rng.choice(("lift.dollar: $", "twin.pair: q0 h0", "twin.hash: #"))
                             if not meta else lines[rng.choice(meta)])
        elif edit == "key":
            lines[i] = lines[i].replace(rng.choice(("row", "states", "format", "initial")),
                                        rng.choice(("rows", "state", "Row", "")), 1)
        elif edit == "colon":
            lines[i] = lines[i].replace(":", "", 1)
    return "\n".join(lines) + rng.choice(("\n", "", "\n\n")), edits


def construct(package, obj) -> list:
    """The constructions `obj` admits, each as `outcome` of the automaton built."""
    if isinstance(obj, package.LiftedPa):
        return [outcome(package.twin, obj)]
    if isinstance(obj, package.TwinPa) or not obj.accepting:
        return []
    lifted = outcome(package.lift, package.Value1Instance(obj, require_dirac=False))
    return [lifted] if lifted[0] != "ok" else [lifted, outcome(package.twin, lifted[1])]


def in_place(path: Path, write) -> tuple:
    """What `write()` returns or raises and the bytes it leaves at `path`: over
    no file, then over an empty file and files shorter than, as long as and
    longer than what it wrote over none."""
    path.unlink(missing_ok=True)
    got = [(outcome(write), path.read_bytes() if path.exists() else None)]
    n = len(got[0][1] or b"")
    for old in (b"", b"#" * (n // 2), b"#" * n, b"#" * (2 * n + 1)):
        path.write_bytes(old)
        got.append((outcome(write), path.read_bytes()))
    return tuple(got)


def saved(package, made: tuple, path: Path) -> tuple:
    """`made`, an `outcome` of an automaton: "ok" with its `serialize_pa` text
    and what `save_pa` leaves at `path` (`in_place`), or the exception."""
    if made[0] != "ok":
        return made
    return ("ok", outcome(package.serialize_pa, made[1]),
            in_place(path, lambda: package.save_pa(made[1], str(path))))


def trace_csv(package, text: str, word: str, directory: Path) -> tuple:
    """`pasynch trace --csv` of `word` on the document `text`, as `in_place`
    reports it, with what the command printed."""
    source, out = directory / "in.pa", directory / "trace.csv"
    source.write_text(text, encoding="utf-8")
    main = importlib.import_module(f"{package.__name__}.cli").main

    def run():
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
            code = main(["trace", str(source), "--word", word, "--csv", str(out)])
        return code, printed.getvalue()
    return in_place(out, run)


def walks(package, pa, words) -> tuple:
    def run():
        k = package.semantics.Kernel(pa)
        return k.names, tuple(tuple(k.walk(w)) for w in words)
    return outcome(run)


def slots(p: Fraction) -> tuple:
    return type(p).__name__, p._numerator, p._denominator


def masses_of(d) -> tuple:
    return tuple((q, *slots(p)) for q, p in d.items())


def trace_entries(trace) -> tuple:
    return tuple((e.step, e.letter, masses_of(e.dist), slots(e.norm)) for e in trace)


def traces(package, pa, rng: random.Random) -> tuple:
    """`norm_trace`, `lasso_trace` and `step` as `read` compares them."""
    if not pa.alphabet:
        return ()
    word = []  # runs of one letter grow a denominator that another letter may then collapse
    while len(word) < TRACE_LETTERS:
        word += [rng.choice(pa.alphabet)] * rng.randint(1, 30)
    word = tuple(word[:TRACE_LETTERS])
    stem = tuple(rng.choices(pa.alphabet, k=rng.randint(0, 10)))
    loop = tuple(rng.choices(pa.alphabet, k=rng.randint(1, 4)))
    reps = (TRACE_LETTERS - len(stem)) // len(loop)
    den = rng.choice(STEP_DENS)
    cuts = sorted(rng.randint(0, den) for _ in range(len(pa.states) - 1))
    d = package.Dist({q: Fraction(b - a, den)
                      for q, a, b in zip(pa.states, [0, *cuts], [*cuts, den]) if b > a})
    starts = [d]
    names = list(dict.fromkeys(pa.states))
    if len(names) > 1:  # over-full: each mass at most 1, the total past 1
        nums = [rng.randint(0, den) for _ in names]
        if sum(nums) <= den:
            nums[:2] = den, max(nums[1], 1)
        starts.append(package.Dist({q: Fraction(x, den) for q, x in zip(names, nums)}))

    def stepped(start, a):
        got = package.semantics.step(pa, start, a)
        return got._ints[1:3], masses_of(got)  # the pair, read before the map is made

    def walked(start):
        k = package.semantics.Kernel(pa)
        return tuple(k.walk(word, k.ints(start)))
    return (outcome(lambda: tuple(package.semantics.Kernel(pa).walk(word))),
            outcome(lambda: trace_entries(package.norm_trace(pa, word))),
            outcome(lambda: trace_entries(package.lasso_trace(pa, stem, loop, reps))),
            *(outcome(stepped, start, a) for start in starts for a in pa.alphabet),
            *(outcome(walked, start) for start in starts[1:]))


def checked_words(pa, rng: random.Random) -> tuple:
    """`Pa.check_word` as `read` compares it."""
    got = []
    for _ in range(4):
        word = rng.choices(pa.alphabet, k=rng.randint(0, 8)) if pa.alphabet else []
        for _ in range(rng.randint(0, 2)):
            word.insert(rng.randint(0, len(word)), rng.choice(FOREIGN))
        roles = {a: rng.choice(("reset", "commit"))
                 for a in rng.sample(pa.alphabet, rng.randint(0, len(pa.alphabet)))}
        got.append((outcome(pa.check_word, word), outcome(pa.check_word, word, roles)))
    return tuple(got)


def count_rounds(semantics) -> dict:
    """Count the steps of `semantics.Kernel.walk` that one reduction round
    would have left out of lowest terms: of those it hands to `_lowest`,
    which it does only when a prime's power may have been cut short."""
    counts = {"steps": 0}
    lowest = semantics._lowest

    def counted(big, below, nums, den):
        out = lowest(big, below, nums, den)
        counts["steps"] += out[1] != den // gcd(big, den, *nums)
        return out
    semantics._lowest = counted
    return counts


def read(package, text: str, words, seed: float, directory: Path) -> tuple:
    """Everything one side reports on `text`; files are written in `directory`."""
    strict = outcome(package.parse_pa, text)
    written = saved(package, strict, directory / "out.pa")
    built = ()
    if strict[0] == "ok":
        pa = strict[1] if isinstance(strict[1], package.Pa) else strict[1].pa
        built = (outcome(lambda: tuple(saved(package, made, directory / "out.pa")
                                       for made in construct(package, strict[1]))),
                 trace_csv(package, text, ".".join(words(pa)[0]), directory))
    loose = outcome(package.parse_pa, text, require_valid=False)
    if loose[0] != "ok":
        return written, built, loose
    pa = loose[1] if isinstance(loose[1], package.Pa) else loose[1].pa
    return (written, built, pa.validate().violations, walks(package, pa, words(pa)),
            traces(package, pa, random.Random(seed)), checked_words(pa, random.Random(seed)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    parser.add_argument("--documents", type=int, default=20_000,
                        help="random documents to read on each side")
    parser.add_argument("--seed", type=int, default=20)
    args = parser.parse_args(argv)
    sides = {"parent": load_parent(args.parent), "change": pasynch}
    rounds = count_rounds(pasynch.semantics)
    rng = random.Random(args.seed)
    scratch = tempfile.TemporaryDirectory()
    directories = {side: Path(scratch.name, side) for side in sides}
    for directory in directories.values():
        directory.mkdir()
    start = time.perf_counter()

    literals = list(CORPUS) + [random_literal(rng) for _ in range(2000)]
    literal_mismatches = []
    for text in literals:
        got = [outcome(literal_value, package, text) for package in sides.values()]
        if got[0] != got[1]:
            literal_mismatches.append((text, got))

    counts = dict.fromkeys(("plain", "lift", "twin", "corrupted", "parsed"), 0)
    mismatches = []
    for _ in range(args.documents):
        kind, text = random_document(rng, sides["parent"])
        counts[kind] += 1
        edits: list[str] = []
        if rng.random() < 0.5:
            text, edits = corrupt(text, rng)
            counts["corrupted"] += 1
        seed = rng.random()

        def words(pa, seed=seed):
            pick = random.Random(seed)
            return [tuple(pick.choices(pa.alphabet, k=pick.randint(0, 6)) if pa.alphabet else ())
                    for _ in range(3)]
        got = [read(package, text, words, seed, directories[side])
               for side, package in sides.items()]
        counts["parsed"] += got[1][0][0] == "ok"
        if got[0] != got[1]:
            mismatches.append((kind, edits, text, got))

    print(f"{args.documents} documents ({counts['plain']} plain, {counts['lift']} lift, "
          f"{counts['twin']} twin; {counts['corrupted']} corrupted, {counts['parsed']} parsed "
          f"valid) and {len(literals)} literals per side; seed {args.seed}, "
          f"{time.perf_counter() - start:.1f} s; {rounds['steps']} walk steps of the change "
          "took more than one reduction round")
    scratch.cleanup()
    print(f"mismatches: {len(mismatches) + len(literal_mismatches)}")
    for text, got in literal_mismatches[:5]:
        print(f"  literal {text[:60]!r}\n    parent: {got[0]}\n    change: {got[1]}")
    for kind, edits, text, got in mismatches[:5]:
        print(f"  kind={kind} edits={edits}\n{text}    parent: {got[0]}\n    change: {got[1]}")
    return 1 if mismatches or literal_mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
