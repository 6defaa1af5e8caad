"""Compare random searches, `.pa` documents and the CLI's parser with a parent commit's `src/`.

    python3 tools/differential.py --parent HEAD --searches 50000 --documents 20000

The parent's ``src/`` is extracted from git with ``git archive`` into
``.bench_build/differential/`` and imported once as the package
``parent_pasynch``, next to the working tree's ``pasynch``, in this one
process. Nothing in either package is replaced. Three families of cases
run: the searches from the random stream ``--seed`` (17 by default), the
documents from ``--seed`` + 3 (20), and once per run the parser cases,
which draw nothing. ``--searches 0`` or ``--documents 0`` leaves a family
out. Every case runs on both sides and its results are compared whole.

**Searches.** Each case builds the same automaton on both sides and
compares:

- ``bounded_value_search`` and ``witness_schedule_search`` (``k`` 1-6 at
  random), whole results, ``explored`` included: these are the searches
  counted by ``--searches``;
- the words ``_shortlex_scan`` yields above a fixed bar, as ``(rank,
  Fraction(num, den))``: a scan's yields are not in lowest terms, so they
  are compared by value. Half of the bars are random, of at least 0. A
  quarter are the parent's ``bounded_value_search`` best for the case,
  which the scan must not yield, and a quarter are just below it with a
  foreign prime, 11 or 13, in the denominator: the best less ``1 / (p *
  B)``, where ``B``, the start's denominator times ``Λ^max_len`` (``Λ``
  the lcm of every row's denominators), is at least each denominator the
  scan scores over. The best word is then one unit above the floor of
  the bar on its scale, so a bar comparison off by one shows.

Cases are of four kinds. 72% are plain: 1-6 states, 1-3 letters,
``max_len`` 0-7, denominators up to 8, rows either drawn fresh, from a
shared pool of two, or absorbing, the start Dirac or a random
distribution (Dirac in twins). 22% are twins of a random lifted 1-3-state
instance, with ``max_len`` 0-5 over their 3-5 letters. 4% are large twins,
of 6-7-state sources at ``max_len`` 0-3: their 15-17 names are past
``semantics.DENSE_MAX_NAMES``, so they step on columns. 2% are chains: a
plain one-letter automaton at ``max_len`` 1,000-3,000, whose search layers
pass ``analysis.LAYER_DEN_BITS`` and are reduced.

**Documents.** First ``as_prob`` runs on a literal corpus: edge cases (a
zero denominator, a sign, a point, an underscore, padding, non-ASCII
digits, a numerator past the int/str digit limit, a literal one character
past ``core.MAX_LITERAL_LEN``) and random literals, compared by value and
exact type or by exception. Then each random document (``--documents`` of
them) is generated once and read by both sides, which are compared on:

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
  automata too. Words this long take the change's ``Kernel.walk`` past
  its first reduction round: the steps of the change's walk of this word
  that needed more rounds are counted by replaying each step's first
  round from the kernel's compiled letters (``extra_rounds``);
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
  temporary directory per side.

A document is a random automaton of 1-5 states and 1-3 letters whose rows
come from a pool of three, written as plain text or, through the parent's
``serialize_pa``, with its lift or twin metadata. Half of the documents are
then corrupted by one to three edits: tokens re-spaced with runs of spaces
and tabs (so equal bodies differ in text), comments and blank lines, a row
repeated or dropped, a literal replaced by an edge case, an unknown name,
a short, odd or self-repeating row, a metadata line dropped or repeated, a
key misspelt or its colon dropped.

**Parser.** ``cli.main`` runs on ``--help``, on no arguments, on an
unknown flag and on an unknown command, each given to the top-level
parser and after each subcommand's name, in a temporary working
directory: its exit code, stdout and stderr. So the help, usage and error
text of every parser and the order of the subcommands are compared. As
help text shows neither an argument's ``type`` nor its ``default``, each
parser's arguments are also compared as the parser holds them: class,
option strings, ``dest``, ``nargs``, ``required``, ``type``, ``default``,
``help`` and ``metavar``, and the names it sets by ``set_defaults``. The
subcommands are those of either side.

Each family prints a summary line; then the tool prints the number of
mismatches and the first few. The exit status is 1 on any mismatch, else
0. Only the standard library is used.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import os
import random
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from collections import Counter
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pasynch  # noqa: E402  (the working tree's)

# literals without whitespace, so each can stand as one `.pa` token
TOKEN_LITERALS = (
    "0", "1", "00", "01", "007/8", "1/1", "2/4", "0/5", "3/8", "8/8", "9/8", "2", "1/0",
    "0/0", "00/00", "1.5", "0.5", ".5", "5e-1", "+1", "-0", "1_0", "1/2/3", "/2", "2/", "x",
    "٣/٤", "１/２", "1" + "0" * 4300, "0/" + "1" * 4301,
    "1/" + "7" * 40, "9" * 30 + "/" + "9" * 31, "1" * (pasynch.core.MAX_LITERAL_LEN + 1),
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


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True,
                          timeout=120).stdout


def extract(rev: str, dest: Path, *paths: str) -> None:
    """`paths` of commit `rev` into `dest`, through `git archive`."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev, *paths))) as tar:
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def load_parent(rev: str) -> object:
    """The `src/pasynch` package of commit `rev`, as `parent_pasynch`."""
    dest = ROOT / ".bench_build" / "differential"
    shutil.rmtree(dest, ignore_errors=True)
    extract(rev, dest, "src/pasynch")
    package = dest / "src" / "pasynch"
    spec = importlib.util.spec_from_file_location(
        "parent_pasynch", package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules["parent_pasynch"] = module
    spec.loader.exec_module(module)
    return module


def cli_of(package):
    """The `cli` module of one side's package."""
    return importlib.import_module(f"{package.__name__}.cli")


def outcome(fn, *args, **kw) -> tuple:
    """`("ok", value)` or `("error", class name, text)`."""
    try:
        return "ok", fn(*args, **kw)
    except Exception as exc:  # compared by name and text across the two packages
        return "error", type(exc).__name__, str(exc)


def random_dist(rng: random.Random, states: list[str]) -> dict[str, Fraction]:
    den = rng.randint(1, 8)
    cuts = sorted(rng.randint(0, den) for _ in range(len(states) - 1))
    parts = [b - a for a, b in zip([0, *cuts], [*cuts, den])]
    return {q: Fraction(p, den) for q, p in zip(states, parts) if p}


# -- searches ---------------------------------------------------------------

def random_spec(rng: random.Random, min_states: int, max_states: int, dirac: bool,
                max_letters: int = 3) -> tuple:
    """(states, letters, initial, delta, accepting) of a random automaton."""
    states = [f"q{i}" for i in range(rng.randint(min_states, max_states))]
    letters = "abc"[:rng.randint(1, max_letters)]
    kind = rng.choice(("plain", "pool", "sinks"))
    pool = [random_dist(rng, states) for _ in range(2)]
    sinks = set(rng.sample(states, rng.randint(0, len(states) - 1))) if kind == "sinks" else ()
    delta = {(q, a): {q: 1} if q in sinks else rng.choice(pool) if kind == "pool"
             else random_dist(rng, states) for q in states for a in letters}
    initial = {"q0": 1} if dirac or rng.random() < 0.5 else random_dist(rng, states)
    accepting = rng.sample(states, rng.randint(1, len(states)))
    return states, tuple(letters), initial, delta, accepting


def random_case(rng: random.Random) -> tuple:
    """(kind, spec, max_len) of one random case; see the module docstring."""
    r = rng.random()
    if r < 0.02:
        return "chain", random_spec(rng, 1, 6, False, max_letters=1), rng.randint(1000, 3000)
    if r < 0.06:
        return "large twin", random_spec(rng, 6, 7, True), rng.randint(0, 3)
    if r < 0.28:
        return "twin", random_spec(rng, 1, 3, True), rng.randint(0, 5)
    return "plain", random_spec(rng, 1, 6, False), rng.randint(0, 7)


def instance(package, spec: tuple, twinned: bool):
    """The `Value1Instance` of one case on one side."""
    states, letters, initial, delta, accepting = spec
    pa = package.Pa(tuple(states), letters, initial, delta, accepting=tuple(accepting))
    b = package.Value1Instance(pa, require_dirac=False)
    if twinned:
        b = package.Value1Instance(package.twin(package.lift(b)).pa, require_dirac=False)
    return b


def searched(package, b, max_len: int, ks: list) -> tuple:
    """Both searches of one case on one side."""
    return (tuple(package.bounded_value_search(b, max_len)),
            *(tuple(package.witness_schedule_search(b, k, max_len)) for k in ks))


def scanned(package, b, max_len: int, bar: Fraction) -> list:
    """The bar scan of one case on one side."""
    scan = package.analysis._shortlex_scan(b.pa, max_len, (bar.numerator, bar.denominator))
    return [(rank, Fraction(num, den)) for rank, num, den in scan]


def scale_bound(pa, max_len: int) -> int:
    """The start's denominator times `Λ^max_len`, `Λ` the lcm of every row's
    denominators: at least each denominator a scan of `pa` scores over."""
    lam = lcm(*(p.denominator for q in pa.states for a in pa.alphabet
                for _, p in pa.row(q, a).items()))
    return lcm(*(p.denominator for _, p in pa.initial.items())) * lam ** max_len


def bar_of(rng: random.Random, kind: str, best: Fraction, pa, max_len: int) -> Fraction:
    """A random bar, the parent's `best`, or `best` just below with a
    foreign prime in the denominator (see the module docstring)."""
    if kind == "random":
        return Fraction(rng.randint(0, 16), rng.randint(1, 16))
    if kind == "best":
        return best
    return best - Fraction(1, rng.choice((11, 13)) * scale_bound(pa, max_len))


def searches(sides: tuple, n: int, seed: int):
    """Random cases until each side has run `n` searches, as (what, results
    per side); the family's summary is printed last."""
    rng = random.Random(seed)
    start = time.perf_counter()
    cases = done = yields = 0
    kinds, bars = Counter(), Counter()
    while done < n:
        kind, spec, max_len = random_case(rng)
        ks = rng.sample(range(1, 7), 2)
        bar_kind = rng.choice(("random", "random", "best", "below"))
        bs = [instance(package, spec, kind.endswith("twin")) for package in sides]
        got = [searched(package, b, max_len, ks) for package, b in zip(sides, bs)]
        bar = bar_of(rng, bar_kind, got[0][0][1], bs[0].pa, max_len)
        got = [(*g, scanned(package, b, max_len, bar)) for package, b, g in zip(sides, bs, got)]
        cases, done, yields = cases + 1, done + 1 + len(ks), yields + len(got[1][-1])
        kinds[kind] += 1
        bars[bar_kind] += 1
        shown = (bar if bar_kind == "random"
                 else f"{bar_kind} ({bar.denominator.bit_length()}-bit den)")
        yield f"kind={kind} max_len={max_len} k={ks} bar={shown} spec={spec}", got
    counts = ", ".join(f"{kinds[kind]} {kind}s" for kind in ("twin", "large twin", "chain"))
    print(f"{cases} cases ({counts}), {done} searches and {cases} bar scans per side "
          f"({bars['best']} at the best, {bars['below']} just below it), {yields} scan "
          f"yields; seed {seed}, {time.perf_counter() - start:.1f} s")


# -- documents --------------------------------------------------------------

def literal_value(package, text: str):
    p = package.as_prob(text)
    return type(p).__name__, p.numerator, p.denominator


def random_literal(rng: random.Random) -> str:
    den = rng.choice((1, 2, 3, 8, 12, 10 ** rng.randint(1, 30), rng.randint(1, 10 ** 6)))
    num = rng.randint(0, den + 2)
    g = rng.choice((1, 1, 2, 7))
    zeros = "0" * rng.choice((0, 0, 0, 1, 3))
    return zeros + str(num * g) + ("" if den == 1 and rng.random() < 0.5 else f"/{den * g}")


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
    pool = [random_dist(rng, states) for _ in range(3)]
    delta = {(q, a): rng.choice(pool) for q in states for a in letters}
    initial = {"q0": Fraction(1)} if rng.random() < 0.6 else random_dist(rng, states)
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


def rewrite(path: Path, data: bytes) -> None:
    """`data` at `path` as a new file: on ext4, the close of a file that the
    write truncated waits for its blocks to reach the disk."""
    path.unlink(missing_ok=True)
    path.write_bytes(data)


def in_place(path: Path, write) -> tuple:
    """What `write()` returns or raises and the bytes it leaves at `path`: over
    no file, then over an empty file and files shorter than, as long as and
    longer than what it wrote over none."""
    path.unlink(missing_ok=True)
    got = [(outcome(write), path.read_bytes() if path.exists() else None)]
    n = len(got[0][1] or b"")
    for old in (b"", b"#" * (n // 2), b"#" * n, b"#" * (2 * n + 1)):
        rewrite(path, old)
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
    rewrite(source, text.encode())
    main = cli_of(package).main

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


def extra_rounds(kernel, word: tuple, pairs: tuple) -> int:
    """The steps of `pairs`, `kernel.walk(word)`, that one reduction round
    would have left out of lowest terms: each step's first round replayed
    from the kernel's compiled letters, reading the kernel only."""
    n = 0
    for a, (v, den), (_, reduced) in zip(word, pairs, pairs[1:]):
        den_a, forward = kernel._letters[a][:2]
        n += reduced != den * den_a // gcd(kernel._big, den * den_a, *forward(v))
    return n


def traces(package, pa, rng: random.Random, rounds: dict | None) -> tuple:
    """`norm_trace`, `lasso_trace` and `step` as `read` compares them; with
    `rounds`, `extra_rounds` of the walk of the word is added to its count."""
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
    walk = outcome(lambda: tuple(package.semantics.Kernel(pa).walk(word)))
    if rounds is not None and walk[0] == "ok":
        rounds["steps"] += extra_rounds(package.semantics.Kernel(pa), word, walk[1])
    return (walk,
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


def read(package, text: str, words, seed: float, directory: Path, rounds: dict | None) -> tuple:
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
            traces(package, pa, random.Random(seed), rounds),
            checked_words(pa, random.Random(seed)))


def documents(sides: tuple, n: int, seed: int):
    """The literal corpus, then `n` random documents, as (what, results per
    side); the family's summary is printed last."""
    rng = random.Random(seed)
    start = time.perf_counter()
    literals = list(CORPUS) + [random_literal(rng) for _ in range(2000)]
    for text in literals:
        yield f"literal {text[:60]!r}", [outcome(literal_value, p, text) for p in sides]
    counts = dict.fromkeys(("plain", "lift", "twin", "corrupted", "parsed"), 0)
    rounds = {"steps": 0}
    with tempfile.TemporaryDirectory() as scratch:
        directories = [Path(tempfile.mkdtemp(dir=scratch)) for _ in sides]
        for _ in range(n):
            kind, text = random_document(rng, sides[0])
            counts[kind] += 1
            edits: list[str] = []
            if rng.random() < 0.5:
                text, edits = corrupt(text, rng)
                counts["corrupted"] += 1
            case_seed = rng.random()

            def words(pa, seed=case_seed):
                pick = random.Random(seed)
                return [tuple(pick.choices(pa.alphabet, k=pick.randint(0, 6))
                              if pa.alphabet else ()) for _ in range(3)]
            got = [read(package, text, words, case_seed, directory,
                        rounds if package is sides[1] else None)
                   for package, directory in zip(sides, directories)]
            counts["parsed"] += got[1][0][0] == "ok"
            yield f"kind={kind} edits={edits}\n{text}", got
    print(f"{n} documents ({counts['plain']} plain, {counts['lift']} lift, "
          f"{counts['twin']} twin; {counts['corrupted']} corrupted, {counts['parsed']} parsed "
          f"valid) and {len(literals)} literals per side; seed {seed}, "
          f"{time.perf_counter() - start:.1f} s; {rounds['steps']} steps of the change's "
          "walks of the trace words took more than one reduction round")


# -- the command line's parser ----------------------------------------------

PARSER_ARGVS = (["--help"], [], ["--wat"], ["frobnicate"])


def arguments(package, name: str | None) -> tuple:
    """The arguments of the top-level parser (`name` None) or of the
    subcommand `name`, as the parser holds them, and its `set_defaults` names."""
    top, commands = cli_of(package)._build_parser()
    parser = top if name is None else commands.get(name)
    if parser is None:
        return ()
    return (tuple((type(a).__name__, tuple(a.option_strings), a.dest, a.nargs, a.required,
                   getattr(a.type, "__name__", a.type), a.default, a.help, a.metavar)
                  for a in parser._actions), tuple(sorted(parser._defaults)))


def cli_run(package, argv: list[str]) -> tuple:
    """`(exit code, stdout, stderr)` of the package's `cli.main(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_of(package).main(argv)
    return code, out.getvalue(), err.getvalue()


def parsers(sides: tuple):
    """Each of `PARSER_ARGVS` for the top-level parser and after each
    subcommand of either side, run in a temporary working directory, as
    (what, results per side); the family's summary is printed last."""
    start = time.perf_counter()
    names = dict.fromkeys(name for package in sides for name in
                          cli_of(package)._build_parser()[1])
    cases = [[*command, *argv] for command in [[], *([name] for name in names)]
             for argv in PARSER_ARGVS]
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for argv in cases:
                yield f"cli.main({argv!r})", [cli_run(package, argv) for package in sides]
        finally:
            os.chdir(here)
    for name in [None, *names]:
        yield f"arguments of {name or 'the top-level parser'}", [arguments(package, name)
                                                                 for package in sides]
    print(f"{len(cases)} parser runs per side (the top-level parser and {len(names)} "
          f"subcommands, each on --help, no arguments, an unknown flag and an unknown "
          f"command: exit code, stdout and stderr) and {len(names) + 1} parsers' "
          f"arguments; {time.perf_counter() - start:.1f} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    parser.add_argument("--searches", type=int, default=50_000,
                        help="searches to run on each side, at least (0: none)")
    parser.add_argument("--documents", type=int, default=20_000,
                        help="random documents to read on each side (0: none)")
    parser.add_argument("--seed", type=int, default=17,
                        help="seed of the searches; the documents take seed + 3")
    args = parser.parse_args(argv)
    sides = (load_parent(args.parent), pasynch)
    families = ((searches, args.searches, args.seed), (documents, args.documents, args.seed + 3))
    cases = chain((case for family, n, seed in families if n > 0
                   for case in family(sides, n, seed)), parsers(sides))
    mismatches = [(what, got) for what, got in cases if got[0] != got[1]]
    print(f"mismatches: {len(mismatches)}")
    for what, (parent, change) in mismatches[:5]:
        print(f"  {what}\n    parent: {parent}\n    change: {change}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
