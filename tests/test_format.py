"""Document format: parsing, serialization, round trips, CSV traces."""
import io
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pasynch import (
    Dist,
    FormatError,
    InputError,
    LiftedPa,
    Pa,
    TwinPa,
    ValidationError,
    as_prob,
    b_half,
    b_one,
    lift,
    norm_trace,
    parse_pa,
    read_trace_csv,
    serialize_pa,
    twin,
    write_trace_csv,
)
from helpers import random_value1_instance, rebuilt, reference_parse_pa

B_ONE_DOC = """\
format: pa/1
states: s0 sA
letters: a
initial: s0 1
accepting: sA
row: s0 a sA 1
row: sA a sA 1
"""


def test_parse_minimal_document():
    pa = parse_pa(B_ONE_DOC)
    assert pa == b_one().pa
    assert len(pa.states) == 2


def test_probabilities_canonicalized():
    doc = B_ONE_DOC.replace("row: s0 a sA 1", "row: s0 a sA 2/4 s0 2/4")
    pa = parse_pa(doc)
    assert pa.delta[("s0", "a")].mass("sA") == Fraction(1, 2)
    text = serialize_pa(pa)
    assert "2/4" not in text
    assert "row: s0 a s0 1/2 sA 1/2" in text


def test_row_sum_rejected():
    doc = B_ONE_DOC.replace("row: s0 a sA 1", "row: s0 a sA 1/2")
    with pytest.raises(ValidationError, match="sums to 1/2"):
        parse_pa(doc)
    pa = parse_pa(doc, require_valid=False)
    assert not pa.validate().ok


def test_comments_and_blank_lines_ignored():
    doc = "# header comment\n\n" + B_ONE_DOC + "\n# trailing\n"
    assert parse_pa(doc) == b_one().pa


def test_syntax_errors_carry_line_numbers():
    with pytest.raises(FormatError, match="line 1"):
        parse_pa("states: s0\n")
    bad = B_ONE_DOC + "row: s0 a sA 1\n"
    with pytest.raises(FormatError, match="line 8.*duplicate row"):
        parse_pa(bad)
    with pytest.raises(FormatError, match="unknown key"):
        parse_pa(B_ONE_DOC + "wibble: 1\n")
    with pytest.raises(FormatError, match="odd number"):
        parse_pa(B_ONE_DOC.replace("initial: s0 1", "initial: s0"))
    with pytest.raises(FormatError, match="duplicate state names"):
        parse_pa(B_ONE_DOC.replace("states: s0 sA", "states: s0 s0 sA"))
    with pytest.raises(FormatError, match="missing 'accepting'"):
        parse_pa("format: pa/1\nstates: s0\nletters: a\ninitial: s0 1\n")
    with pytest.raises(FormatError, match="expected 'key"):
        parse_pa("format: pa/1\njust some words\n")


SHARED_DOC = """\
format: pa/1
states: s0 s1
letters: a b
initial: s0 1
accepting: s1
row: s0 a s0 1/2 s1 1/2
row: s0 b s0 LIT s1 1/2
row: s1 a s1 1
row: s1 b s1 LIT s0 LIT
"""


@pytest.mark.parametrize("literal, message", (
    ("3/2", "probability 3/2 outside [0, 1]"),
    ("x", "bad rational literal 'x': Invalid literal for Fraction: 'x'"),
    ("1/0", "bad rational literal '1/0': Fraction(1, 0)"),
))
def test_repeated_bad_literal_reports_its_first_line(literal, message):
    with pytest.raises(FormatError) as err:
        parse_pa(SHARED_DOC.replace("LIT", literal))
    assert err.value.line == 7
    assert str(err.value) == f"line 7: {message}"


@pytest.mark.parametrize("literal", (
    "0.5", "5e-1", "1e0", "+1/2", "-0", " 1/2 ", "1_0/20", "\uff11/\uff12",
))
def test_only_ascii_digit_literals_are_probabilities(literal):
    # each of these is outside the grammar; all but one read as a Fraction
    # in [0, 1], and that one, with an underscore, only from Python 3.11 on
    message = f"bad rational literal {literal!r}: use p/q or an integer, in ASCII digits"
    if "_" in literal and sys.version_info < (3, 11):
        message = f"bad rational literal {literal!r}: Invalid literal for Fraction: {literal!r}"
    with pytest.raises(InputError) as err:
        as_prob(literal)
    assert str(err.value) == message
    if literal == literal.strip():  # padding cannot be part of a `.pa` token
        with pytest.raises(FormatError) as err:
            parse_pa(B_ONE_DOC.replace("row: s0 a sA 1", f"row: s0 a sA {literal}"))
        assert (err.value.line, str(err.value)) == (6, f"line 6: {message}")


def test_rows_sharing_a_literal_equal_fresh_fractions():
    pa = parse_pa(SHARED_DOC.replace("LIT", "2/4"))
    assert pa.initial == Dist({"s0": Fraction(1)})
    for key in (("s0", "a"), ("s0", "b"), ("s1", "b")):
        row = pa.delta[key]
        assert row == Dist({q: Fraction(1, 2) for q in ("s0", "s1")})
        assert all(type(p) is Fraction and p.denominator == 2 for _, p in row.items())
    assert pa.delta[("s1", "a")] == Dist({"s1": Fraction(1)})


def test_unsupported_version():
    with pytest.raises(FormatError, match="unsupported format"):
        parse_pa(B_ONE_DOC.replace("pa/1", "pa/2"))


def test_round_trip_plain():
    for instance in (b_one(), b_half()):
        text = serialize_pa(instance.pa)
        assert parse_pa(text) == instance.pa
        assert serialize_pa(parse_pa(text)) == text


def test_round_trip_lifted():
    a = lift(b_half())
    text = serialize_pa(a)
    back = parse_pa(text)
    assert isinstance(back, LiftedPa)
    assert back.pa == a.pa
    assert (back.q_f, back.q_n, back.dollar) == (a.q_f, a.q_n, a.dollar)
    assert back.source_states == a.source_states


def test_round_trip_twin():
    c = twin(lift(b_half()))
    text = serialize_pa(c)
    assert "twin.hash: @sym:#" in text
    assert "@twin:" in text
    back = parse_pa(text)
    assert isinstance(back, TwinPa)
    assert back.pa == c.pa
    assert dict(back.twin_of) == dict(c.twin_of)
    assert (back.q0, back.q0_hat, back.q_f, back.q_n) == (c.q0, c.q0_hat, c.q_f, c.q_n)
    assert (back.hash, back.dollar) == (c.hash, c.dollar)


def _pa_of(obj):
    return obj.pa if isinstance(obj, (LiftedPa, TwinPa)) else obj


def test_round_trip_random_corpus():
    rng = random.Random(42)
    for _ in range(25):
        b = random_value1_instance(rng)
        for obj in (b.pa, lift(b), twin(lift(b))):
            text = serialize_pa(obj)
            back = parse_pa(text)
            assert type(back) is type(obj)
            assert _pa_of(back) == _pa_of(obj)
            assert serialize_pa(back) == text


def _mangled(rng, line):
    """`line` with its literals in other spellings, and now and then a
    changed value, an explicit zero or a target outside the states."""
    key, *tokens = line.split()
    head = 2 if key == "row:" else 0
    body = tokens[head:]
    for i in range(1, len(body), 2):
        p, k = Fraction(body[i]), rng.randint(1, 3)
        if k > 1:
            body[i] = f"{p.numerator * k}/{p.denominator * k}"
        if rng.random() < 0.05:
            den = rng.randint(1, 5)
            body[i] = f"{rng.randint(0, den)}/{den}"
    if rng.random() < 0.05:
        body += [rng.choice(("zz", "yy")), rng.choice(("0", "1/3"))]
    return " ".join([key, *tokens[:head], *body])


def test_parse_matches_the_public_constructors():
    # random plain, lifted and twinned documents with re-spelled literals
    # and some broken rows, loaded without validation
    rng = random.Random(61)
    outcomes = set()
    for _ in range(40):
        b = random_value1_instance(rng)
        for obj in (b.pa, lift(b), twin(lift(b))):
            doc = "\n".join(_mangled(rng, line) if line.startswith(("row:", "initial:")) else line
                            for line in serialize_pa(obj).splitlines())
            got, want = _pa_of(parse_pa(doc, require_valid=False)), reference_parse_pa(doc)
            assert got == want
            assert got.validate() == want.validate()
            assert dict(got.initial.items()) == dict(want.initial.items())
            for key, row in want.delta.items():
                assert dict(got.delta[key].items()) == dict(row.items())
            outcomes.add(got.validate().ok)
    assert outcomes == {True, False}


def test_twin_document_has_one_row_object_per_distinct_body():
    text = serialize_pa(twin(lift(random_value1_instance(random.Random(5)))))
    pa = parse_pa(text).pa
    by_body = {}
    for line in text.splitlines():
        if line.startswith("row:"):
            _, q, a, *body = line.split()
            by_body.setdefault(tuple(body), set()).add(id(pa.delta[(q, a)]))
    assert all(len(ids) == 1 for ids in by_body.values())
    assert len({id(row) for row in pa.delta.values()}) == len(by_body) < len(pa.delta)


SPACED_DOC = """\
format: pa/1
states: s0 s1
letters: a b
initial: s0 1
accepting: s1
row: s0 a s0 1/2 s1 1/2
row: s0 b s0 1/2\ts1   1/2
 row\t: s1 a   s1 1
row :s1 b s1 1\t
"""


def test_rows_equal_up_to_whitespace_read_as_equal_automata():
    pa = parse_pa(SPACED_DOC)
    canonical = serialize_pa(pa)
    assert canonical.splitlines()[5:] == [
        "row: s0 a s0 1/2 s1 1/2", "row: s0 b s0 1/2 s1 1/2", "row: s1 a s1 1", "row: s1 b s1 1"]
    same = parse_pa(canonical)
    assert pa == same and serialize_pa(same) == canonical
    # one row object per body text: the canonical document shares what the spaced one cannot
    assert pa.delta[("s0", "a")] is not pa.delta[("s0", "b")]
    assert same.delta[("s0", "a")] is same.delta[("s0", "b")]
    assert same.delta[("s1", "a")] is same.delta[("s1", "b")]


@pytest.mark.parametrize("rows, line, message", [
    # a body too short to read is reported before the key it repeats
    (["row: s0 a sA 1", "row: s0 a sA"], 7, "row needs STATE LETTER and at least one target pair"),
    (["row: s0 a sA 1", "row:  s0  a  "], 7, "row needs STATE LETTER and at least one target pair"),
    (["row: s0 a sA 1", "row: s0"], 7, "row needs STATE LETTER and at least one target pair"),
    (["row: s0 a sA 1", "row:"], 7, "row needs STATE LETTER and at least one target pair"),
    (["row: s0 a sA 1", "row: s0 a sA 1"], 7, "duplicate row for (s0,a)"),
    (["row: s0 a sA 1", "row: s0 a  sA  1"], 7, "duplicate row for (s0,a)"),
    (["row: s0 a sA 1 s0", "row: sA a sA 1 s0"], 6, "row has an odd number of tokens"),
    (["row: s0 a sA 1", "row: sA a sA 1 s0"], 7, "row has an odd number of tokens"),
    (["row: s0 a sA 1", "row: sA a sA  1  s0"], 7, "row has an odd number of tokens"),
    (["row: s0 a sA 1 sA 0", "row: sA a sA 1 sA 0"], 6, "row mentions 'sA' twice"),
])
def test_row_errors_name_their_line(rows, line, message):
    head = B_ONE_DOC.split("row:")[0]
    with pytest.raises(FormatError) as err:
        parse_pa(head + "\n".join(rows) + "\n")
    assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")


def test_serialize_is_the_same_for_shared_and_distinct_rows():
    c = twin(lift(b_half()))
    pa = c.pa
    fresh = Pa(pa.states, pa.alphabet, Dist(dict(pa.initial.items())),
               {key: Dist(dict(row.items())) for key, row in pa.delta.items()}, pa.accepting)
    assert len({id(row) for row in pa.delta.values()}) < len(pa.delta)
    assert len({id(row) for row in fresh.delta.values()}) == len(fresh.delta)
    assert serialize_pa(fresh) == serialize_pa(pa)
    assert serialize_pa(rebuilt(c, pa=fresh)) == serialize_pa(c)


@pytest.mark.parametrize("state, letter, message", (
    ("p q", "a", "state name 'p q' cannot be serialized (empty or whitespace)"),
    ("p", "a\tb", "letter 'a\\tb' cannot be serialized (empty or whitespace)"),
))
def test_names_with_whitespace_are_not_serialized(state, letter, message):
    pa = Pa((state,), (letter,), {state: 1}, {(state, letter): {state: 1}})
    assert pa.validate().ok
    with pytest.raises(InputError) as err:
        serialize_pa(pa)
    assert str(err.value) == message


@pytest.mark.parametrize("pa, message", (
    (Pa(("", "p"), ("a",), {"p": 1}, {("", "a"): {"p": 1}, ("p", "a"): {"p": 1}}),
     "invalid automaton: empty state name"),
    (Pa(("p",), ("",), {"p": 1}, {("p", ""): {"p": 1}}), "invalid automaton: empty letter"),
))
def test_empty_names_are_refused_by_validation_before_serializing(pa, message):
    with pytest.raises(ValidationError) as err:
        serialize_pa(pa)
    assert str(err.value) == message


def test_empty_accepting_serialized_explicitly():
    doc = B_ONE_DOC.replace("accepting: sA", "accepting:")
    pa = parse_pa(doc)
    assert pa.accepting == frozenset()
    assert "\naccepting:\n" in serialize_pa(pa)


def test_mixed_metadata_rejected():
    a = lift(b_one())
    text = serialize_pa(a) + "twin.hash: x\n"
    with pytest.raises(FormatError, match="both lift and twin"):
        parse_pa(text)


def test_incomplete_twin_metadata_rejected():
    c = twin(lift(b_one()))
    text = "\n".join(
        line for line in serialize_pa(c).splitlines() if not line.startswith("twin.q0hat")
    ) + "\n"
    with pytest.raises(FormatError, match="twin metadata incomplete"):
        parse_pa(text)


_METADATA_KEYS = ("lift.qf", "lift.qn", "lift.dollar", "lift.source", "twin.hash",
                  "twin.q0", "twin.q0hat", "twin.qf", "twin.qn", "twin.dollar")


def _metadata_lines(key):
    obj = lift(b_half())
    if key.startswith("twin."):
        obj = twin(obj)
    return serialize_pa(obj).splitlines()


@pytest.mark.parametrize("key", _METADATA_KEYS)
def test_missing_metadata_key_named_exactly(key):
    text = "".join(line + "\n" for line in _metadata_lines(key)
                   if not line.startswith(key + ":"))
    with pytest.raises(FormatError) as err:
        parse_pa(text)
    assert str(err.value) == f"{key.split('.')[0]} metadata incomplete: missing {key!r}"


@pytest.mark.parametrize("key", [k for k in _METADATA_KEYS if k != "lift.source"])
def test_single_token_metadata_key_with_two_tokens(key):
    lines = _metadata_lines(key)
    n = next(i for i, line in enumerate(lines) if line.startswith(key + ":"))
    lines[n] += " extra"
    with pytest.raises(FormatError) as err:
        parse_pa("\n".join(lines) + "\n")
    assert str(err.value) == f"line {n + 1}: {key} needs exactly one token"


def test_broken_twin_references_rejected():
    c = twin(lift(b_one()))
    text = serialize_pa(c).replace("twin.qn: @lift:qn", "twin.qn: nosuch")
    with pytest.raises(InputError):
        parse_pa(text)


def test_trace_csv_round_trip():
    c = twin(lift(b_half()))
    trace = norm_trace(c.pa, ("a", c.dollar, c.hash, "a"))
    buf = io.StringIO()
    write_trace_csv(c.pa.states, trace, buf)
    buf.seek(0)
    states, rows = read_trace_csv(buf)
    assert states == c.pa.states
    assert len(rows) == 5
    for row in rows:
        assert sum(row.values()) == 1


def test_trace_csv_layout():
    pa = b_one().pa
    buf = io.StringIO()
    write_trace_csv(pa.states, norm_trace(pa, ("a",)), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "step,letter,norm,s0,sA"
    assert lines[1] == "0,,1,1,0"
    assert lines[2] == "1,a,1,0,1"


@pytest.mark.parametrize("text, message", (
    ("", "empty trace CSV"),
    ("step,letter,mass,s0\n", "unexpected trace header ['step', 'letter', 'mass']"),
    ("step,letter,norm,s0,sA\n0,,1,1,0\n1,a,1,0\n", "trace row has 4 fields, header has 5"),
))
def test_read_trace_csv_format_errors(text, message):
    with pytest.raises(FormatError) as err:
        read_trace_csv(io.StringIO(text))
    assert str(err.value) == message


_FUZZ_DOCS = [serialize_pa(obj).splitlines()
              for obj in (b_one().pa, lift(b_half()), twin(lift(b_one())))]
_FUZZ_TOKENS = sorted({"0", "2/4", "3/2", "-1", "1/0", "x"}.union(
    *(line.partition(":")[2].split() for doc in _FUZZ_DOCS for line in doc)))
_FUZZ_KEYS = ("format", "states", "letters", "initial", "accepting", "row",
              "lift.qf", "lift.qn", "lift.dollar", "lift.source", "twin.hash", "twin.q0",
              "twin.q0hat", "twin.qf", "twin.qn", "twin.dollar", "twin.pair")
_key_line = st.builds(lambda key, tokens: f"{key}: {' '.join(tokens)}",
                      st.sampled_from(_FUZZ_KEYS),
                      st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=6))


@st.composite
def _line_soup(draw):
    """A real document with a few lines dropped or generated key lines inserted."""
    lines = list(draw(st.sampled_from(_FUZZ_DOCS)))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(1, len(lines)))
        if i < len(lines) and draw(st.booleans()):
            del lines[i]
        else:
            lines.insert(i, draw(_key_line))
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), _line_soup()), st.booleans())
def test_parse_pa_returns_or_raises_input_error(text, require_valid):
    # metadata role errors (e.g. a sink that is not a state) are plain InputError
    try:
        parse_pa(text, require_valid=require_valid)
    except InputError:
        pass
