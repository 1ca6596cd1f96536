import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowmon import textio
from flowmon.errors import ParseError
from flowmon.graph import Graph
from flowmon.textio import (
    format_graph,
    format_readings,
    parse_edge_id_list,
    parse_graph,
    parse_readings,
)
from flowmon.weights import MAX_MICROS, Weight

from conftest import multigraphs
from oracles import parse_graph_by_lines


def test_parse_simple_file():
    text = "c a comment\np flowmon 3 2\ne 0 1 1.5\nc midway\ne 1 2 2\n"
    g = parse_graph(text)
    assert g.vertex_count == 3
    assert [(e.u, e.v, str(e.weight)) for e in g.edges] == [(0, 1, "1.5"), (1, 2, "2")]


def test_parse_empty_graph():
    g = parse_graph("p flowmon 0 0\n")
    assert g.vertex_count == 0 and len(g.edges) == 0


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("e 0 1 1\n", "line 1"),
        ("p flowmon 2\ne 0 1 1\n", "line 1"),
        ("p flowmon x 2\n", "line 1: non-integer vertex or edge count"),
        ("p flowmon 2 1\ne 0 5 1\n", "line 2"),
        ("p flowmon 2 1\ne 0 1 1.1234567\n", "line 2"),
        ("p flowmon 2 1\ne 0 1 -1\n", "line 2"),
        ("p flowmon 2 1\ne 0 1 1\ne 1 0 1\n", "line 3"),
        ("p flowmon 2 2\ne 0 1 1\n", "declared 2"),
        ("p flowmon 2 1\nx 0 1 1\n", "line 2"),
        ("", "line 1"),
        ("p flowmon 2 1\ne 0 1 99999999999999\n", "line 2"),
        ("p flowmon 2 3\ne 0 1 9000000000000\ne 1 0 9000000000000\n"
         "e 0 1 9000000000000\n", "line 3: total weight exceeds"),
    ],
)
def test_parse_errors_name_the_line(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert fragment in str(err.value)


@given(multigraphs(max_n=8, max_m=14))
def test_graph_round_trip(g):
    assert parse_graph(format_graph(g)) == g


def test_readings_round_trip():
    r = {3: -7, 0: 12, 5: 0}
    assert parse_readings(format_readings(r)) == r


@pytest.mark.parametrize("text", ["r 0\n", "r a 1\n", "q 0 1\n", "r 0 1\nr 0 2\n"])
def test_readings_errors(text):
    with pytest.raises(ParseError):
        parse_readings(text)


@pytest.mark.parametrize("value", [-(2**63), 2**63 - 1, -(2**63) - 1, 2**63])
def test_readings_hold_exactly_the_signed_64_bit_range(value):
    text = f"r 0 {value}\n"
    if -(2**63) <= value < 2**63:
        assert parse_readings(text) == {0: value}
    else:
        with pytest.raises(ParseError, match="^line 1: reading outside signed 64-bit range$"):
            parse_readings(text)


def test_edge_id_list():
    assert parse_edge_id_list("0,3,5") == {0, 3, 5}
    assert parse_edge_id_list("") == frozenset()
    with pytest.raises(ParseError):
        parse_edge_id_list("1,x")


def test_equal_weight_texts_parse_equal():
    g = parse_graph("p flowmon 2 5\ne 0 1 1\ne 0 1 01\ne 1 0 1.0\ne 0 1 1\ne 0 1 1.000000\n")
    assert [e.weight for e in g.edges] == [Weight.from_units(1)] * 5


# Header counts stay small: a header's vertex count is allocated, so a huge
# one would exhaust memory rather than exercise the parser.
_TOKENS = ["p", "flowmon", "e", "r", "c", "0", "1", "2", "-1", "x", "1.5", "", "\t"]
_WEIGHTS = ["1", "01", "1.0", "0", "1.1234567", "-1", "9000000000000", "99999999999999", "1e3"]
_graph_lines = st.one_of(
    st.lists(st.sampled_from(_TOKENS), max_size=5).map(" ".join),
    st.builds("e {} {} {}".format, st.integers(-1, 3), st.integers(-1, 3), st.sampled_from(_WEIGHTS)),
)
_graph_texts = st.builds(
    lambda header, body: "\n".join([header] + body),
    st.builds("p flowmon {} {}".format, st.integers(-1, 3), st.integers(-1, 4)),
    st.lists(_graph_lines, max_size=6),
)


@given(st.one_of(st.text(), _graph_texts))
def test_parse_graph_fuzz_returns_graph_or_parse_error(text):
    try:
        assert isinstance(parse_graph(text), Graph)
    except ParseError:
        pass


_readings_lines = st.one_of(
    st.lists(st.sampled_from(_TOKENS), max_size=4).map(" ".join),
    st.builds("r {} {}".format, st.integers(-2, 5), st.integers(-(2**64), 2**64)),
)


@given(st.one_of(st.text(), st.lists(_readings_lines, max_size=6).map("\n".join)))
def test_parse_readings_fuzz_returns_dict_or_parse_error(text):
    try:
        assert isinstance(parse_readings(text), dict)
    except ParseError:
        pass


_micros = st.one_of(
    st.sampled_from([0, 1, 250_000, 1_000_000, 1_500_000, 2_000_000]),
    st.integers(0, 10**13),
    st.integers(0, MAX_MICROS),
)


@st.composite
def _fractional_graphs(draw):
    n = draw(st.integers(1, 6))
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), _micros.map(Weight))
    return Graph.build(n, draw(st.lists(edge, max_size=12)))


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return f"ParseError: {exc}"


_NON_ASCII_DIGITS = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")
_INSERTS = ["\n", "c x\n", " ", "\t", "\r", "\r\n", "+", "0_", "e "]


@st.composite
def _near_misses(draw):
    """A canonical file (as format_graph writes it) with one or two
    edits: a string inserted, a space and a line end swapped, the
    digits after some point made non-ASCII, or a header count off by
    one. The parser's fast path must refuse each, or parse it as the
    line loop does."""
    g = draw(multigraphs(max_n=12, max_m=8))
    text = format_graph(g)
    for _ in range(draw(st.integers(1, 2))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "swap", "digits", "count"]))
        if edit == "insert":
            text = text[:at] + draw(st.sampled_from(_INSERTS)) + text[at:]
        elif edit == "swap" and text[at:at + 1] in (" ", "\n"):
            text = text[:at] + {" ": "\n", "\n": " "}[text[at]] + text[at + 1:]
        elif edit == "digits":
            text = text[:at] + text[at:].translate(_NON_ASCII_DIGITS)
        elif edit == "count":
            n, m = g.vertex_count, len(g.edges)
            off = draw(st.sampled_from([-1, 1]))
            header = f"p flowmon {n + off} {m}" if draw(st.booleans()) else f"p flowmon {n} {m + off}"
            text = header + text[text.find("\n"):]
    return text


@pytest.mark.differential
@settings(max_examples=500)
@given(st.one_of(st.text(), _graph_texts, _fractional_graphs().map(format_graph), _near_misses()))
# a 3-field line then a 5-field line, and 5 then 3: the tokens realign
@example("p flowmon 3 2\ne 0 1\n1 e 1 2 1\n")
@example("p flowmon 3 2\ne 0 1\ne e 1 2 1\n")
@example("p flowmon 3 2\ne 0 1 1 e\n1 2 1\n")
@example("p flowmon 3 1\ne 0 1\n 1")
# leading blank and comment lines
@example("\np flowmon 3 1\ne 0 1 1\n")
@example("c x\np flowmon 3 1\ne 0 1 1\n")
@example("p flowmon 3 1\nc x\ne 0 1 1\n")
# tabs, CRLF, double and trailing spaces, no final line end, a line
# broken by a CR with the space count kept
@example("p flowmon 3 1\ne 0\t1 1\n")
@example("p flowmon 3 1\r\ne 0 1 1\r\n")
@example("p flowmon 3 1\ne 0  1 1\n")
@example("p flowmon 3 1\ne 0 1 1 \n")
@example("p flowmon 3 1 \ne 0 1 1\n")
@example("p flowmon 3 1\ne 0 1 1")
@example("p flowmon 3 1\ne 0\r1 1 \n")
# endpoints that int() reads but are not plain decimals
@example("p flowmon 3 1\ne +1 2 1\n")
@example("p flowmon 12 1\ne 1_0 2 1\n")
@example("p flowmon 3 1\ne \u0661 2 \u0662\n")
@example("p flowmon +3 1\ne 0 1 1\n")
# a header count off by one
@example("p flowmon 3 2\ne 0 1 1\n")
@example("p flowmon 3 0\ne 0 1 1\n")
@example("p flowmon 2 1\ne 0 2 1\n")
@example("p flowmon -1 0\n")
# a total that overflows only in the running sum
@example("p flowmon 2 2\ne 0 1 5000000000000\ne 1 0 5000000000000\n")
# whole parts past int()'s 4,300-digit limit, on the fast path and (after
# a comment) the line loop: one overflows, one is 1.5 behind its zeros
@example("p flowmon 2 1\ne 0 1 " + "1" * 5000 + "\n")
@example("c x\np flowmon 2 1\ne 0 1 " + "1" * 5000 + "\n")
@example("p flowmon 2 1\ne 0 1 " + "0" * 5000 + "1.5\n")
@example("c x\np flowmon 2 1\ne 0 1 " + "0" * 5000 + "1.5\n")
def test_parse_graph_matches_line_by_line_parser(text):
    assert _parse_outcome(parse_graph, text) == _parse_outcome(parse_graph_by_lines, text)


@pytest.mark.parametrize("head", ["", "c x\n"])
def test_parse_graph_reads_whole_parts_past_the_int_digit_limit(head):
    # no comment takes the fast path, a comment the line loop
    text = f"{head}p flowmon 2 2\ne 0 1 {'0' * 5000}1.5\ne 1 0 {'1' * 5000}\n"
    for parse in (parse_graph, parse_graph_by_lines):
        with pytest.raises(ParseError, match=f"^line {3 + bool(head)}: weight exceeds"):
            parse(text)
    text = f"{head}p flowmon 2 1\ne 0 1 {'0' * 5000}1.5\n"
    assert parse_graph(text) == parse_graph_by_lines(text)
    assert parse_graph(text).edges[0].weight == Weight.parse("1.5")


def test_parse_graph_parses_each_token_once_per_call(monkeypatch):
    # one Weight per distinct token, shared by its edges; nothing is kept
    # from one call to the next, and a bad token raises at its own line
    # in every call
    calls = []

    class CountingWeight(Weight):
        @classmethod
        def parse(cls, token):
            calls.append(token)
            return Weight.parse(token)

    monkeypatch.setattr(textio, "Weight", CountingWeight)
    text = "p flowmon 3 4\ne 0 1 1.5\ne 1 2 2\ne 2 0 1.5\ne 0 0 2\n"
    first, second = parse_graph(text), parse_graph(text)
    assert calls == ["1.5", "2", "1.5", "2"]
    assert first == second and first.edges[0].weight is first.edges[2].weight
    assert first.edges[0].weight is not second.edges[0].weight
    for lineno in (2, 3):
        bad = "p flowmon 2 2\n" + "e 0 1 1\n" * (lineno - 2) + "e 0 1 1.x\ne 0 1 1.x\n"
        with pytest.raises(ParseError, match=f"^line {lineno}: bad weight '1.x'"):
            parse_graph(bad)
