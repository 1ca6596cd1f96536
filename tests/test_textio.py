import pytest
from hypothesis import given, settings
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


@settings(max_examples=500)
@given(st.one_of(st.text(), _graph_texts, _fractional_graphs().map(format_graph)))
def test_parse_graph_matches_line_by_line_parser(text):
    assert _parse_outcome(parse_graph, text) == _parse_outcome(parse_graph_by_lines, text)


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
