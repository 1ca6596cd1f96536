import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowmon.errors import ParseError
from flowmon.graph import Graph
from flowmon.textio import (
    format_graph,
    format_readings,
    parse_edge_id_list,
    parse_graph,
    parse_readings,
)
from flowmon.weights import Weight

from conftest import multigraphs


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
