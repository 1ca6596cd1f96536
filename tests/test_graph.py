import pickle
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowmon import cutspace
from flowmon import graph as graph_mod
from flowmon.cutspace import (
    class_table,
    cut_labels,
    fold_residual,
    span_search,
    take_class,
    triangles,
)
from flowmon.errors import ValidationError, WeightOverflowError
from flowmon.flowsim import infer
from flowmon.graph import (
    EdgeRecord,
    Graph,
    _known,
    bridge_ids,
    component_count,
    component_labels,
    contract,
    gain,
    is_c_edge_connected,
    make_mask,
    search_forest,
    spanning_forest,
)
from flowmon.kernel import kernel_graph
from flowmon.reduce import preprocess
from flowmon.weights import MAX_MICROS, Weight

from conftest import bridgeless_graphs, multigraphs
from oracles import (
    bridges_by_removal,
    c_edge_connected_naive,
    component_count_naive,
    components_of_masked,
    gain_micros_by_definition,
    kernel_labels_by_stages,
    label_span,
    pair_by_rows,
    search_forest_by_iterators,
    single_by_lists,
    span_search_exhaustive,
    triangles_by_triples,
    two_cut_classes_by_pairs,
)

TRIANGLE = Graph.build(3, [(0, 1), (1, 2), (0, 2)])
K4 = Graph.build(4, list(combinations(range(4), 2)))
TWO_TRIANGLES_JOINED = Graph.build(
    6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
)
PARALLEL_PAIR = Graph.build(2, [(0, 1), (0, 1)])


def test_components_isolated_vertices():
    g = Graph.build(3, [])
    assert component_labels(g) == [0, 1, 2] and component_count(g) == 3
    assert component_labels(Graph.build(0, [])) == [] and component_count(Graph.build(0, [])) == 0


def test_components_triangle():
    assert component_labels(TRIANGLE) == [0, 0, 0]


def test_components_disjoint_union():
    g = Graph.build(4, [(0, 1), (1, 2), (0, 2)])
    assert component_labels(g) == [0, 0, 0, 1]


@pytest.mark.differential
@given(multigraphs(max_n=8, max_m=16), st.data())
def test_components_match_naive_oracle(g, data):
    # the trees of one depth-first forest, numbered by their roots, are
    # the components that a search over plain edge lists numbers
    m = len(g.edges)
    mask = make_mask(g, data.draw(st.sets(st.integers(0, m - 1))) if m else ())
    assert component_labels(g, mask) == components_of_masked(g, mask)
    assert component_labels(g) == components_of_masked(g, bytes(m))
    assert component_count(g) == component_count_naive(g.vertex_count, [(e.u, e.v) for e in g.edges])


def test_bridges_path():
    g = Graph.build(3, [(0, 1), (1, 2)])
    assert set(bridge_ids(g)) == {0, 1}


def test_bridges_triangle_empty():
    assert bridge_ids(TRIANGLE) == []


def test_bridges_joining_edge_only():
    assert set(bridge_ids(TWO_TRIANGLES_JOINED)) == {6}


def test_parallel_edges_never_bridges():
    assert bridge_ids(PARALLEL_PAIR) == []


def test_self_loop_never_bridge():
    g = Graph.build(2, [(0, 1), (1, 1)])
    assert set(bridge_ids(g)) == {0}


@pytest.mark.differential
@given(multigraphs(max_n=7, max_m=14), st.data())
def test_bridges_match_removal_oracle(g, data):
    m = len(g.edges)
    removed = frozenset(data.draw(st.sets(st.integers(0, m - 1)))) if m else frozenset()
    assert set(bridge_ids(g)) == bridges_by_removal(g)
    assert frozenset(bridge_ids(g, make_mask(g, removed))) == bridges_by_removal(g, removed)


def assert_dfs_forest(g, mask, order, entry):
    """order and entry are a depth-first forest of g minus the masked
    edges, as search_forest grows it: preorder, roots in index order,
    and every other unmasked non-loop edge joins a vertex to an ancestor."""
    assert sorted(order) == list(range(g.vertex_count))
    parent = [-1] * g.vertex_count
    for v, eid in enumerate(entry):
        if eid >= 0:
            e = g.edges[eid]
            assert not mask[eid] and not e.is_loop and v in (e.u, e.v)
            parent[v] = e.u + e.v - v
    pos = {v: i for i, v in enumerate(order)}
    assert all(pos[parent[v]] < pos[v] for v in order if parent[v] >= 0)
    labels = components_of_masked(g, mask)
    roots = [v for v in order if entry[v] < 0]
    assert roots == [labels.index(c) for c in range(max(labels, default=-1) + 1)]

    def ancestors(v):
        while v >= 0:
            yield v
            v = parent[v]

    for e in g.edges:
        if mask[e.id] or e.is_loop or e.id in (entry[e.u], entry[e.v]):
            continue
        assert e.u in ancestors(e.v) or e.v in ancestors(e.u)


@pytest.mark.differential
@given(multigraphs(max_n=8, max_m=16), st.data())
def test_search_forest_is_a_dfs(g, data):
    m = len(g.edges)
    mask = make_mask(g, data.draw(st.sets(st.integers(0, m - 1))) if m else ())
    order, entry = search_forest(g, mask)
    assert_dfs_forest(g, mask, order, entry)
    # no mask follows every edge, as an all-zero mask does
    assert search_forest(g) == search_forest(g, bytes(m))


@pytest.mark.differential
@settings(max_examples=300)
@given(multigraphs(max_n=10, max_m=16), st.data())
def test_search_forest_grows_the_iterator_forest(g, data):
    # loops, parallel edges, isolated vertices and several components:
    # the same preorder and entry edges as the stack of iterators
    m = len(g.weights_micros)
    mask = make_mask(g, data.draw(st.sets(st.integers(0, m - 1))) if m else ())
    assert search_forest(g) == search_forest_by_iterators(g)
    assert search_forest(g, mask) == search_forest_by_iterators(g, mask)


@st.composite
def _edge_columns(draw):
    """A vertex count and the three edge columns of a random multigraph,
    each weight anywhere in 0..MAX_MICROS less the weights before it, so
    that the total stays within MAX_MICROS."""
    n = draw(st.integers(0, 8))
    m = draw(st.integers(0, 12)) if n else 0
    us = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)) if n else []
    vs = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)) if n else []
    micros, room = [], MAX_MICROS
    for _ in range(m):
        w = draw(st.sampled_from([0, min(1_500_000, room), room]) | st.integers(0, min(room, 10**7)))
        micros.append(w)
        room -= w
    return n, us, vs, micros


@pytest.mark.differential
@given(_edge_columns())
def test_column_built_graph_equals_the_record_built_one(columns):
    n, us, vs, micros = columns
    records = [EdgeRecord(i, u, v, Weight(w)) for i, (u, v, w) in enumerate(zip(us, vs, micros))]
    by_records = Graph.build(n, [rec[1:] for rec in records])
    by_columns = Graph(n, us, vs, micros)
    for g in (by_records, by_columns):
        assert (g.vertex_count, g.us, g.vs, g.weights_micros) == (n, tuple(us), tuple(vs), tuple(micros))
        assert g.edges == tuple(records)
    assert by_columns == by_records and hash(by_columns) == hash(by_records)
    # each graph flowmon derives is column-built too
    assert contract(by_records, range(n), range(len(us))) == by_records
    for g in (by_records, by_columns):
        back = pickle.loads(pickle.dumps(g))
        assert back == g and back.edges == g.edges and hash(back) == hash(g)


@given(_edge_columns())
def test_graph_refuses_columns_whose_total_passes_max_micros(columns):
    n, us, vs, micros = columns
    n = max(n, 1)
    with pytest.raises(WeightOverflowError, match=f"weight exceeds {MAX_MICROS} millionths"):
        Graph(n, [*us, 0], [*vs, 0], [*micros, MAX_MICROS - sum(micros) + 1])


def test_build_refuses_weights_whose_total_passes_max_micros():
    # each weight fits on its own, but gain, sigma_greedy, exact and
    # solve_pipeline would each sum past MAX_MICROS partway through
    w = MAX_MICROS // 10**6
    with pytest.raises(WeightOverflowError, match=f"weight exceeds {MAX_MICROS} millionths"):
        Graph.build(3, [(0, 1, w), (1, 2, w), (2, 0, 1)])


class _ForgedGraph:
    """Pickles as a Graph whose second endpoint column is out of range."""

    def __reduce__(self):
        return Graph, (2, (0,), (5,), (1,))


def test_pickle_round_trips_the_columns_through_the_constructor(monkeypatch):
    g = Graph.build(3, [(0, 1, 2), (1, 2, "1.5"), (2, 2, 0)])

    def refuse(*columns):
        raise AssertionError("edge records built")

    monkeypatch.setattr(graph_mod, "edge_records", refuse)
    back = pickle.loads(pickle.dumps(g))
    assert back == g and back._edges is None and back._adjacency is None
    # unpickling runs the constructor's checks
    with pytest.raises(ValidationError, match=r"edge 0 endpoints \(0,5\) out of range"):
        pickle.loads(pickle.dumps(_ForgedGraph()))


def test_edges_and_adjacency_are_built_on_first_read():
    g = Graph(3, [0, 1, 2, 2], [1, 2, 0, 2], [1, 2, 3, 4])
    assert g._edges is None and g._adjacency is None
    # each vertex's neighbours in descending edge id, the loop left out
    assert g.adjacency == (((2, 2), (1, 0)), ((2, 1), (0, 0)), ((0, 2), (1, 1)))
    assert g._edges is None
    assert g.edges == (EdgeRecord(0, 0, 1, Weight(1)), EdgeRecord(1, 1, 2, Weight(2)),
                       EdgeRecord(2, 2, 0, Weight(3)), EdgeRecord(3, 2, 2, Weight(4)))
    assert g.edges is g.edges and g.adjacency is g.adjacency


@pytest.mark.differential
@settings(max_examples=300)
@given(multigraphs(max_n=10, max_m=16), st.data())
def test_known_and_kernel_components_match_stages(g, data):
    # loops, parallel edges, isolated vertices and several components
    m = len(g.edges)
    monitors = data.draw(st.sets(st.integers(0, m - 1))) if m else set()
    mask, order, entry, exposed = _known(g, monitors)
    labels = list(kernel_graph(g, monitors).component_of)
    assert (exposed, labels) == kernel_labels_by_stages(g, monitors)
    # the mask is M and B, and the forest it returns is the depth-first
    # forest of G - M
    assert mask == make_mask(g, monitors | set(exposed))
    assert_dfs_forest(g, make_mask(g, monitors), order, entry)


def test_kernel_components_do_not_flood_fill(monkeypatch):
    # the components of G - M - B come off the forest that finds B
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return component_labels(*args, **kwargs)

    monkeypatch.setattr(graph_mod, "component_labels", counting)
    g = Graph.build(7, [(0, 1), (1, 2), (2, 0), (2, 3), (4, 5), (5, 6), (6, 4), (4, 4)])
    exposed = _known(g, [0])[3]
    labels = list(kernel_graph(g, [0]).component_of)
    assert calls == []
    assert (sorted(exposed), labels) == ([1, 2, 3], [0, 1, 2, 3, 4, 4, 4])


@pytest.mark.parametrize("bad", [-1, 3])
@pytest.mark.parametrize("known", [_known, kernel_graph])
def test_known_refuses_edge_ids_out_of_range(known, bad):
    # -1 would mark the last edge, 3 would end in a bare IndexError
    triangle = Graph.build(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValidationError, match=f"^edge id {bad} out of range for graph with 3 edges$"):
        known(triangle, [bad])


def test_tree_passes_do_not_recurse_on_deep_graphs():
    # a 200,000-edge cycle with a 1,000-edge path hanging off vertex 0
    cycle, tail = 200_000, 1_000
    one = Weight.from_units(1)
    edges = [(i, (i + 1) % cycle, one) for i in range(cycle)]
    edges += [(0 if i == 0 else cycle + i - 1, cycle + i, one) for i in range(tail)]
    g = Graph.build(cycle + tail, edges)
    pendant = set(range(cycle, cycle + tail))
    assert set(bridge_ids(g)) == pendant
    assert {e for e, x in enumerate(cut_labels(g)) if not x} == pendant
    assert component_labels(g) == [0] * (cycle + tail) and component_count(g) == 1
    # the cycle is one edge group, so G reduces to one vertex with a loop
    reduced, rmap = preprocess(g)
    assert reduced == Graph.build(1, [(0, 0, cycle)]) and rmap.stripped_bridges == pendant
    assert set(rmap.vertex_map) == {0} and rmap.orig_edge_of_reduced == (cycle - 1,)
    result = infer(g, [0], {0: 5})
    assert result.consistent and not result.undetermined
    assert all(result.determined[e] == (5 if e < cycle else 0) for e in range(len(edges)))


def test_gain_triangle():
    assert gain(TRIANGLE, {0}) == Weight.from_units(3)


def test_gain_k4_single_edge():
    # K4 minus an edge stays 2-edge-connected, so nothing extra is exposed
    assert gain(K4, {0}) == Weight.from_units(1)


def test_gain_all_edges_is_total_weight():
    g = Graph.build(3, [(0, 1, 2), (1, 2, 3), (0, 2, 4)])
    assert gain(g, {0, 1, 2}) == g.total_weight()


def test_gain_rejects_bad_ids():
    with pytest.raises(ValidationError):
        gain(TRIANGLE, {7})


@pytest.mark.differential
@given(multigraphs(max_n=6, max_m=10), st.data())
def test_gain_matches_definition_and_grows(g, data):
    m = len(g.edges)
    ids = sorted(data.draw(st.sets(st.integers(0, m - 1), max_size=4))) if m else []
    mon = frozenset(ids)
    assert gain(g, mon).micros == gain_micros_by_definition(g, mon)
    assert gain(g, mon).micros >= sum(g.weights_micros[e] for e in mon)
    if m and len(mon) < m:
        extra = next(e for e in range(m) if e not in mon)
        assert gain(g, mon | {extra}) >= gain(g, mon)


@given(multigraphs(max_n=6, max_m=10))
def test_gain_of_empty_set_is_bridge_weight(g):
    w = g.weights_micros
    assert gain(g, frozenset()).micros == sum(w[e] for e in bridge_ids(g))


def test_c_edge_connected_cycle():
    c4 = Graph.build(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert is_c_edge_connected(c4, 2)
    assert not is_c_edge_connected(c4, 3)


def test_c_edge_connected_prism():
    from flowmon.generators import gen_ladder

    assert is_c_edge_connected(gen_ladder(8), 3)


def test_c_edge_connected_conventions():
    assert is_c_edge_connected(Graph.build(1, [(0, 0)]), 3)
    assert is_c_edge_connected(Graph.build(0, []), 3)
    assert not is_c_edge_connected(Graph.build(2, []), 1)
    with pytest.raises(ValidationError):
        is_c_edge_connected(TRIANGLE, 4)


@pytest.mark.differential
@given(multigraphs(max_n=5, max_m=8), st.integers(1, 3))
def test_c_edge_connected_matches_subset_oracle(g, c):
    assert is_c_edge_connected(g, c) == c_edge_connected_naive(g, c)


@pytest.mark.differential
@given(multigraphs(max_n=7, max_m=14))
def test_cut_labels_zero_exactly_on_bridges(g):
    labels = cut_labels(g)
    assert frozenset(e for e, x in enumerate(labels) if x == 0) == bridges_by_removal(g)


@pytest.mark.differential
@given(bridgeless_graphs())
def test_cut_labels_equal_exactly_on_two_cuts(g):
    classes: dict[int, set[int]] = {}
    for e, x in enumerate(cut_labels(g)):
        classes.setdefault(x, set()).add(e)
    assert {frozenset(c) for c in classes.values()} == two_cut_classes_by_pairs(g)


@pytest.mark.differential
@given(multigraphs(max_n=6, max_m=10), st.data())
def test_cut_label_span_is_gain(g, data):
    m = len(g.edges)
    mon = frozenset(data.draw(st.sets(st.integers(0, m - 1), max_size=4))) if m else frozenset()
    labels = cut_labels(g)
    span = label_span(labels[e] for e in mon)
    w = g.weights_micros
    assert sum(w[e] for e in range(m) if labels[e] in span) == gain_micros_by_definition(g, mon)


@pytest.mark.differential
@given(st.lists(st.integers(0, 63), max_size=6), st.lists(st.integers(0, 63), max_size=6))
def test_folded_residuals_name_cosets(rows, probes):
    # fold the rows one by one into rows + probes, as span_search does
    res = rows + probes
    pivots = 0
    for j in range(len(rows)):
        if res[j]:
            pivots |= 1 << res[j].bit_length() - 1
        res = fold_residual(res, res[j])
    span = label_span(rows)
    folded = res[len(rows):]
    for x, fx in zip(probes, folded):
        for y, fy in zip(probes, folded):
            assert (fx == fy) == (x ^ y in span)
    assert all(r & pivots == 0 for r in res)
    assert all(r == 0 for r in res[: len(rows)])


def _subset_value(res, wts, p):
    span = label_span(res[j] for j in p)
    return sum(wt for x, wt in zip(res, wts) if x in span)


@pytest.mark.differential
@given(
    st.lists(st.tuples(st.integers(0, 31), st.integers(0, 4)), max_size=9),
    st.data(),
)
def test_span_search_is_the_first_best_subset(items, data):
    res = [x for x, _ in items]
    wts = [wt for _, wt in items]
    # a size-1 step reads the class table (see the tests below)
    size = data.draw(st.integers(0, len(res)).filter(lambda s: s != 1))
    first_best = (-1, ())
    for p in combinations(range(len(res)), size):
        val = _subset_value(res, wts, p)
        if val > first_best[0]:
            first_best = (val, p)
    best, pick, folded = span_search(res, wts, size, sum(wts) + 1)
    assert (best, pick) == first_best
    span = label_span(res[j] for j in pick)
    assert [x == 0 for x in folded] == [x in span for x in res]
    # stopping at the best value still returns the first best subset, and
    # a lower stop value returns a subset worth at least that much
    assert span_search(res, wts, size, best)[:2] == first_best
    stop = data.draw(st.integers(0, best))
    val, p, _ = span_search(res, wts, size, stop)
    assert val >= stop and val == _subset_value(res, wts, p) and len(p) == size


@pytest.mark.differential
@settings(max_examples=300)
@given(
    st.lists(st.tuples(st.integers(0, 15) | st.just(0), st.integers(0, 2)), max_size=10),
    st.data(),
)
def test_span_search_matches_the_exhaustive_search(items, data):
    # few distinct residuals (zeros among them) and weights 0..2 make
    # ties everywhere, so equal bounds and equal subsets both occur
    res = [x for x, _ in items]
    wts = [wt for _, wt in items]
    size = data.draw(st.integers(0, len(res)).filter(lambda s: s != 1))
    best = span_search_exhaustive(res, wts, size, sum(wts) + 1)[0]
    stop = data.draw(st.sampled_from([best - 1, best, best + 1, 0, sum(wts) + 1]))
    assert span_search(res, wts, size, stop) == span_search_exhaustive(res, wts, size, stop)


def test_span_search_keeps_the_first_of_tied_subsets(search_counts):
    # 6, 4 and 2 each lie in the span of the other two, so the pairs
    # (0, 1), (0, 2) and (1, 2) all collect positions 0-2 and tie at 3,
    # the weight of the triangle 6, 4, 2. The row of 6 is bounded by
    # 1 plus that triangle's other two, which reaches 3, and it is the
    # first row read and the answer. pair_by_rows bounds the picks 4 and
    # 2 by 0 + 1 + 1 + 1, which equals the best value, and skips them.
    res, wts = [6, 4, 2, 5], [1, 1, 1, 1]
    assert span_search(res, wts, 2, 5) == (3, (0, 1), [0, 0, 0, 1])
    assert pair_by_rows(res, wts, 5) == (3, (0, 1), [0, 0, 0, 1])
    assert span_search_exhaustive(res, wts, 2, 5) == (3, (0, 1), [0, 0, 0, 1])
    assert search_counts["cutspace", "pair reads"] == 1
    assert search_counts["oracles", "pair reads"] == 1 + 3


def test_span_search_reads_only_the_rows_that_reach_the_best_pair(search_counts):
    # the best pair, worth 3, sits in the triangle 4, 8, 12; the rows of 1
    # and 2 are bounded by 1 + 1 < 3 and not read, so the row of 4 is the
    # one read. pair_by_rows reads the rows of 1 and 2 first, each worth 2
    res, wts = [1, 2, 4, 8, 12], [1] * 5
    expected = (3, (2, 3), [1, 2, 0, 0, 0])
    assert span_search(res, wts, 2, 5) == expected
    assert search_counts["cutspace", "pair reads"] == 1
    assert pair_by_rows(res, wts, 5) == expected
    assert search_counts["oracles", "pair reads"] == 3
    # a stop of 2 is reached by the first row, whatever reads it
    assert span_search(res, wts, 2, 2) == pair_by_rows(res, wts, 2) == (2, (0, 1), [0, 0, 4, 8, 12])
    # the heaviest class, 8, is worth 3 with any other, less than the
    # triangle 1, 2, 3, worth 6, so its row is not read either
    search_counts.clear()
    res, wts = [8, 1, 2, 3], [3, 2, 2, 2]
    expected = (6, (1, 2), [8, 0, 0, 0])
    assert span_search(res, wts, 2, 7) == pair_by_rows(res, wts, 7) == expected
    assert search_counts["cutspace", "pair reads"] == 1
    assert search_counts["oracles", "pair reads"] == 3


@pytest.mark.differential
@settings(max_examples=400)
@given(
    st.lists(st.integers(1, 63), min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(
            st.tuples(
                # the pool, its pairwise XORs (triangles) and zeros, repeated
                st.sampled_from(sorted({0, *pool, *(a ^ b for a in pool for b in pool)})),
                st.integers(0, 3),
            ),
            min_size=2,
            max_size=12,
        )
    ),
    st.data(),
)
def test_span_search_at_size_two_matches_the_row_reads(items, data):
    res = [x for x, _ in items]
    wts = [wt for _, wt in items]
    best = pair_by_rows(res, wts, sum(wts) + 1)[0]
    stop = data.draw(
        st.sampled_from([best - 1, best, best + 1, -1, 0, sum(wts) + 1]) | st.integers(-1, sum(wts) + 1)
    )
    got = span_search(res, wts, 2, stop)
    assert got == pair_by_rows(res, wts, stop) == span_search_exhaustive(res, wts, 2, stop)


@pytest.mark.differential
@given(st.sets(st.integers(1, 127), max_size=7), st.booleans())
def test_triangles_are_the_triples_that_xor_to_zero(keys, closed):
    # closed adds the XOR of every two keys, so most triples are triangles
    if closed:
        keys |= {a ^ b for a in keys for b in keys if a != b}
    table = dict.fromkeys(keys, 1)
    found = triangles(table)
    assert len(found) == len(triangles_by_triples(table))
    assert {frozenset(t) for t in found} == triangles_by_triples(table)
    # a and b share the triangle's lowest set bit, c = a ^ b has a higher one
    for a, b, c in found:
        assert a ^ b == c and a & -a == b & -b < c & -c


@pytest.mark.differential
@settings(max_examples=200)
@given(
    st.lists(st.integers(1, 63), max_size=3).flatmap(
        lambda pool: st.lists(
            st.tuples(st.sampled_from([0, *pool]), st.integers(0, 2)), max_size=14
        )
    ),
    st.data(),
)
def test_span_search_matches_the_exhaustive_search_on_repeated_residuals(items, data):
    # at most four distinct residuals, zero among them, so most positions
    # repeat a residual an earlier position of the same prefix tried
    res = [x for x, _ in items]
    wts = [wt for _, wt in items]
    size = data.draw(st.integers(0, len(res)).filter(lambda s: s != 1))
    best = span_search_exhaustive(res, wts, size, sum(wts) + 1)[0]
    stop = data.draw(st.sampled_from([best - 1, best, best + 1, 0, sum(wts) + 1]))
    assert span_search(res, wts, size, stop) == span_search_exhaustive(res, wts, size, stop)


@pytest.mark.differential
@given(st.lists(st.tuples(st.integers(0, 31), st.integers(0, 4)), min_size=1, max_size=9))
def test_class_table_takes_the_first_best_position(items):
    res = [x for x, _ in items]
    wts = [wt for _, wt in items]
    first_best = max((_subset_value(res, wts, (j,)), -j) for j in range(len(res)))
    best, j, taken = take_class(*class_table(res, wts))
    assert (best, -j) == first_best
    span = label_span([res[j]])
    assert sorted(taken) == [i for i, x in enumerate(res) if x in span]


@pytest.mark.differential
@settings(max_examples=300)
@given(
    st.lists(st.integers(1, 63), min_size=1, max_size=5).flatmap(
        lambda pool: st.lists(
            st.tuples(st.sampled_from([0, *pool]), st.integers(0, 2)), min_size=1, max_size=16
        )
    )
)
def test_class_table_steps_match_the_list_steps(items):
    # few distinct residuals, zeros and weights 0..2: classes tie, the zero
    # class ties with them at 0, and folds merge classes
    res = [x for x, _ in items]
    wts = [wt for _, wt in items]
    table, zero = class_table(res, wts)
    live = list(range(len(res)))
    while live:
        best, (pick,), res = single_by_lists(res, wts)
        value, j, taken = take_class(table, zero)
        assert (value, j) == (best, live[pick])
        assert sorted(taken) == [i for i, x in zip(live, res) if not x]
        zero = 0
        live, wts = [i for i, x in zip(live, res) if x], [wt for wt, x in zip(wts, res) if x]
        res = [x for x in res if x]
        # the folded table is the one the live folded residuals build, at
        # their original positions
        rebuilt, rebuilt_zero = class_table(res, wts)
        assert rebuilt_zero == 0
        assert {
            y: [w, -live[-f], sorted(live[i] for i in members), y]
            for y, (w, f, members, _) in rebuilt.items()
        } == {y: [w, f, sorted(members), key] for y, (w, f, members, key) in table.items()}


def test_class_table_zero_class_ties_at_zero():
    # position 0 is a bridge (residual 0) and every class weighs 0: the
    # first position wins, as the first maximum of the gain list does,
    # and only the zero class is collected
    res, wts = [0, 3, 0, 3, 5], [4, 0, 2, 0, 0]
    table, zero = class_table(res, wts)
    assert zero == 6 and take_class(table, zero) == (6, 0, [0, 2])
    assert sorted(table) == [3, 5]
    # a heavier class takes the zero class with it, and the class 6
    # carries 3's pivot bit, so it folds to 6 ^ 3 = 5
    res, wts = [3, 0, 3, 6], [1, 4, 1, 1]
    table, zero = class_table(res, wts)
    best, j, taken = take_class(table, zero)
    assert (best, j, sorted(taken)) == (6, 0, [0, 1, 2])
    assert table == {5: [1, -3, [3], 5]}


def _caps_by_subsets(coset, val, need):
    # val plus the heaviest 2^need - 1, 2^need - 2 and 2^(need-1) - 1
    # table weights, each the best sum over subsets of that many entries
    weights = list(coset.values())
    return tuple(
        val + max(sum(c) for c in combinations(weights, min(count, len(weights))))
        for count in ((1 << need) - 1, (1 << need) - 2, (1 << need - 1) - 1)
    )


@pytest.mark.parametrize(
    "weights, need",
    [
        ([3, 3, 3, 1, 1], 2),  # ties at the cut: 3 of 5 entries
        ([2, 5, 5, 0, 5, 1, 2, 2], 3),  # ties, 7 of 8 entries
        ([4, 1, 4, 1, 4, 1, 4, 1, 4], 3),
        ([7, 2, 9], 3),  # shorter than 2 * half + 1 = 7, half = 3 = len
        ([7, 2, 9, 1], 3),  # shorter than 7, half = 3 < len
        ([1, 6], 3),  # half >= len
        ([5], 2),  # half = 1 = len
        ([0, 0, 0], 1),  # need 1: half = 0
    ],
)
def test_caps_match_a_full_sort_by_subsets(weights, need):
    coset = {x: wt for x, wt in enumerate(weights, start=1)}
    val = 10
    assert cutspace._caps(coset, val, need, val + sum(weights)) == _caps_by_subsets(
        coset, val, need
    )


def test_span_search_tries_each_repeated_residual_once(search_counts):
    # seven residuals, each twice, at unit weight; the best 4-subset spans
    # 1, 2, 4 and 8. Measured with and without the skip: the bounded
    # search without it made the oracle's 75 folds and 221 pair reads
    res = [1, 2, 1, 2, 4, 4, 8, 8, 16, 16, 32, 32, 64, 64]
    expected = (8, (0, 1, 4, 6), [0] * 8 + [16, 16, 32, 32, 64, 64])
    assert span_search(res, [1] * 14, 4, 15) == expected
    assert span_search_exhaustive(res, [1] * 14, 4, 15) == expected
    assert search_counts["cutspace", "folds"] == 26
    assert search_counts["cutspace", "pair reads"] == 41
    assert search_counts["oracles", "folds"] == 75
    assert search_counts["oracles", "pair reads"] == 286


def test_span_search_tries_a_repeated_zero_once(search_counts):
    # after position 0's prefixes reach 10, the zero at position 1 still
    # has the bound 0 + 5 + 5 + 5; its prefixes are worth what position
    # 0's were, so it is skipped. Without the skip: 6 pair reads
    res, wts = [0, 0, 1, 2, 4], [0, 0, 5, 5, 5]
    expected = (15, (2, 3, 4), [0, 0, 0, 0, 0])
    assert span_search(res, wts, 3, 16) == expected
    assert span_search_exhaustive(res, wts, 3, 16) == expected
    assert search_counts["cutspace", "pair reads"] == 4
    assert search_counts["oracles", "pair reads"] == 6


def test_spanning_forest_triangle_lowest_ids():
    assert spanning_forest(TRIANGLE) == {0, 1}


def test_spanning_forest_keeps_forest_drops_loops():
    g = Graph.build(4, [(0, 1), (2, 3), (1, 1)])
    assert spanning_forest(g) == {0, 1}


def test_spanning_forest_parallel_rejected():
    g = Graph.build(2, [(0, 1), (0, 1), (0, 1)])
    assert spanning_forest(g) == {0}


@given(multigraphs(max_n=7, max_m=12))
def test_spanning_forest_size_and_acyclicity(g):
    forest = spanning_forest(g)
    comps = max(component_labels(g), default=-1) + 1
    assert len(forest) == g.vertex_count - comps
    # acyclic: adding edges one by one must always join two components
    parent = list(range(g.vertex_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in sorted(forest):
        ru, rv = find(g.edges[e].u), find(g.edges[e].v)
        assert ru != rv
        parent[ru] = rv


def test_graph_validation():
    with pytest.raises(ValidationError):
        Graph.build(2, [(0, 5)])


def _set_edges():
    Graph.build(1, []).edges = ()


@pytest.mark.parametrize("build, error, message", [
    (lambda: Graph(-1, [], [], []), ValidationError, "vertex_count must be non-negative"),
    (lambda: Graph(2, [0, 1], [1], [1, 1]), ValidationError, "the edge columns must have one length"),
    (lambda: Graph(2, [0, 1, 0], [1, 2, 5], [1, 1, 1]), ValidationError, r"edge 1 endpoints \(1,2\) out of range"),
    (lambda: Graph(2, [0, 1, -1], [1, 0, 0], [1, 1, 1]), ValidationError, r"edge 2 endpoints \(-1,0\) out of range"),
    (lambda: Graph(2, [0, 1], [1, 0], [3, -1]), ValidationError, "weights are non-negative"),
    (lambda: Graph(2, [0, 1], [1, 0], [MAX_MICROS // 2 + 1] * 2), WeightOverflowError,
     f"weight exceeds {MAX_MICROS} millionths"),
    (_set_edges, AttributeError, "Graph is immutable"),
], ids=["negative-n", "column-lengths", "endpoint-past-n", "endpoint-negative", "negative-weight",
        "total-past-max-micros", "set-attribute"])
def test_graph_refuses(build, error, message):
    with pytest.raises(error, match=message) as refused:
        build()
    assert refused.type is error


def test_contract_maps_the_kept_edges_in_the_order_given():
    g = Graph.build(5, [(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4), (4, 4, 5)])
    vmap = [0, 0, 1, 1, 2]
    assert contract(g, vmap, [4, 2, 1]) == Graph.build(3, [(2, 2, 5), (1, 1, 3), (0, 1, 2)])
    heavy = [7_000_000, 8_000_000]
    assert contract(g, vmap, [3, 0], heavy) == Graph.build(3, [(1, 2, 7), (0, 0, 8)])
    # the vertex count is one past the largest vertex of the map, kept
    # edges or not: the identity map keeps g whole
    assert contract(g, range(5), range(5)) == g
    assert contract(g, [0, 0, 0, 0, 3], []) == Graph.build(4, [])
    assert contract(Graph.build(0, []), [], []) == Graph.build(0, [])
