from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowmon import graph as graph_mod
from flowmon import reduce as reduce_mod
from flowmon.cutspace import deputies
from flowmon.errors import FlowmonError, ValidationError, WeightOverflowError
from flowmon.generators import gen_cycle, gen_fig1, gen_greedy1_tight, gen_ladder
from flowmon.graph import Graph, bridge_ids, component_labels, gain, is_c_edge_connected
from flowmon.reduce import (
    contract_groups,
    edge_groups,
    lift_monitors,
    merge_components,
    preprocess,
    strip_bridges,
)
from flowmon.solvers import exact, solve_pipeline
from flowmon.weights import MAX_MICROS, Weight

from conftest import bridgeless_graphs, multigraphs, record_graph_calls
from oracles import (
    components_naive,
    exact_reference,
    is_pair_two_cut,
    preprocess_by_stages,
    two_cut_classes_by_pairs,
)

TWO_TRIANGLES_JOINED = Graph.build(
    6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
)


def test_strip_bridges_path():
    g = Graph.build(4, [(0, 1), (1, 2), (2, 3)])
    out, dropped = strip_bridges(g)
    assert len(out.edges) == 0
    assert dropped == {0, 1, 2}


def test_strip_bridges_triangle_untouched():
    g = Graph.build(3, [(0, 1), (1, 2), (0, 2)])
    out, dropped = strip_bridges(g)
    assert out == g and dropped == frozenset()


def test_strip_bridges_checks_fixed_point(monkeypatch):
    # a bridge finder that misses a bridge must fail loudly, also under -O
    path = Graph.build(3, [(0, 1), (1, 2)])
    real = reduce_mod.bridge_ids
    calls = []

    def missing_one(g, removed=None):
        # the first pass misses bridge 1; the post-check sees it
        calls.append(g)
        return [0] if len(calls) == 1 else real(g, removed)

    monkeypatch.setattr(reduce_mod, "bridge_ids", missing_one)
    with pytest.raises(FlowmonError, match="fixed point"):
        strip_bridges(path)


def test_strip_bridges_joining_edge():
    out, dropped = strip_bridges(TWO_TRIANGLES_JOINED)
    assert dropped == {6}
    assert len(out.edges) == 6
    assert bridge_ids(out) == []


@given(multigraphs())
def test_strip_bridges_reaches_fixed_point(g):
    out, dropped = strip_bridges(g)
    assert bridge_ids(out) == []
    assert len(out.edges) + len(dropped) == len(g.edges)


def test_merge_two_triangles():
    g = Graph.build(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    out, vmap = merge_components(g)
    assert out.vertex_count == 5
    assert len(out.edges) == 6
    assert vmap == (0, 1, 2, 0, 3, 4)


def test_merge_connected_is_identity():
    g = Graph.build(3, [(0, 1), (1, 2), (0, 2)])
    out, vmap = merge_components(g)
    assert out == g
    assert vmap == (0, 1, 2)


def test_merge_tight_family_instance():
    g = gen_greedy1_tight(5)
    out, _ = merge_components(g)
    assert out.vertex_count == g.vertex_count - 1
    assert [e.weight for e in out.edges] == [e.weight for e in g.edges]
    assert max(component_labels(out)) == 0


def test_edge_groups_cycle_single_class():
    assert edge_groups(gen_cycle(5)) == (frozenset(range(5)),)


def test_edge_groups_3ec_all_singletons():
    g = gen_ladder(8)
    assert all(len(c) == 1 for c in edge_groups(g))


def test_edge_groups_degree_two_vertex():
    # vertex 3 has degree 2 inside a bridgeless graph: its edges pair up
    g = Graph.build(4, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 2)])
    classes = {frozenset(c) for c in edge_groups(g)}
    assert frozenset({3, 4}) in classes


def test_edge_groups_rejects_bridged_input():
    with pytest.raises(ValidationError):
        edge_groups(TWO_TRIANGLES_JOINED)


def test_edge_groups_loop_is_singleton():
    g = Graph.build(3, [(0, 1), (1, 2), (0, 2), (1, 1)])
    assert frozenset({3}) in set(edge_groups(g))


@pytest.mark.differential
@given(bridgeless_graphs())
def test_edge_groups_match_pairwise_oracle(g):
    assert set(edge_groups(g)) == two_cut_classes_by_pairs(g)


@pytest.mark.differential
@given(bridgeless_graphs(max_n=6, max_extra=4))
def test_edge_groups_partition_and_cut_semantics(g):
    classes = edge_groups(g)
    seen = set()
    for cls in classes:
        assert not (cls & seen)
        seen |= cls
    assert seen == set(range(len(g.edges)))
    for cls in classes:
        for a, b in combinations(sorted(cls), 2):
            assert is_pair_two_cut(g, a, b)
    for c1, c2 in combinations(classes, 2):
        for a in c1:
            for b in c2:
                assert not is_pair_two_cut(g, a, b)


def test_contract_cycle_to_loop():
    reduced, rmap = contract_groups(gen_cycle(4))
    assert reduced.vertex_count == 1
    assert len(reduced.edges) == 1
    assert reduced.edges[0].is_loop
    assert reduced.edges[0].weight == Weight.from_units(4)
    assert rmap.orig_edge_of_reduced == (3,)  # deputy is the highest id


def test_contract_refuses_a_group_weight_past_max_micros():
    # each edge is in range, but the cycle's one group would sum past the
    # bound: the constructor refuses the graph, so no contraction sees it
    half = MAX_MICROS // 2 + 1
    with pytest.raises(WeightOverflowError):
        Graph(2, [0, 1], [1, 0], [half, half])


def test_contract_3ec_graph_unchanged_shape():
    g = gen_ladder(8)
    reduced, rmap = contract_groups(g)
    assert reduced.vertex_count == g.vertex_count
    assert len(reduced.edges) == len(g.edges)
    assert rmap.orig_edge_of_reduced == tuple(range(12))


def test_contract_fig1_deputy():
    g, _, _ = gen_fig1()
    reduced, rmap = preprocess(g)
    assert reduced.vertex_count == 7 and len(reduced.edges) == 11
    sizes = {}
    for gi in rmap.group_of.values():
        sizes[gi] = sizes.get(gi, 0) + 1
    multi = [gi for gi, c in sizes.items() if c > 1]
    assert len(multi) == 1
    members = {e for e, gi in rmap.group_of.items() if gi == multi[0]}
    assert members == {2, 5}
    deputy_reduced = rmap.deputy_of_group[multi[0]]
    assert rmap.orig_edge_of_reduced[deputy_reduced] == 5
    assert reduced.edges[deputy_reduced].weight == Weight.from_units(2)


@given(bridgeless_graphs(max_n=6, max_extra=4))
def test_contract_result_is_3ec_and_weight_preserving(g):
    reduced, rmap = contract_groups(g)
    assert (reduced, rmap) == preprocess(g)
    assert is_c_edge_connected(reduced, 3)
    assert reduced.total_weight() == g.total_weight()
    for gi, deputy in enumerate(rmap.deputy_of_group):
        members = [e for e, gg in rmap.group_of.items() if gg == gi]
        assert reduced.edges[deputy].weight.micros == sum(
            g.weights_micros[e] for e in members
        )


@pytest.mark.differential
@settings(max_examples=200)
@given(multigraphs())
def test_contract_vertex_map_matches_components_without_deputies(g):
    # contracting every non-deputy group member merges what those members
    # connect; components are numbered by their lowest vertex
    g, _ = merge_components(strip_bridges(g)[0])
    deputies = {max(cls) for cls in edge_groups(g)}
    live = [(e.u, e.v) for e in g.edges if e.id not in deputies]
    _, rmap = contract_groups(g)
    assert rmap.vertex_map == tuple(components_naive(g.vertex_count, live))


def test_lift_identity():
    g = gen_ladder(8)
    _, rmap = contract_groups(g)
    assert lift_monitors({3, 7}, rmap) == {3, 7}


def test_lift_cycle_deputy():
    _, rmap = contract_groups(gen_cycle(6))
    assert lift_monitors({0}, rmap) == {5}


def test_lift_rejects_non_deputy():
    _, rmap = contract_groups(gen_cycle(6))
    with pytest.raises(ValidationError):
        lift_monitors({1}, rmap)


@given(bridgeless_graphs(max_n=6, max_extra=3), st.data())
def test_lift_preserves_gain(g, data):
    reduced, rmap = contract_groups(g)
    mr = len(reduced.edges)
    picks = data.draw(st.sets(st.integers(0, mr - 1), max_size=3))
    lifted = lift_monitors(picks, rmap)
    assert len(lifted) == len(picks)
    assert gain(g, lifted) == gain(reduced, picks)


@given(bridgeless_graphs(max_n=6, max_extra=3), st.data())
def test_deputy_swap_keeps_gain(g, data):
    classes = edge_groups(g)
    m = len(g.edges)
    mon = data.draw(st.sets(st.integers(0, m - 1), min_size=1, max_size=3))
    group_of = {e: cls for cls in classes for e in cls}
    e = sorted(mon)[0]
    deputy = max(group_of[e])
    if deputy not in mon:
        swapped = (mon - {e}) | {deputy}
        assert gain(g, swapped) == gain(g, mon)
    partner = sorted(group_of[e] & mon)
    if len(partner) >= 2:
        assert gain(g, mon - {partner[0]}) == gain(g, mon)


def test_preprocess_edgeless():
    g = Graph.build(3, [])
    reduced, rmap = preprocess(g)
    assert len(reduced.edges) == 0
    assert reduced.vertex_count <= 1
    assert rmap.stripped_bridges == frozenset()


def test_preprocess_empty_graph():
    reduced, rmap = preprocess(Graph.build(0, []))
    assert reduced.vertex_count == 0 and len(reduced.edges) == 0


@given(multigraphs(max_n=6, max_m=10))
def test_preprocess_output_is_3ec(g):
    reduced, rmap = preprocess(g)
    assert is_c_edge_connected(reduced, 3)
    assert set(bridge_ids(g)) == rmap.stripped_bridges


@pytest.mark.differential
@settings(max_examples=40)
@given(multigraphs(max_n=6, max_m=10), st.integers(1, 3))
def test_preprocess_preserves_optimum(g, k):
    reduced, rmap = preprocess(g)
    zb = sum(g.weights_micros[e] for e in rmap.stripped_bridges)
    assert exact(reduced, k).gain.micros == exact_reference(g, k) - zb


def test_preprocess_computes_cut_labels_once(monkeypatch):
    # one labelled forest gives the bridges, the groups and the vertex map
    calls = record_graph_calls(monkeypatch, "_label_forest", "cut_labels", "search_forest")
    g = gen_fig1()[0]
    preprocess(g)
    assert calls == {"_label_forest": [g], "cut_labels": [], "search_forest": [g]}


def _assert_same_reduction(g):
    reduced, rmap = preprocess(g)
    ref_reduced, ref_map = preprocess_by_stages(g)
    assert reduced == ref_reduced
    assert rmap.vertex_map == ref_map.vertex_map
    assert rmap.group_of == ref_map.group_of
    assert rmap.deputy_of_group == ref_map.deputy_of_group
    assert rmap.orig_edge_of_reduced == ref_map.orig_edge_of_reduced
    assert rmap.stripped_bridges == ref_map.stripped_bridges


@pytest.mark.differential
@settings(max_examples=400)
@given(multigraphs(max_n=10, max_m=14, min_w=0))
def test_preprocess_matches_stages(g):
    # loops, parallels, zero weights, isolated vertices, several components
    _assert_same_reduction(g)


@pytest.mark.differential
@settings(max_examples=400)
@given(multigraphs(max_n=10, max_m=14, min_w=0))
def test_deputy_view_is_the_reduced_graph(g):
    # the deputies and their group weights are the reduced graph's edges,
    # in its edge order: the premise solve_pipeline runs on
    view = deputies(g)
    reduced, rmap = preprocess_by_stages(g)
    assert view.ids == list(rmap.orig_edge_of_reduced)
    assert view.weights == list(reduced.weights_micros)
    assert view.stripped == rmap.stripped_bridges
    assert {e: gi for gi, cls in enumerate(view.groups) for e in cls} == rmap.group_of


@pytest.mark.parametrize(
    "run, g",
    [
        (preprocess, gen_fig1()[0]),
        (lambda g: solve_pipeline(g, 2, "greedy1"), gen_fig1()[0]),
        (edge_groups, gen_ladder(8)),
        (contract_groups, gen_ladder(8)),
        (lambda g: is_c_edge_connected(g, 3), gen_ladder(8)),
    ],
    ids=["preprocess", "solve", "edge_groups", "contract_groups", "is_c_edge_connected"],
)
def test_preprocess_and_solve_read_one_deputy_view(monkeypatch, run, g):
    # every 2-cut reader labels and groups g once, through one deputy view
    calls = record_graph_calls(monkeypatch, "deputies", "_label_forest")
    run(g)
    assert calls == {"deputies": [g], "_label_forest": [g]}


@pytest.mark.differential
@pytest.mark.parametrize(
    "g",
    [
        Graph.build(0, []),
        Graph.build(5, [(0, 1), (1, 2), (1, 3), (3, 4)]),  # a tree: all bridges
        gen_cycle(5),
        TWO_TRIANGLES_JOINED,
    ],
    ids=["empty", "tree", "cycle", "two-triangles"],
)
def test_preprocess_matches_stages_pinned(g):
    _assert_same_reduction(g)


def test_preprocess_does_one_pass(monkeypatch):
    # one labelling, no flood fill, mask or bridge_ids pass, and a single
    # contraction per call
    calls = record_graph_calls(
        monkeypatch, "_label_forest", "search_forest", "component_labels", "make_mask", "bridge_ids",
        "contract",
    )
    g = Graph.build(7, [(0, 1), (1, 2), (2, 0), (2, 3), (4, 5), (5, 6), (6, 4), (4, 4)])
    for _ in range(2):
        preprocess(g)
    assert {name: len(graphs) for name, graphs in calls.items()} == {
        "_label_forest": 2,
        "search_forest": 2,
        "component_labels": 0,
        "make_mask": 0,
        "bridge_ids": 0,
        "contract": 2,
    }


def test_preprocess_joins_only_the_tree_deputies(monkeypatch):
    # K5 is 4-edge-connected, so each of its 10 edges is a deputy: the
    # forest cut at the 4 tree deputies leaves 5 one-vertex pieces, and the
    # 6 non-tree deputies join nothing the tree deputies do not already
    # join. One find per piece, two per tree deputy, one per reduced vertex
    finds = []
    real = reduce_mod._find_root
    monkeypatch.setattr(reduce_mod, "_find_root", lambda parent, x: finds.append(x) or real(parent, x))
    g = Graph.build(5, list(combinations(range(5), 2)))
    reduced, rmap = preprocess(g)
    assert reduced == preprocess_by_stages(g)[0]
    assert len(finds) == 5 + 2 * 4 + 5
