import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowmon.generators import gen_fig1, gen_ladder
from flowmon.graph import Graph, gain, is_c_edge_connected
from flowmon.kernel import check_kernel_bound, kernel_graph
from flowmon.reduce import preprocess
from flowmon.solvers import solve_pipeline

from conftest import multigraphs


def edge_set_is_forest(g: Graph, ids) -> bool:
    parent = list(range(g.vertex_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in ids:
        ru, rv = find(g.edges[e].u), find(g.edges[e].v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def test_worked_example_kernel_shape():
    g, monitors, _ = gen_fig1()
    kg = kernel_graph(g, monitors)
    assert kg.graph.vertex_count == 5
    assert len(kg.graph.edges) == 8
    loops = [e for e in kg.graph.edges if e.is_loop]
    assert len(loops) == 1
    assert kg.represents[loops[0].id] == 0  # the monitored edge inside the cycle
    # the contracted cycle component holds the four cycle vertices
    merged = [v for v in range(8) if kg.component_of[v] == kg.component_of[0]]
    assert merged == [0, 1, 3, 6]
    assert check_kernel_bound(kg, 4)
    assert len(kg.graph.edges) == 4 + kg.graph.vertex_count - 1  # tight


def test_kernel_all_edges_monitored():
    g = Graph.build(3, [(0, 1), (1, 2), (0, 2)])
    kg = kernel_graph(g, {0, 1, 2})
    assert kg.graph.vertex_count == 3  # every vertex its own component
    assert len(kg.graph.edges) == 3


def test_kernel_empty_monitor_set_on_bridgeless_graph():
    g = Graph.build(3, [(0, 1), (1, 2), (0, 2)])
    kg = kernel_graph(g, set())
    assert kg.graph.vertex_count == 1
    assert len(kg.graph.edges) == 0
    assert check_kernel_bound(kg, 0)  # 0 <= 0 + 1 - 1


@given(multigraphs(max_n=7, max_m=12), st.data())
def test_kernel_bound_and_structure(g, data):
    m = len(g.edges)
    ids = sorted(data.draw(st.sets(st.integers(0, m - 1), max_size=5))) if m else []
    mon = frozenset(ids)
    kg = kernel_graph(g, mon)
    assert check_kernel_bound(kg, len(mon))
    # weight preservation: the kernel carries exactly the determined weight
    assert kg.graph.total_weight() == gain(g, mon)
    # extras are the bridges of the kernel once monitor edges are set
    # aside (a parallel monitor can mask an extra's bridge-ness in the
    # full kernel), and they always form a forest
    from flowmon.graph import bridge_ids, make_mask

    extra = frozenset(bridge_ids(g, make_mask(g, mon)))
    kernel_extra_ids = {i for i, orig in enumerate(kg.represents) if orig in extra}
    kernel_monitor_ids = [i for i, orig in enumerate(kg.represents) if orig in mon]
    assert kernel_extra_ids == set(
        bridge_ids(kg.graph, make_mask(kg.graph, kernel_monitor_ids))
    )
    assert edge_set_is_forest(kg.graph, sorted(kernel_extra_ids))


@pytest.mark.differential
@settings(max_examples=200)
@given(
    multigraphs(max_n=8, max_m=14, min_w=0, max_w=4),
    st.integers(1, 6),
    st.sampled_from(["greedy1", "greedy2", "greedy:3", "exact"]),
)
def test_kernel_of_every_answer_keeps_what_the_labels_determined(g, k, algo):
    # two evaluators of one question: solve_pipeline reads the cut labels
    # (cutspace), kernel_graph one bridge walk of G - M (graph._known);
    # the kernel's edges are the answer's monitors, extras and stripped
    # bridges, and the kernel lemma bounds every answer's kernel
    sol = solve_pipeline(g, k, algo)
    kg = kernel_graph(g, sol.monitors)
    assert kg.represents == tuple(sorted(sol.monitors | sol.determined_extras | sol.zero_flow))
    assert check_kernel_bound(kg, len(sol.monitors))


@settings(max_examples=30)
@given(multigraphs(max_n=6, max_m=10), st.data())
def test_kernel_of_3ec_graph_is_3ec(g, data):
    reduced, _ = preprocess(g)
    m = len(reduced.edges)
    ids = sorted(data.draw(st.sets(st.integers(0, m - 1), max_size=4))) if m else []
    kg = kernel_graph(reduced, frozenset(ids))
    if len(kg.graph.edges) <= 12:
        assert is_c_edge_connected(kg.graph, 3)


def test_kernel_of_prism_with_one_monitor():
    g = gen_ladder(8)
    kg = kernel_graph(g, {0})
    assert kg.graph.vertex_count == 1
    assert len(kg.graph.edges) == 1
    assert kg.graph.edges[0].is_loop
