import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowmon import flowsim as flowsim_mod
from flowmon import graph as graph_mod
from flowmon.errors import ValidationError
from flowmon.flowsim import (
    InferenceResult,
    conservation_violations,
    infer,
    measure,
    random_circulation,
)
from flowmon.generators import gen_cycle, gen_fig1, gen_random, random_connected_multigraph
from flowmon.graph import Graph, gain, make_mask, bridge_ids, component_labels
from flowmon.solvers import full_determination

from conftest import multigraphs
from oracles import infer_by_traversal, random_circulation_by_forest_pass

TRIANGLE = Graph.build(3, [(0, 1), (1, 2), (0, 2)])


def test_random_circulation_refuses_a_zero_flow_range():
    with pytest.raises(ValidationError, match="flow_range must be positive"):
        random_circulation(TRIANGLE, seed=0, flow_range=0)


def test_random_circulation_tree_is_zero():
    g = Graph.build(4, [(0, 1), (1, 2), (2, 3)])
    flow = random_circulation(g, seed=1)
    assert flow == (0, 0, 0)


def test_random_circulation_cycle_constant():
    g = gen_cycle(5)
    flow = random_circulation(g, seed=3)
    values = set(abs(f) for f in flow)
    assert len(values) == 1  # one value circulates; signs follow storage order


@given(multigraphs(max_n=7, max_m=12), st.integers(0, 2**32))
def test_random_circulation_conserves(g, seed):
    flow = random_circulation(g, seed)
    assert conservation_violations(g, flow) == []


@pytest.mark.parametrize("flow", [(), (1, 1), (1, 1, 1, 1)], ids=["empty", "short", "long"])
def test_conservation_violations_refuses_a_flow_of_the_wrong_length(flow):
    # zip over the columns would stop at the shorter side and read the
    # missing edges as zero flow: () would pass as conserved
    with pytest.raises(ValidationError, match="values for 3 edges"):
        conservation_violations(TRIANGLE, flow)


def test_random_circulation_flows_are_pinned():
    # 400 seeded graphs: gen_random ones with loops, parallel edges and
    # several components, and connected ones with the same extras; the
    # digest covers every flow, so a change in the draws or in how the
    # forest edges are solved shows here
    digest = hashlib.sha256()
    loops = parallels = split = 0
    for seed in range(200):
        n = 1 + seed % 17
        for i, g in enumerate((
            gen_random(n, seed % 23, seed),
            random_connected_multigraph(n, n - 1 + seed % 9, seed),
        )):
            flow = random_circulation(g, 2 * seed + i, 1 + (2 * seed + i) % 50)
            digest.update(repr(flow).encode() + b"\n")
            pairs = [tuple(sorted((e.u, e.v))) for e in g.edges if not e.is_loop]
            loops += any(e.is_loop for e in g.edges)
            parallels += len(pairs) != len(set(pairs))
            split += max(component_labels(g), default=0) > 0
    assert (loops, parallels, split) == (212, 219, 124)
    assert digest.hexdigest() == (
        "ca1a275165fdbec68ba20e1794aba3dce9359120f13a8e404cc75d853aee8b93"
    )


@pytest.mark.differential
@settings(max_examples=200)
@given(multigraphs(max_n=9, max_m=14), st.integers(0, 2**32), st.integers(1, 100))
@example(Graph.build(0, []), 0, 1)
@example(Graph.build(4, []), 1, 1)
# a loop, parallel edges both ways, two components and an isolated vertex
@example(Graph.build(6, [(0, 0), (0, 1), (1, 0), (1, 2), (2, 0), (3, 4), (4, 3), (4, 4)]), 7, 1)
def test_random_circulation_matches_the_forest_pass(g, seed, flow_range):
    # infer forces, from the drawn edges, the flows the reference's
    # leaf-inward pass over the spanning forest solves for
    want = random_circulation_by_forest_pass(g, seed, flow_range)
    assert random_circulation(g, seed, flow_range) == want


def test_random_circulation_deterministic():
    g, _, _ = gen_fig1()
    assert random_circulation(g, 42) == random_circulation(g, 42)


def test_measure_restriction():
    g = gen_cycle(3)
    flow = random_circulation(g, 5)
    assert measure(flow, set()) == {}
    assert measure(flow, {0, 1, 2}) == {e: flow[e] for e in range(3)}
    assert measure(flow, {1}) == {1: flow[1]}


def test_infer_worked_example_values():
    g, monitors, readings = gen_fig1()
    res = infer(g, monitors, readings)
    assert res.consistent
    assert res.determined == {0: 1, 1: 4, 2: 2, 3: 7, 4: 2, 5: 2, 6: 3, 7: 5}
    assert res.undetermined == {8, 9, 10, 11}


def test_infer_triangle_single_monitor():
    res = infer(TRIANGLE, {0}, {0: 5})
    assert res.determined == {0: 5, 1: 5, 2: -5}
    assert res.undetermined == frozenset()
    assert res.consistent


def test_infer_detects_inconsistency():
    res = infer(TRIANGLE, {0, 1}, {0: 5, 1: 5})
    assert res.consistent
    bad = infer(TRIANGLE, {0, 1}, {0: 5, 1: 6})
    assert not bad.consistent
    assert bad.violations  # the offending components are reported
    assert (1,) in bad.violations
    # bridge 2 = (0, 2) hangs vertex 2 below the root 0, so its tail 0 is
    # on the parent side; that tree's inflow totals 1, not 0, and the
    # flow is still the inflow into the tail's side {0}: -5
    assert bad.determined == {0: 5, 1: 6, 2: -5}
    assert bad.violations == ((1,), (2,))
    assert bad == infer_by_traversal(TRIANGLE, {0, 1}, {0: 5, 1: 6})


def test_infer_monitor_across_components_uses_whole_cut():
    # triangle + pendant vertex + a monitored edge to a far triangle:
    # the pendant edge's flow equals minus the monitored outflow
    g = Graph.build(
        7,
        [
            (0, 1), (1, 2), (0, 2),   # near triangle
            (2, 3),                    # bridge to the pendant vertex
            (0, 4),                    # monitored, leaves the near side
            (3, 4),                    # monitored, enters the far side
            (4, 5), (5, 6), (4, 6),   # far triangle
        ],
    )
    res = infer(g, {4, 5}, {4: 5, 5: -5})
    assert res.determined[3] == -5
    assert res.consistent


def test_infer_loop_outside_monitors_undetermined():
    g = Graph.build(2, [(0, 1), (0, 1), (1, 1)])
    res = infer(g, {0}, {0: 2})
    assert 2 in res.undetermined


def test_infer_input_validation():
    with pytest.raises(ValidationError):
        infer(TRIANGLE, {0}, {0: 1, 1: 2})  # reading for a non-monitor
    with pytest.raises(ValidationError):
        infer(TRIANGLE, {0, 1}, {0: 1})  # missing reading


@settings(max_examples=80)
@given(multigraphs(max_n=7, max_m=12), st.integers(0, 10**6), st.data())
def test_infer_round_trips_ground_truth(g, seed, data):
    m = len(g.edges)
    flow = random_circulation(g, seed)
    ids = sorted(data.draw(st.sets(st.integers(0, m - 1), max_size=m))) if m else []
    mon = frozenset(ids)
    res = infer(g, mon, measure(flow, mon))
    expected_keys = mon | frozenset(bridge_ids(g, make_mask(g, mon)))
    assert set(res.determined) == expected_keys
    for e, value in res.determined.items():
        assert value == flow[e]
    assert res.undetermined == frozenset(range(m)) - expected_keys
    assert res.consistent
    # the definitional link: determined count equals unit-weight gain
    unit = Graph.build(g.vertex_count, [(e.u, e.v) for e in g.edges])
    assert len(res.determined) * 10**6 == gain(unit, mon).micros


@given(multigraphs(max_n=7, max_m=12), st.integers(0, 10**6))
def test_full_determination_monitors_determine_all(g, seed):
    mon = full_determination(g)
    flow = random_circulation(g, seed)
    res = infer(g, mon, measure(flow, mon))
    assert res.undetermined == frozenset()
    assert res.consistent
    assert all(res.determined[e] == flow[e] for e in range(len(g.edges)))


def test_perturbed_reading_breaks_consistency():
    # with every edge monitored the audit reduces to per-vertex
    # conservation, so bumping any non-loop reading must be caught
    g, _, _ = gen_fig1()
    flow = random_circulation(g, seed=9)
    readings = measure(flow, range(12))
    assert infer(g, frozenset(range(12)), readings).consistent
    bumped = dict(readings)
    bumped[4] += 1
    res = infer(g, frozenset(range(12)), bumped)
    assert not res.consistent
    assert res.violations


@pytest.mark.differential
@settings(max_examples=200)
@given(multigraphs(max_n=8, max_m=14), st.data())
def test_infer_matches_traversal_oracle(g, data):
    # readings drawn freely, not from a circulation, so most trees of the
    # forest have a non-zero inflow total
    m = len(g.edges)
    mon = data.draw(st.frozensets(st.integers(0, m - 1), max_size=m)) if m else frozenset()
    readings = {e: data.draw(st.integers(-9, 9)) for e in sorted(mon)}
    got = infer(g, mon, readings)
    want = infer_by_traversal(g, mon, readings)
    assert got.determined == want.determined
    assert list(got.determined) == list(want.determined)
    assert got.undetermined == want.undetermined
    assert got.consistent == want.consistent
    assert got.violations == want.violations


def test_infer_grows_one_forest(monkeypatch):
    # every forced flow, and the audit, is read off the one forest that
    # finds the bridges: no separate piece pass
    calls = dict.fromkeys(("search_forest", "_forest_pieces"), 0)
    for name in calls:
        def counting(*args, _name=name, _f=getattr(graph_mod, name), **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)

        for mod in (graph_mod, flowsim_mod):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counting)
    g, monitors, readings = gen_fig1()
    res = infer(g, monitors, readings)
    assert calls == {"search_forest": 1, "_forest_pieces": 0}
    assert res.determined == {0: 1, 1: 4, 2: 2, 3: 7, 4: 2, 5: 2, 6: 3, 7: 5}
    assert res.consistent
    calls.update(dict.fromkeys(calls, 0))
    assert not infer(TRIANGLE, {0, 1}, {0: 5, 1: 6}).consistent
    assert calls == {"search_forest": 1, "_forest_pieces": 0}


# Two trees of G - M and an isolated vertex 5. Tree 0-6-1-2 is piece {0}
# and, below bridge 0 = (0, 6), piece {1, 2, 6}, whose top 6 is not its
# lowest vertex; tree 3-4-8-7 is piece {3, 4, 8} and, below bridge
# 7 = (7, 8), whose stored tail is the child, piece {7}. Edge 8 is a
# monitored self-loop, edge 9 an unmonitored one, and monitors 10 and 11
# join the trees, so each tree's total is r10 - r11 or its negation.
TWO_TREES = Graph.build(9, [
    (0, 6), (6, 1), (1, 2), (2, 6),
    (3, 4), (4, 8), (8, 3), (7, 8),
    (2, 2), (4, 4), (0, 3), (7, 1),
])


@pytest.mark.parametrize("readings, want", [
    ({8: 6, 10: 4, 11: 3}, InferenceResult(
        {8: 6, 10: 4, 11: 3, 0: -4, 7: -3}, frozenset({1, 2, 3, 4, 5, 6, 9}), False,
        ((1, 2, 6), (3, 4, 8)))),
    ({8: 6, 10: 4, 11: 4}, InferenceResult(
        {8: 6, 10: 4, 11: 4, 0: -4, 7: -4}, frozenset({1, 2, 3, 4, 5, 6, 9}), True)),
], ids=["violating", "consistent"])
def test_infer_two_trees_pinned(readings, want):
    # a violating piece in each tree, reported by lowest vertex although
    # piece {1, 2, 6} is keyed by its top 6; loops and the isolated vertex
    # belong to no violation, and the unmonitored loop stays undetermined
    got = infer(TWO_TREES, {8, 10, 11}, readings)
    assert got == want
    assert list(got.determined) == list(want.determined)
    oracle = infer_by_traversal(TWO_TREES, {8, 10, 11}, readings)
    assert got == oracle
    assert list(got.determined) == list(oracle.determined)
