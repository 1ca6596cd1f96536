import hashlib
import time
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowmon.errors import ValidationError
from flowmon.generators import (
    gen_circulant,
    gen_cycle,
    gen_fig1,
    gen_greedy1_tight,
    gen_greedy2_tight,
    gen_ladder,
    gen_random,
    random_connected_multigraph,
)
from flowmon.graph import bridge_ids, component_labels, gain, is_c_edge_connected
from flowmon.textio import format_graph, parse_graph
from flowmon.weights import Weight

from oracles import (
    gen_random_simple_by_option_lists,
    random_connected_multigraph_by_list,
    simple_pairs_by_list,
)


def test_greedy1_tight_shape():
    g = gen_greedy1_tight(5)
    assert g.vertex_count == 10
    assert len(g.edges) == (5 + 2) + (3 * 5 - 3)
    parallels = [e for e in g.edges if {e.u, e.v} == {0, 1}]
    assert len(parallels) == 7
    assert all(e.weight == Weight.parse("1.01") for e in parallels)
    cubic = [e for e in g.edges if e.id >= 7]
    assert len(cubic) == 12
    assert all(e.weight == Weight.from_units(1) for e in cubic)


def test_greedy1_tight_cubic_part_is_3ec():
    g = gen_greedy1_tight(5)
    # the cubic component alone: vertices 2..9, reindexed
    sub = [(e.u - 2, e.v - 2) for e in g.edges if e.id >= 7]
    from flowmon.graph import Graph

    assert is_c_edge_connected(Graph.build(8, sub), 3)


@pytest.mark.parametrize("k", [4, 6, 9])
def test_tight_edge_counts(k):
    assert len(gen_greedy1_tight(k).edges) == (k + 2) + (3 * k - 3)


def test_greedy2_tight_weights():
    g = gen_greedy2_tight(8)
    parallels = [e for e in g.edges if e.id < 10]
    assert len(parallels) == 10
    assert all(e.weight == Weight.parse("1.51") for e in parallels)
    assert g.vertex_count == 2 + 14


@pytest.mark.parametrize("gen, smallest", [(gen_greedy1_tight, "1.000001"), (gen_greedy2_tight, "1.500001")])
def test_tight_families_refuse_a_non_positive_epsilon(gen, smallest):
    # with epsilon 0 a parallel edge weighs no more than the trap needs
    # it to outweigh, so the family would set no trap
    with pytest.raises(ValidationError, match="^epsilon must be positive$"):
        gen(4, Weight(0))
    assert gen(4, Weight(1)).edges[0].weight == Weight.parse(smallest)


def test_tight_needs_k_at_least_four():
    with pytest.raises(ValidationError):
        gen_greedy1_tight(3)
    with pytest.raises(ValidationError):
        gen_greedy2_tight(3)


def test_fig1_instance_basics():
    g, monitors, readings = gen_fig1()
    assert g.vertex_count == 8 and len(g.edges) == 12
    assert max(component_labels(g)) == 0
    assert monitors == frozenset(readings) == {0, 1, 2, 3}
    assert gain(g, monitors) == Weight.from_units(8)
    assert bridge_ids(g) == []


def test_cycle_and_ladder():
    assert len(gen_cycle(7).edges) == 7
    assert gen_cycle(1).edges[0].is_loop
    g = gen_ladder(8)
    assert g.vertex_count == 8 and len(g.edges) == 12
    assert is_c_edge_connected(g, 3)
    with pytest.raises(ValidationError):
        gen_ladder(7)
    with pytest.raises(ValidationError):
        gen_ladder(4)


def test_circulant_instances_are_3ec():
    for n in (6, 8, 10):
        g = gen_circulant(n)
        assert g.vertex_count == n and len(g.edges) == 2 * n
        assert is_c_edge_connected(g, 3)


def test_gen_random_deterministic():
    a = gen_random(6, 9, seed=13, weight_lo=1, weight_hi=5)
    b = gen_random(6, 9, seed=13, weight_lo=1, weight_hi=5)
    assert a == b
    c = gen_random(6, 9, seed=14, weight_lo=1, weight_hi=5)
    assert a != c


def test_gen_random_trivial_and_errors():
    g = gen_random(1, 0, seed=0)
    assert g.vertex_count == 1 and len(g.edges) == 0
    with pytest.raises(ValidationError):
        gen_random(0, 3, seed=0)
    with pytest.raises(ValidationError):
        gen_random(3, 4, seed=0, simple=True)  # C(3,2) = 3 < 4


@pytest.mark.parametrize("build, message", [
    (lambda: gen_random(-1, 0), "n and m must be non-negative"),
    (lambda: gen_random(3, 1, simple=True, min_degree=3), "min_degree out of reach for a simple graph"),
    (lambda: random_connected_multigraph(0, 0, 0), "n must be positive"),
    (lambda: random_connected_multigraph(4, 2, 0), "connectivity needs at least n-1 edges"),
], ids=["gen-random-negative-n", "gen-random-min-degree", "connected-no-vertex", "connected-too-few-edges"])
def test_generators_refuse_bad_sizes(build, message):
    with pytest.raises(ValidationError, match=message):
        build()


def test_gen_random_refuses_a_negative_min_degree():
    with pytest.raises(ValidationError, match="min_degree must be non-negative"):
        gen_random(5, 4, seed=0, min_degree=-3)


def test_gen_random_min_degree_repair():
    g = gen_random(8, 4, seed=3, min_degree=2)
    degree = [0] * 8
    for e in g.edges:
        degree[e.u] += 1 + (e.u == e.v)
        degree[e.v] += e.u != e.v
    assert min(degree) >= 2


def test_gen_random_simple_flag():
    g = gen_random(7, 10, seed=21, simple=True)
    seen = set()
    for e in g.edges:
        assert e.u != e.v
        key = (min(e.u, e.v), max(e.u, e.v))
        assert key not in seen
        seen.add(key)


def test_gen_random_simple_draws_the_listed_pairs():
    # random.sample draws the same indices from range(C(n, 2)) as from the
    # list of all pairs, so unranking them keeps every seed's graph
    for seed in range(40):
        for n, m in ((2, 1), (5, 10), (9, 4), (30, 60), (200, 150)):
            g = gen_random(n, m, seed, simple=True, weight_lo=1, weight_hi=3)
            assert [(e.u, e.v) for e in g.edges] == simple_pairs_by_list(n, m, seed)


def test_gen_random_simple_never_lists_the_pairs():
    start = time.perf_counter()
    g = gen_random(200_000, 10, seed=5, simple=True)
    assert time.perf_counter() - start < 5
    assert len({(e.u, e.v) for e in g.edges}) == 10
    assert all(e.u < e.v for e in g.edges)


@pytest.mark.differential
@given(st.integers(2, 30).flatmap(lambda n: st.tuples(
    st.just(n),
    st.integers(0, min(comb(n, 2), 40)),
    st.integers(1, n - 1),
    st.integers(0, 2**32),
)))
def test_gen_random_simple_repair_matches_the_option_lists(params):
    n, m, min_degree, seed = params
    g = gen_random(n, m, seed, min_degree=min_degree, simple=True, weight_lo=1, weight_hi=3)
    assert g == gen_random_simple_by_option_lists(n, m, seed, min_degree, 1, 3)


def test_gen_random_min_degree_grid_is_pinned():
    # the digest was taken before the simple repair kept neighbour lists,
    # so every seed still gives the graph it gave then
    digest = hashlib.sha256()
    for seed in range(6):
        for n in (2, 3, 4, 6, 9, 15, 40):
            for m in sorted({0, 1, n // 2, n}):
                for min_degree in range(1, min(4, n - 1) + 1):
                    for simple in (True, False):
                        if simple and m > comb(n, 2):
                            continue
                        g = gen_random(n, m, seed, min_degree=min_degree, simple=simple,
                                       weight_lo=1, weight_hi=4)
                        digest.update(format_graph(g).encode())
    assert digest.hexdigest() == (
        "f0eae41576c55e1b1768716a1c959d88b37c2da2b1fe398a0a66d8f3a3a2dcb9"
    )


def test_gen_random_simple_repair_never_lists_the_vertices():
    # ~138,000 repair edges; listing all n vertices for each would take hours
    start = time.perf_counter()
    g = gen_random(200_000, 10, seed=5, min_degree=1, simple=True)
    assert time.perf_counter() - start < 20
    degree = [0] * 200_000
    pairs = set()
    for e in g.edges:
        assert e.u != e.v
        pairs.add((min(e.u, e.v), max(e.u, e.v)))
        degree[e.u] += 1
        degree[e.v] += 1
    assert len(pairs) == len(g.edges) and min(degree) >= 1


def test_random_connected_multigraph_is_connected():
    for seed in range(10):
        g = random_connected_multigraph(6, 11, seed)
        assert max(component_labels(g)) == 0


@pytest.mark.parametrize(
    "g",
    [
        gen_greedy1_tight(5),
        gen_greedy2_tight(6),
        gen_fig1()[0],
        gen_cycle(9),
        gen_ladder(10),
        gen_random(8, 12, seed=2, weight_lo=1, weight_hi=5),
    ],
    ids=["g1tight", "g2tight", "fig1", "cycle", "ladder", "random"],
)
def test_outputs_round_trip_bit_exactly(g):
    text = format_graph(g)
    assert parse_graph(text) == g
    assert format_graph(parse_graph(text)) == text


@given(st.integers(0, 500))
def test_any_random_instance_round_trips(seed):
    g = gen_random(1 + seed % 8, seed % 13, seed=seed, weight_lo=1, weight_hi=5)
    assert parse_graph(format_graph(g)) == g


def test_random_connected_simple_mode():
    for seed in range(20):
        g = random_connected_multigraph(7, 12, seed, simple=True)
        pairs = {(min(e.u, e.v), max(e.u, e.v)) for e in g.edges if e.u != e.v}
        assert len(pairs) == len(g.edges) == 12
        assert max(component_labels(g)) == 0
    assert len(random_connected_multigraph(5, 10, 3, simple=True).edges) == 10
    with pytest.raises(ValidationError, match="at most 10 edges"):
        random_connected_multigraph(5, 11, 3, simple=True)


@pytest.mark.differential
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.just(n),
    st.integers(n - 1, comb(n, 2)),
    st.integers(0, 2**32),
    st.booleans(),
)))
def test_random_connected_multigraph_matches_the_listed_pairs(params):
    n, m, seed, simple = params
    assert random_connected_multigraph(n, m, seed, simple) == random_connected_multigraph_by_list(n, m, seed, simple)


def test_random_connected_multigraph_grid_is_pinned():
    # the digest was taken when simple mode listed the pairs and every
    # edge weight was drawn, so every seed still gives the graph it gave then
    digest = hashlib.sha256()
    for seed in range(6):
        for n in (1, 2, 3, 4, 6, 9, 15, 40):
            for m in sorted({n - 1, n, n + 3, 2 * n, comb(n, 2)}):
                for simple in (True, False):
                    if m < n - 1 or (simple and m > comb(n, 2)):
                        continue
                    digest.update(format_graph(random_connected_multigraph(n, m, seed, simple)).encode())
    assert digest.hexdigest() == (
        "0227c54fb448f87ede5dd307789379b65bd376dd6f6bfd7f7f60e284d944076d"
    )


def test_random_connected_simple_never_lists_the_pairs():
    # C(200000, 2) is about 2 * 10^10 pairs
    start = time.perf_counter()
    g = random_connected_multigraph(200_000, 200_010, seed=5, simple=True)
    assert time.perf_counter() - start < 10
    assert len({(e.u, e.v) for e in g.edges}) == 200_010
    assert all(e.u < e.v for e in g.edges)
    assert max(component_labels(g)) == 0
