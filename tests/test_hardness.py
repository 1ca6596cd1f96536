from itertools import combinations
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowmon import hardness
from flowmon.errors import SizeGuardError, ValidationError
from flowmon.generators import random_connected_multigraph
from flowmon.graph import Graph, bridge_ids, make_mask
from flowmon.hardness import (
    CliqueInstance,
    DecInstance,
    ReductionInfeasible,
    canonical_connected_graphs,
    clique_witness,
    decide_flow_monitors,
    forward_witness,
    has_clique,
    lemma1_check,
    partitions,
    reduce_clique,
    verify_star_canonical,
    verify_star_random,
)

from conftest import multigraphs
from flowmon.solvers import EXACT_DEFAULT_BUDGET, exact
from oracles import decide_by_traversal, span_search_by_rows

K4 = Graph.build(4, list(combinations(range(4), 2)))
K5 = Graph.build(5, list(combinations(range(5), 2)))
C5 = Graph.build(5, [(i, (i + 1) % 5) for i in range(5)])
TRIANGLE = Graph.build(3, [(0, 1), (1, 2), (0, 2)])


def test_reduce_clique_parameters():
    dec = reduce_clique(CliqueInstance(K4, 3))
    assert (dec.k, dec.l) == (2, 1)
    dec = reduce_clique(CliqueInstance(K5, 4))
    assert (dec.k, dec.l) == (3, 1)


def test_reduce_clique_rejects_degenerate_budget():
    # K4 plus a pendant path of two edges: q=4 gives k = 8 - 6 - 2 = 0
    g = Graph.build(6, list(combinations(range(4), 2)) + [(3, 4), (4, 5)])
    with pytest.raises(ReductionInfeasible):
        reduce_clique(CliqueInstance(g, 4))


def test_clique_instance_validation():
    with pytest.raises(ValidationError):
        CliqueInstance(K4, 2)  # q below 3
    with pytest.raises(ValidationError):
        CliqueInstance(Graph.build(2, [(0, 1), (0, 1)]), 3)  # not simple
    with pytest.raises(ValidationError):
        CliqueInstance(Graph.build(4, [(0, 1)]), 3)  # disconnected


@pytest.mark.parametrize("run, error, message", [
    (lambda: lemma1_check(2, 3), ValidationError, "need 1 <= s <= n"),
    (lambda: next(canonical_connected_graphs(0)), ValidationError, "n must be positive"),
    (lambda: next(canonical_connected_graphs(8)), SizeGuardError, "canonical enumeration supports n <= 7"),
], ids=["lemma1-s-above-n", "canonical-n0", "canonical-n8"])
def test_verifiers_refuse_out_of_range_sizes(run, error, message):
    with pytest.raises(error, match=message):
        run()


def test_decide_examples():
    assert decide_flow_monitors(DecInstance(K4, 2, 1))
    assert decide_flow_monitors(DecInstance(TRIANGLE, 1, 2))
    multi = Graph.build(2, [(0, 1), (0, 1), (0, 1)])
    assert not decide_flow_monitors(DecInstance(multi, 1, 1))


@pytest.mark.differential
@settings(max_examples=150)
@given(multigraphs(max_n=6, max_m=11))
def test_decide_matches_traversal(g):
    # loops and parallel edges included; every tractable k and every l
    m = len(g.edges)
    for k in range(m + 1):
        if comb(m, k) > 5_000:
            continue
        for l in range(m + 1):
            inst = DecInstance(g, k, l)
            assert decide_flow_monitors(inst) == decide_by_traversal(inst), (k, l)
    assert not decide_flow_monitors(DecInstance(g, m + 1, 0))


@pytest.mark.differential
@settings(max_examples=150)
@given(multigraphs(max_n=7, max_m=12))
def test_decide_at_k_two_matches_the_row_reads(g):
    # every l, so the search stops at every value from 3 to m + 2
    for l in range(len(g.edges) + 1):
        inst = DecInstance(g, 2, l)
        got = decide_flow_monitors(inst)
        with mock.patch.object(hardness, "span_search", span_search_by_rows):
            assert decide_flow_monitors(inst) == got


def test_decide_size_guard():
    big = Graph.build(10, [(i, j) for i in range(10) for j in range(i + 1, 10)])
    with pytest.raises(SizeGuardError):
        decide_flow_monitors(DecInstance(big, 20, 1))  # C(45,20) > EXACT_DEFAULT_BUDGET


def test_decide_and_exact_share_one_size_guard():
    # K10's 45 edges: C(45, k) passes for k <= 5 and k >= 40 only; with
    # l = 0 decide answers right after its guard, and exact refuses
    # before it enumerates, so only refused k run exact
    big = Graph.build(10, list(combinations(range(10), 2)))
    for k in range(46):
        refused = comb(45, k) > EXACT_DEFAULT_BUDGET
        if not refused:
            assert decide_flow_monitors(DecInstance(big, k, 0))
            continue
        with pytest.raises(SizeGuardError) as dec:
            decide_flow_monitors(DecInstance(big, k, 0))
        with pytest.raises(SizeGuardError) as ex:
            exact(big, k)
        assert str(dec.value) == str(ex.value) == (
            f"exhaustive search needs C(45,{k}) = {comb(45, k)} evaluations;"
            f" the guard allows {EXACT_DEFAULT_BUDGET}"
        )


def test_has_clique_examples():
    assert has_clique(K4, 4)
    assert not has_clique(C5, 3)
    assert has_clique(K5, 5) and not has_clique(C5, 4)
    # q <= 1 and q > n
    assert has_clique(C5, 0) and has_clique(C5, 1) and has_clique(C5, 2)
    assert has_clique(Graph.build(0, []), 0)
    assert not has_clique(Graph.build(0, []), 1)
    assert not has_clique(K4, 5)


def test_clique_witness_size_guard():
    # K40 has a 20-clique at the first subset, but the guard looks at the
    # C(40, 20) subsets a graph without one would need
    k40 = Graph.build(40, list(combinations(range(40), 2)))
    with pytest.raises(SizeGuardError):
        clique_witness(k40, 20)


def _has_clique_second_enumeration(g: Graph, q: int) -> bool:
    # independent order: grow candidate sets vertex by vertex
    adj = {v: set() for v in range(g.vertex_count)}
    for e in g.edges:
        adj[e.u].add(e.v)
        adj[e.v].add(e.u)

    def grow(candidates, start):
        if len(candidates) == q:
            return True
        for v in range(start, g.vertex_count):
            if all(v in adj[u] for u in candidates):
                if grow(candidates + [v], v + 1):
                    return True
        return False

    return grow([], 0)


@settings(max_examples=40)
@given(st.integers(0, 10**6), st.integers(3, 8))
def test_has_clique_cross_check(seed, n):
    import random as _r

    rng = _r.Random(seed)
    m = rng.randint(n - 1, min(n * (n - 1) // 2, 2 * n))
    g = random_connected_multigraph(n, m, seed, simple=True)
    for q in range(3, n + 1):
        assert has_clique(g, q) == _has_clique_second_enumeration(g, q)


def test_lemma1_examples():
    assert lemma1_check(5, 2)  # (4,1) beats (3,2)
    assert lemma1_check(5, 5)  # only (1,1,1,1,1): vacuous uniqueness
    assert lemma1_check(7, 1)


@pytest.mark.parametrize("extra", [(1, 4), (5, 0)])
def test_lemma1_check_fails_on_a_partition_that_ties_or_beats(monkeypatch, extra):
    # (4, 1) is worth C(4, 2) = 6: (1, 4) ties it, (5, 0) beats it
    assert lemma1_check(5, 2)
    real = hardness.partitions
    monkeypatch.setattr(hardness, "partitions", lambda n, s: [*real(n, s), extra])
    assert not lemma1_check(5, 2)


def test_partitions_are_the_sorted_compositions():
    for n in range(1, 13):
        for s in range(1, n + 1):
            shapes = list(partitions(n, s))
            assert len(shapes) == len(set(shapes))
            sorted_compositions = set()
            for cuts in combinations(range(1, n), s - 1):
                bounds = (0, *cuts, n)
                parts = (bounds[i + 1] - bounds[i] for i in range(s))
                sorted_compositions.add(tuple(sorted(parts, reverse=True)))
            assert set(shapes) == sorted_compositions


def test_lemma1_exhaustive_small():
    for n in range(1, 9):
        for s in range(1, n + 1):
            assert lemma1_check(n, s)


def test_canonical_enumeration_matches_known_counts():
    # connected simple graphs up to isomorphism: 1, 1, 2, 6, 21, 112
    counts = [sum(1 for _ in canonical_connected_graphs(n)) for n in range(1, 7)]
    assert counts == [1, 1, 2, 6, 21, 112]


def test_star_equivalence_small_canonical():
    # on 3 vertices the one clique size q = 3 leaves l = 0: nothing to check
    assert verify_star_canonical(3) == []
    reports = verify_star_canonical(5)
    assert [r.label for r in reports] == ["canonical n=4", "canonical n=5"]
    assert all(r.checks > 0 and r.mismatches == 0 for r in reports)


def test_star_equivalence_random_sample():
    report = verify_star_random(30, seed=5)
    assert report.mismatches == 0
    assert report.checks > 0


@settings(max_examples=30)
@given(st.integers(0, 10**6))
def test_forward_witness_realizes_the_bound(seed):
    import random as _r

    rng = _r.Random(seed)
    n = rng.randint(4, 7)
    m = rng.randint(n + 2, min(n * (n - 1) // 2, 2 * n))
    g = random_connected_multigraph(n, m, seed, simple=True)
    for q in range(3, n + 1):
        try:
            dec = reduce_clique(CliqueInstance(g, q))
        except ReductionInfeasible:
            continue
        witness = clique_witness(g, q)
        if witness is None:
            continue
        mon = forward_witness(g, q, witness)
        assert len(mon) == dec.k
        exposed = bridge_ids(g, make_mask(g, mon))
        assert len(exposed) >= dec.l
