import random
from collections import Counter
from math import comb
from unittest import mock

import pytest
from hypothesis import example, given, settings, target
from hypothesis import strategies as st

from flowmon import cutspace, solvers
from flowmon.cutspace import class_table, cut_labels, take_class
from flowmon.errors import CandidateBudgetError, FlowmonError, SizeGuardError
from flowmon.generators import (
    gen_circulant,
    gen_cycle,
    gen_fig1,
    gen_greedy1_tight,
    gen_greedy2_tight,
    gen_ladder,
    random_connected_multigraph,
)
from flowmon.graph import Graph, make_mask, bridge_ids
from flowmon.solvers import (
    SolverConfig,
    exact,
    full_determination,
    sigma_greedy,
    solve_pipeline,
)
from flowmon.weights import Weight

from conftest import greedy, multigraphs, record_graph_calls
from oracles import (
    batches_by_lists,
    exact_by_traversal,
    exact_reference,
    greedy_reference,
    sigma_greedy_by_traversal,
    solve_pipeline_by_traversal,
    span_search_by_rows,
    span_search_exhaustive,
)

greedy1, greedy2 = greedy(1), greedy(2)

TRIANGLE = Graph.build(3, [(0, 1), (1, 2), (0, 2)])


def test_greedy_single_loop():
    g = Graph.build(1, [(0, 0, 7)])
    sol = greedy1(g, 1)
    assert sol.monitors == {0}
    assert sol.gain == Weight.from_units(7)


def test_greedy_triangle():
    sol = greedy1(TRIANGLE, 1)
    assert sol.gain == Weight.from_units(3)
    assert sol.monitors == {0}  # tie broken toward the lowest id
    assert sol.determined_extras == {1, 2}


def test_one_greedy_tight_family_value():
    sol = greedy1(gen_greedy1_tight(5), 5)
    assert sol.gain == Weight.parse("5.05")
    assert len(sol.monitors) == 5
    assert all(e < 7 for e in sol.monitors)  # stays inside the parallel bundle


def test_two_greedy_tight_family_values():
    for k in (4, 6, 8):
        sol = greedy2(gen_greedy2_tight(k), k)
        assert sol.gain == k * Weight.parse("1.51")


def test_two_greedy_never_trails_one_greedy_on_tight_families():
    for k in (4, 6):
        g2 = gen_greedy2_tight(k)
        assert greedy2(g2, k).gain >= greedy1(g2, k).gain
    for k in (4, 5, 6):
        # with light parallels the pair solver escapes into the cubic part
        # and collects the whole optimum
        g1 = gen_greedy1_tight(k)
        assert greedy1(g1, k).gain == k * Weight.parse("1.01")
        assert greedy2(g1, k).gain == Weight.from_units(3 * k - 3)


def test_two_greedy_on_cubic_graph_gains_three_per_pair():
    # two monitors at a degree-3 vertex always expose its third edge
    g = gen_ladder(8)  # unit 3-regular, 12 edges
    for k in (2, 3, 4, 6):
        sol = greedy2(g, k)
        assert sol.gain.micros >= 3 * (k // 2) * 10**6


def test_greedy_takes_everything_when_budget_covers():
    sol = greedy1(TRIANGLE, 3)
    assert sol.monitors == {0, 1, 2}
    assert sol.gain == TRIANGLE.total_weight()
    sol = greedy1(TRIANGLE, 99)
    assert sol.monitors == {0, 1, 2}


def test_greedy_halts_when_edges_run_out():
    # one step collects the whole triangle, the next finds nothing left
    sol = sigma_greedy(TRIANGLE, SolverConfig(k=2, sigma=1))
    assert len(sol.trace.steps) == 1
    assert sol.gain == Weight.from_units(3)


def test_greedy_final_partial_batch():
    g = gen_ladder(8)
    sol = sigma_greedy(g, SolverConfig(k=3, sigma=2))
    assert [len(s.monitors_placed) for s in sol.trace.steps] == [2, 1]


@pytest.mark.differential
@given(multigraphs(max_n=6, max_m=10), st.integers(1, 4), st.integers(1, 2))
def test_greedy_matches_reference_simulation(g, k, sigma):
    sol = sigma_greedy(g, SolverConfig(k=k, sigma=sigma))
    assert sol.gain.micros == greedy_reference(g, k, sigma)


@pytest.mark.differential
@settings(max_examples=200)
@given(multigraphs(), st.data())
def test_greedy_matches_traversal_solver(g, data):
    # monitors, extras, gain and every StepRecord field, ties included;
    # sigma reaches m - 1, the largest batch that still enumerates
    m = len(g.edges)
    sigma = data.draw(st.integers(1, max(1, m - 1)))
    k = data.draw(st.integers(1, max(5, m)))
    cfg = SolverConfig(k=k, sigma=sigma)
    assert sigma_greedy(g, cfg) == sigma_greedy_by_traversal(g, cfg)


def test_greedy_residuals_are_canonical():
    # reducing only the leading bit of each label leaves residuals that
    # differ within one coset; that split the third step's collection
    g = Graph.build(
        4, [(1, 3, 5), (2, 2, 4), (2, 0, 4), (1, 1, 4), (0, 3, 3), (1, 3, 4), (2, 3, 3), (0, 2, 4)]
    )
    steps = greedy1(g, 3).trace.steps
    assert [s.monitors_placed for s in steps] == [{0}, {4}, {2}]
    assert steps[2].collected == {2, 7}


def _cycle_batch(n, sigma):
    return sigma_greedy(gen_cycle(n), SolverConfig(k=sigma, sigma=sigma))


def test_greedy_batch_of_m_minus_1_on_a_long_cycle():
    # a batch of 1,099: a walk recursing once per pick would overflow
    sol = _cycle_batch(1100, 1099)
    assert sol.monitors == frozenset(range(1099))
    assert sol.determined_extras == {1099}
    assert sol.gain == gen_cycle(1100).total_weight()


def test_greedy_large_batch_stops_at_the_live_total():
    # every cycle edge has the same label, so the first edge spans all;
    # the walk must stop there rather than visit C(150, 147) candidates
    sol = _cycle_batch(150, 147)
    assert sol.monitors == frozenset(range(147))
    assert sol.determined_extras == {147, 148, 149}
    assert sol.gain == gen_cycle(150).total_weight()
    assert sol.trace.steps[0].candidates == 551_300


def test_greedy_deep_batch_of_independent_loops():
    # loops at one vertex have independent labels, so the walk holds 1,098
    # open prefixes before the last pick completes the first subset worth
    # the live total (the unpicked loop weighs 0)
    g = Graph.build(1, [(0, 0, 1)] * 1099 + [(0, 0, 0)])
    sol = sigma_greedy(g, SolverConfig(k=1099, sigma=1099))
    assert sol.monitors == frozenset(range(1099))
    assert sol.determined_extras == frozenset()
    assert sol.gain == Weight.from_units(1099)


@pytest.mark.differential
@settings(max_examples=150)
@given(multigraphs(max_n=7, max_m=13, min_w=0, max_w=2), st.integers(1, 5))
def test_solvers_match_with_the_exhaustive_search(g, k):
    # weights 0..2 tie many candidate sets, so the tie-break is exercised
    runs = [
        lambda: sigma_greedy(g, SolverConfig(k=k, sigma=2)),
        lambda: sigma_greedy(g, SolverConfig(k=k, sigma=3)),
        lambda: exact(g, k),
    ]
    bounded = [run() for run in runs]
    with mock.patch.object(solvers, "span_search", span_search_exhaustive):
        assert [run() for run in runs] == bounded


def test_exact_skips_most_pair_reads_and_folds(search_counts):
    # greedy1-tight(6) has 23 edges; the optimum sits in the prism, last
    # in combinations order, so the bounds prune against weaker subsets
    g = gen_greedy1_tight(6)
    bounded = exact(g, 6)
    with mock.patch.object(solvers, "span_search", span_search_exhaustive):
        assert exact(g, 6) == bounded
    assert 0 < search_counts["cutspace", "pair reads"] * 2 <= search_counts["oracles", "pair reads"]
    # a folded prefix whose bound cannot beat the best is never pushed
    assert 0 < search_counts["cutspace", "folds"] * 3 <= search_counts["oracles", "folds"] * 2


@given(multigraphs(max_n=6, max_m=10), st.integers(1, 4))
def test_one_greedy_is_sigma_one(g, k):
    assert greedy1(g, k).gain == sigma_greedy(g, SolverConfig(k=k, sigma=1)).gain


@given(multigraphs(max_n=6, max_m=10), st.integers(1, 3))
def test_greedy_gain_nondecreasing_in_k(g, k):
    assert greedy1(g, k + 1).gain >= greedy1(g, k).gain


@given(multigraphs(max_n=6, max_m=10), st.integers(1, 4))
def test_greedy_trace_invariants(g, k):
    sol = greedy1(g, k)
    seen = set()
    total = 0
    placed = 0
    for s in sol.trace.steps:
        assert s.monitors_placed <= s.collected
        assert not (s.collected & seen)
        seen |= s.collected
        total += s.step_gain.micros
        placed += len(s.monitors_placed)
    assert total == sol.gain.micros
    assert placed <= k
    assert frozenset(bridge_ids(g, make_mask(g, sol.monitors))) == sol.determined_extras
    assert seen == sol.monitors | sol.determined_extras


@pytest.mark.parametrize(
    "g",
    [gen_circulant(n) for n in (6, 8, 10)]
    + [random_connected_multigraph(n, n - 1 + seed % 9, seed) for seed, n in enumerate(range(2, 14))],
)
@pytest.mark.parametrize("sigma", [1, 2, 3])
def test_greedy_trace_counts_every_candidate_set(g, sigma):
    # a step scores C(left, |P|) sets, left = the edges earlier steps
    # did not collect, or none when it takes every one of them
    for k in range(1, 7):
        left = len(g.edges)
        for s in sigma_greedy(g, SolverConfig(k=k, sigma=sigma)).trace.steps:
            placed = len(s.monitors_placed)
            assert s.candidates == (comb(left, placed) if left > placed else 0)
            left -= len(s.collected)


def test_greedy2_first_step_counts_the_pairs_of_a_circulant():
    steps = greedy2(gen_circulant(10), 4).trace.steps
    assert steps[0].candidates == comb(20, 2) == 190


@pytest.mark.differential
@given(multigraphs(max_n=6, max_m=10), st.integers(1, 3))
def test_one_greedy_steps_are_locally_maximal(g, k):
    from oracles import bridges_by_removal

    sol = greedy1(g, k)
    w = g.weights_micros
    removed: frozenset[int] = frozenset()
    for s in sol.trace.steps:
        if s.candidates == 0:
            break
        live = [e for e in range(len(g.edges)) if e not in removed]
        single_gains = []
        for e in live:
            extras = bridges_by_removal(g, removed | {e})
            single_gains.append(w[e] + sum(w[x] for x in extras))
        assert s.step_gain.micros == max(single_gains)
        removed |= s.collected


def test_exact_triangle():
    sol = exact(TRIANGLE, 1)
    assert sol.gain == Weight.from_units(3)
    assert sol.monitors == {0}


def test_exact_tight_family_optimum_sits_in_cubic_part():
    g = gen_greedy1_tight(5)
    sol = exact(g, 5)
    assert sol.gain == Weight.from_units(12)
    assert all(e >= 7 for e in sol.monitors)


def test_exact_budget_covers_everything():
    g = Graph.build(3, [(0, 1, 2), (1, 2, 3), (0, 2, 4)])
    assert exact(g, 10).gain == g.total_weight()


def test_exact_size_guard():
    g = gen_ladder(30)  # 45 edges: C(45,6) = 8145060 > EXACT_DEFAULT_BUDGET
    with pytest.raises(SizeGuardError):
        exact(g, 6)


def test_exact_tie_break_lowest_ids():
    g = Graph.build(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    sol = exact(g, 1)
    assert sol.monitors == {0}


@pytest.mark.differential
@settings(max_examples=40)
@given(multigraphs(max_n=6, max_m=9), st.integers(1, 3))
def test_exact_matches_at_most_k_reference(g, k):
    assert exact(g, k).gain.micros == exact_reference(g, k)


@pytest.mark.differential
@settings(max_examples=200)
@given(multigraphs(), st.integers(1, 5))
def test_exact_matches_traversal_solver(g, k):
    assert exact(g, k) == exact_by_traversal(g, k)


@given(multigraphs(max_n=6, max_m=10), st.integers(1, 3))
def test_exact_dominates_heuristics(g, k):
    opt = exact(g, k).gain
    assert opt >= greedy1(g, k).gain
    assert opt >= greedy2(g, k).gain


def _by_lists(run):
    """run() with the batch loop replaced by its list-step reference."""
    with mock.patch.object(solvers, "_batches", batches_by_lists):
        return run()


def _tangled_multigraph(seed: int, core: int = 60, pendant: int = 90) -> Graph:
    """Weights 0..2 on random edges over `core` vertices, 16/3 per vertex,
    then parallels of some of them and loops, and pendant trees on
    `pendant` more vertices, whose edges are bridges: about 500 edges at
    the defaults."""
    rng = random.Random(seed)
    m = 16 * core // 3
    edges = [(rng.randrange(core), rng.randrange(core), rng.randint(0, 2)) for _ in range(m)]
    edges += [edges[rng.randrange(m)] for _ in range(5 * core // 6)]
    edges += [(v, v, rng.randint(0, 2)) for v in rng.sample(range(core), core // 3)]
    edges += [(v, rng.randrange(v), rng.randint(0, 2)) for v in range(core, core + pendant)]
    rng.shuffle(edges)
    return Graph.build(core + pendant, edges)


def test_greedy1_matches_the_list_steps_on_a_circulant():
    g = gen_circulant(250)
    k = len(g.weights_micros) // 4
    for run in (
        lambda: sigma_greedy(g, SolverConfig(k=k)),
        lambda: solve_pipeline(g, k, "greedy1"),
    ):
        sol = run()
        assert len(sol.trace.steps) == k
        assert sol == _by_lists(run)


def test_greedy1_matches_the_list_steps_on_a_tangled_multigraph():
    g = _tangled_multigraph(30)
    m = len(g.weights_micros)
    # the table's steps merge classes many times on this graph: every
    # class leaves either as a pick, as the zero class or by a merge
    table, zero = class_table(cut_labels(g), g.weights_micros)
    classes, steps = len(table), 0
    while table:
        take_class(table, zero)
        zero, steps = 0, steps + 1
    assert classes - steps - 1 >= 50  # 59 merges
    runs = [lambda: exact(g, 1)]
    for k in (m // 8, m // 4, m - 1):
        runs += [
            lambda k=k: sigma_greedy(g, SolverConfig(k=k)),
            lambda k=k: solve_pipeline(g, k, "greedy1"),
        ]
    for run in runs:
        assert run() == _by_lists(run)


@pytest.mark.parametrize(
    "g", [gen_circulant(20), _tangled_multigraph(4, core=9, pendant=8)], ids=["circ", "tangled"]
)
def test_a_size_three_batch_then_a_size_one_step_match_the_list_steps(g):
    for run in (
        lambda: sigma_greedy(g, SolverConfig(k=4, sigma=3)),
        lambda: solve_pipeline(g, 4, "greedy:3"),
    ):
        sol = run()
        assert [len(s.monitors_placed) for s in sol.trace.steps] == [3, 1]
        assert sol == _by_lists(run)


@pytest.mark.differential
@settings(max_examples=150)
@given(multigraphs(max_n=7, max_m=13, min_w=0, max_w=2), st.integers(1, 6), st.integers(1, 3))
def test_batches_match_the_list_steps(g, k, sigma):
    # weights 0..2 and loops tie classes, the zero class among them
    runs = [
        lambda: sigma_greedy(g, SolverConfig(k=k, sigma=sigma)),
        lambda: solve_pipeline(g, k, f"greedy:{sigma}"),
        lambda: exact(g, 1),
    ]
    for run in runs:
        assert run() == _by_lists(run)


def test_greedy1_budget_refusal_matches_the_list_steps(monkeypatch):
    # 500, 499 and 498 live edges: the third step passes 1,200
    monkeypatch.setattr(solvers, "GREEDY_DEFAULT_BUDGET", 1200)
    g = gen_circulant(250)
    run = lambda: sigma_greedy(g, SolverConfig(k=125))
    with pytest.raises(CandidateBudgetError) as got:
        run()
    with pytest.raises(CandidateBudgetError) as want:
        _by_lists(run)
    assert str(got.value) == str(want.value)
    assert str(got.value) == "step 3 needs 498 candidate evaluations; budget 1200 exhausted"


def test_pair_reads_do_not_count_size_one_steps(search_counts):
    g = gen_circulant(20)
    run = lambda: sigma_greedy(g, SolverConfig(k=8))
    assert run() == _by_lists(run)
    assert search_counts["cutspace", "pair reads"] == search_counts["oracles", "pair reads"] == 0


def _by_rows(run):
    """run() with every size-2 search read by its row reference."""
    with mock.patch.object(solvers, "span_search", span_search_by_rows):
        return run()


@pytest.mark.differential
@settings(max_examples=200)
@given(multigraphs(max_n=7, max_m=13, min_w=0, max_w=2), st.integers(1, 4))
def test_size_two_steps_match_the_row_reads(g, k):
    # weights 0..2, loops and parallels tie pairs and classes; greedy:3
    # at k = 3j - 1 ends on a size-2 step
    runs = [
        lambda: sigma_greedy(g, SolverConfig(k=k, sigma=2)),
        lambda: sigma_greedy(g, SolverConfig(k=3 * k - 1, sigma=3)),
        lambda: solve_pipeline(g, k, "greedy2"),
        lambda: exact(g, 2),
    ]
    for run in runs:
        assert run() == _by_rows(run)


@pytest.mark.parametrize(
    "g", [gen_circulant(60), _tangled_multigraph(7, core=30, pendant=20)], ids=["circ", "tangled"]
)
def test_greedy2_matches_the_row_reads_on_larger_graphs(g):
    m = len(g.weights_micros)
    for run in (
        lambda: sigma_greedy(g, SolverConfig(k=m // 4, sigma=2)),
        lambda: solve_pipeline(g, 12, "greedy2"),
        lambda: solve_pipeline(g, 8, "greedy:3"),
        lambda: exact(g, 2),
    ):
        assert run() == _by_rows(run)


def test_greedy2_steps_read_one_row_on_the_ladder(monkeypatch, search_counts):
    # per size-2 step: the rows of pair reads, and the class pairs that
    # cutspace.triangles tests, those within each lowest-set-bit bucket.
    # The row reads read a row per distinct live residual, 472-999 per
    # step at m = 500 and 1,000; the triangle pairs stay quadratic, about
    # L^2/8 of the L classes on a circulant
    real = cutspace._best_pair
    steps = []

    def counted(residuals, coset, val, stop):
        rows = search_counts["cutspace", "pair reads"]
        buckets = Counter(x & -x for x in coset).values()
        found = real(residuals, coset, val, stop)
        rows = search_counts["cutspace", "pair reads"] - rows
        steps.append((len(coset), rows, sum(comb(c, 2) for c in buckets)))
        return found

    monkeypatch.setattr(cutspace, "_best_pair", counted)
    for m in (500, 1000, 2000):
        for g in (gen_circulant(m // 2), random_connected_multigraph(2 * m // 5, m, seed=3)):
            steps.clear()
            assert len(solve_pipeline(g, 6, "greedy2").trace.steps) == 3
            assert [rows for _, rows, _ in steps] == [1, 1, 1]
            assert all(3 * pairs <= comb(classes, 2) for classes, _, pairs in steps)


def _tight_mutant(tight, k: int, weights, chords) -> tuple[Graph, int]:
    """tight(k), one of the tight families, with the (edge, millionths)
    weights given and the (u, v, millionths) chords added, and k."""
    g = tight(k)
    w = list(g.weights_micros)
    for e, micros in weights:
        w[e] = micros
    edges = list(zip(g.us, g.vs, map(Weight, w)))
    edges += [(u, v, Weight(micros)) for u, v, micros in chords]
    return Graph.build(g.vertex_count, edges), k


@st.composite
def tight_mutants(draw, tight):
    """tight(k), the family a greedy trails the optimum most on, at
    k = 4-6, with some weights redrawn and up to four chords, loops and
    parallels among them, weights 0-4 in tenths."""
    k = draw(st.integers(4, 6))
    n, m = 2 * k, 4 * k - 1
    tenths = st.integers(0, 40).map(lambda t: t * 100_000)
    weights = draw(st.lists(st.tuples(st.integers(0, m - 1), tenths), max_size=6))
    ends = st.integers(0, n - 1)
    chords = draw(st.lists(st.tuples(ends, ends, tenths), max_size=4))
    return _tight_mutant(tight, k, weights, chords)


@pytest.mark.differential
@given(tight_mutants(gen_greedy2_tight))
# the worst ratio found in 6,000 targeted examples: 12 / 7.04 = 1.705, on
# three parallels lightened to 0.3, 0.4 and 0.9 (12 / 7.55 = 1.589 unmutated)
@example(_tight_mutant(gen_greedy2_tight, 5, [(3, 300_000), (4, 400_000), (5, 900_000)], []))
def test_greedy2_gains_at_least_half_the_optimum(case):
    g, k = case
    opt = exact(g, k).gain.micros
    gain = sigma_greedy(g, SolverConfig(k=k, sigma=2)).gain.micros
    if gain:
        target(opt / gain, label="optimum / greedy2")
    assert 2 * gain >= opt


@pytest.mark.differential
@given(tight_mutants(gen_greedy1_tight))
# the worst ratio found: 15 / 6.02 = 2.492, six of the eight parallels
# lightened to 1.0, so that each ties a prism edge and wins on its lower
# id (15 / 6.06 = 2.475 unmutated); 6,000 targeted examples found none
# worse than the unmutated family
@example(_tight_mutant(gen_greedy1_tight, 6, [(e, 1_000_000) for e in range(6)], []))
def test_greedy1_gains_at_least_a_third_of_the_optimum(case):
    g, k = case
    opt = exact(g, k).gain.micros
    gain = sigma_greedy(g, SolverConfig(k=k, sigma=1)).gain.micros
    if gain:
        target(opt / gain, label="optimum / greedy1")
    assert 3 * gain >= opt


def test_candidate_budget_guard():
    g = gen_ladder(80)  # 120 edges: C(120,5) = 190578024 > GREEDY_DEFAULT_BUDGET
    with pytest.raises(CandidateBudgetError):
        sigma_greedy(g, SolverConfig(k=5, sigma=5))


def test_full_determination_tree():
    g = Graph.build(4, [(0, 1), (1, 2), (2, 3)])
    assert full_determination(g) == frozenset()


def test_full_determination_cycle():
    assert len(full_determination(gen_cycle(6))) == 1


def test_full_determination_size_and_round_trip():
    from flowmon.flowsim import infer, measure, random_circulation

    g, _, _ = gen_fig1()
    mon = full_determination(g)
    assert len(mon) == 12 - 8 + 1
    flow = random_circulation(g, seed=4)
    res = infer(g, mon, measure(flow, mon))
    assert res.undetermined == frozenset() and res.consistent


def test_pipeline_budget_covers_graph():
    g = Graph.build(3, [(0, 1, 2), (1, 2, 3), (0, 2, 4)])
    sol = solve_pipeline(g, 3, "greedy1")
    assert sol.monitors == {0, 1, 2}
    assert sol.gain == g.total_weight()


def test_pipeline_cycle_collapses_to_loop():
    sol = solve_pipeline(gen_cycle(6), 1, "greedy1")
    assert sol.monitors == {5}
    assert sol.gain == Weight.from_units(6)
    assert sol.determined_extras == {0, 1, 2, 3, 4}
    assert sol.zero_flow == frozenset()


def test_pipeline_reports_stripped_bridges():
    # two triangles joined by a heavy bridge
    g = Graph.build(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3, 9)])
    sol = solve_pipeline(g, 1, "greedy1")
    assert sol.zero_flow == {6}
    assert 6 not in sol.monitors and 6 not in sol.determined_extras
    assert sol.gain == Weight.from_units(3)  # one triangle collapses to a loop of 3


@settings(max_examples=40)
@given(multigraphs(max_n=6, max_m=10), st.integers(1, 3))
def test_pipeline_two_greedy_half_of_optimum(g, k):
    if k >= len(g.edges):
        return
    sol = solve_pipeline(g, k, "greedy2")
    zb = sum(g.weights_micros[e] for e in sol.zero_flow)
    assert 2 * (sol.gain.micros + zb) >= exact(g, k).gain.micros


@settings(max_examples=40)
@given(multigraphs(max_n=6, max_m=10), st.integers(1, 3))
def test_pipeline_gain_equals_solver_gain_on_reduced(g, k):
    from flowmon.reduce import preprocess

    if k >= len(g.edges):
        return
    reduced, _ = preprocess(g)
    assert solve_pipeline(g, k, "greedy2").gain == greedy2(reduced, k).gain


def test_pipeline_trace_speaks_original_ids():
    sol = solve_pipeline(gen_cycle(6), 1, "greedy1")
    assert sol.trace is not None
    assert sol.trace.steps[0].monitors_placed == {5}


def test_pipeline_when_everything_is_a_bridge():
    g = Graph.build(4, [(0, 1), (1, 2), (2, 3)])
    sol = solve_pipeline(g, 1, "greedy1")
    assert sol.monitors == frozenset()
    assert sol.zero_flow == {0, 1, 2}
    assert sol.gain == Weight.zero()


# a 4-cycle with a chord, whose group {1, 2} has its deputy 2 in the
# forest, so the non-tree member 1 joins two pieces of it; then a bridge
# (5), a loop, a triangle and an isolated vertex. Reduced m is 5.
CYCLE_WITH_TREE_DEPUTY = Graph.build(
    9,
    [(0, 1, 2), (3, 0, 1), (2, 3, 0), (1, 2, 3), (0, 2, 1), (3, 4, 5),
     (4, 4, 2), (5, 6, 1), (6, 7, 0), (7, 5, 4)],
)


# each pipeline name's Graph solver, fixed here rather than parsed from
# the name by the code under test
REFERENCE_SOLVERS = {"greedy1": greedy1, "greedy2": greedy2, "greedy:3": greedy(3), "exact": exact}


@pytest.mark.differential
@settings(max_examples=300)
@given(
    multigraphs(max_n=9, max_m=14, min_w=0),
    st.integers(1, 6),
    st.sampled_from(list(REFERENCE_SOLVERS)),
)
@example(CYCLE_WITH_TREE_DEPUTY, 2, "greedy1")
@example(CYCLE_WITH_TREE_DEPUTY, 3, "greedy2")
@example(CYCLE_WITH_TREE_DEPUTY, 3, "exact")
# reduced m <= k < m: the solver takes every deputy
@example(CYCLE_WITH_TREE_DEPUTY, 5, "greedy:3")
@example(CYCLE_WITH_TREE_DEPUTY, 7, "exact")
def test_solve_pipeline_matches_traversal(g, k, name):
    # loops, parallels, bridges, zero weights, isolated vertices, several
    # components: the full Solution, trace and zero-flow set included
    assert solve_pipeline(g, k, name) == solve_pipeline_by_traversal(g, k, REFERENCE_SOLVERS[name])


def test_solve_pipeline_builds_no_graph_and_walks_g_twice(monkeypatch):
    # the labelling forest of G, then one bridge_ids walk of G - M; no
    # reduced graph is built or labelled
    g = CYCLE_WITH_TREE_DEPUTY
    expected = solve_pipeline_by_traversal(g, 2, greedy1)
    calls = record_graph_calls(monkeypatch, "search_forest", "component_labels", "bridge_ids")
    builds = []
    real_init = Graph.__init__
    monkeypatch.setattr(Graph, "__init__", lambda self, *args: builds.append(args) or real_init(self, *args))
    assert solve_pipeline(g, 2, "greedy1") == expected
    assert builds == []
    assert len(calls["search_forest"]) == 2 and all(h is g for h in calls["search_forest"])
    assert calls["component_labels"] == []
    assert len(calls["bridge_ids"]) == 1 and calls["bridge_ids"][0] is g


@pytest.mark.parametrize("name", ["greedy1", "exact"])
def test_solve_pipeline_refuses_a_gain_the_lift_does_not_reach(monkeypatch, name):
    real = solvers._batches

    def inflated(*args):
        sol = real(*args)
        return sol._replace(gain=sol.gain + Weight(1))

    monkeypatch.setattr(solvers, "_batches", inflated)
    with pytest.raises(FlowmonError, match="differs from the solver's") as err:
        solve_pipeline(CYCLE_WITH_TREE_DEPUTY, 2, name)
    assert err.value.exit_code == 1


def test_greedy_on_empty_graph():
    g = Graph.build(3, [])
    sol = greedy1(g, 2)
    assert sol.monitors == frozenset() and sol.gain == Weight.zero()
    assert sol.trace.steps == ()
