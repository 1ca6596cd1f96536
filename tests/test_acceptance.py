"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line (run with -s to see them). Tolerances are pinned here and
nowhere else; everything not stated as a ratio window is exact."""

from fractions import Fraction
import io
import random
from contextlib import redirect_stdout

from flowmon.cli import main as cli_main
from flowmon.flowsim import infer, measure, random_circulation
from flowmon.generators import (
    gen_fig1,
    gen_greedy1_tight,
    gen_greedy2_tight,
    random_connected_multigraph,
)
from flowmon.graph import (
    Graph,
    bridge_ids,
    component_labels,
    gain,
    is_c_edge_connected,
    make_mask,
)
from flowmon.hardness import lemma1_check, verify_star_canonical, verify_star_random
from flowmon.kernel import check_kernel_bound, kernel_graph
from flowmon.reduce import lift_monitors, preprocess
from flowmon.solvers import exact, full_determination, solve_pipeline
from flowmon.weights import Weight

from conftest import greedy, seeded_multigraph

greedy1, greedy2 = greedy(1), greedy(2)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def ratio(num_micros: int, den_micros: int) -> Fraction:
    return Fraction(num_micros, den_micros)


def test_criterion_01_single_batch_tight_family():
    g = gen_greedy1_tight(5, Weight.parse("0.01"))
    greedy_gain = greedy1(g, 5).gain
    opt_gain = exact(g, 5).gain
    r = ratio(opt_gain.micros, greedy_gain.micros)
    ok = (
        greedy_gain == Weight.parse("5.05")
        and opt_gain == Weight.from_units(12)
        and Fraction("2.37") <= r <= Fraction("2.40")
    )
    report(1, ok, f"greedy={greedy_gain} optimum={opt_gain} ratio={float(r):.4f}")


def test_criterion_02_two_batch_tight_family():
    g6 = gen_greedy2_tight(6, Weight.parse("0.01"))
    greedy6 = greedy2(g6, 6).gain
    opt6 = exact(g6, 6).gain
    r6 = ratio(opt6.micros, greedy6.micros)
    ratios = [r6]
    for k in (8, 10):
        gk = gen_greedy2_tight(k, Weight.parse("0.01"))
        greedy_k = greedy2(gk, k).gain
        closed_form = Weight.from_units(3 * k - 3)
        ratios.append(ratio(closed_form.micros, greedy_k.micros))
    ok = (
        greedy6 == Weight.parse("9.06")
        and opt6 == Weight.from_units(15)
        and Fraction("1.65") <= r6 <= Fraction("1.67")
        and ratios[0] < ratios[1] < ratios[2] < 2
    )
    report(2, ok, "ratios k=6,8,10: " + ", ".join(f"{float(r):.4f}" for r in ratios))


def test_criterion_03_approximation_bounds_on_corpus():
    violations = 0
    graphs = 0
    for seed in range(500):
        g = seeded_multigraph(seed)
        graphs += 1
        for k in (1, 2, 3, 4):
            opt = exact(g, k).gain.micros
            for algo, factor in (("greedy1", 3), ("greedy2", 2)):
                sol = solve_pipeline(g, k, algo)
                zb = sum(g.weights_micros[e] for e in sol.zero_flow)
                determined_weight = sol.gain.micros + zb
                if factor * determined_weight < opt:
                    violations += 1
    report(3, violations == 0, f"{graphs} graphs x k in 1..4, violations={violations}")


def test_criterion_04_reduction_soundness():
    checked = 0
    bad = 0
    for seed in range(500):
        g = seeded_multigraph(seed)
        if bridge_ids(g) or max(component_labels(g), default=0) != 0:
            continue
        reduced, rmap = preprocess(g)
        for k in (1, 2, 3, 4):
            checked += 1
            opt_original = exact(g, k).gain
            sub = exact(reduced, k)
            if sub.gain != opt_original:
                bad += 1
                continue
            lifted = lift_monitors(sub.monitors, rmap)
            if gain(g, lifted) != sub.gain:
                bad += 1
    report(4, checked > 0 and bad == 0, f"bridgeless connected checks={checked}, mismatches={bad}")


def test_criterion_05_inference_ground_truth():
    bad = 0
    for seed in range(200):
        rng = random.Random(10_000 + seed)
        g = seeded_multigraph(10_000 + seed)
        m = len(g.edges)
        flow = random_circulation(g, seed=seed, flow_range=50)
        mon = frozenset(rng.sample(range(m), rng.randint(0, m))) if m else frozenset()
        res = infer(g, mon, measure(flow, mon))
        expected = mon | frozenset(bridge_ids(g, make_mask(g, mon)))
        unit = Graph.build(g.vertex_count, [(e.u, e.v) for e in g.edges])
        ok = (
            res.consistent
            and set(res.determined) == expected
            and all(res.determined[e] == flow[e] for e in res.determined)
            and res.undetermined == frozenset(range(m)) - expected
            and len(res.determined) == gain(unit, mon).micros // 10**6
        )
        bad += not ok

    g, monitors, readings = gen_fig1()
    res = infer(g, monitors, readings)
    fig_ok = res.determined == {0: 1, 1: 4, 2: 2, 3: 7, 4: 2, 5: 2, 6: 3, 7: 5}
    report(5, bad == 0 and fig_ok, f"200 triples, failures={bad}; worked example ok={fig_ok}")


def test_criterion_06_full_determination():
    bad = 0
    for seed in range(100):
        rng = random.Random(20_000 + seed)
        n = rng.randint(2, 9)
        m = rng.randint(n - 1, n + 6)
        g = random_connected_multigraph(n, m, seed=20_000 + seed)
        mon = full_determination(g)
        if len(mon) != len(g.edges) - g.vertex_count + 1:
            bad += 1
            continue
        flow = random_circulation(g, seed=seed)
        res = infer(g, mon, measure(flow, mon))
        if res.undetermined or not res.consistent:
            bad += 1
    report(6, bad == 0, f"100 connected graphs, failures={bad}")


def test_criterion_07_kernel_invariants():
    bad = 0
    pairs = 0
    for seed in range(200):
        rng = random.Random(30_000 + seed)
        g = seeded_multigraph(30_000 + seed)
        m = len(g.edges)
        mon = frozenset(rng.sample(range(m), rng.randint(0, min(m, 5)))) if m else frozenset()
        pairs += 1
        kg = kernel_graph(g, mon)
        extra = frozenset(bridge_ids(g, make_mask(g, mon)))
        kernel_extra = {i for i, orig in enumerate(kg.represents) if orig in extra}
        kernel_mon = [i for i, orig in enumerate(kg.represents) if orig in mon]
        # bound, bridge characterization (with monitor edges set aside), forest
        ok = check_kernel_bound(kg, len(mon))
        ok = ok and kernel_extra == set(
            bridge_ids(kg.graph, make_mask(kg.graph, kernel_mon))
        )
        parent = list(range(kg.graph.vertex_count))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i in sorted(kernel_extra):
            ru, rv = find(kg.graph.edges[i].u), find(kg.graph.edges[i].v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        # 3-edge-connected inputs keep 3-edge-connected kernels
        reduced, _ = preprocess(g)
        mr = len(reduced.edges)
        mon_r = frozenset(rng.sample(range(mr), rng.randint(0, min(mr, 4)))) if mr else frozenset()
        kg_r = kernel_graph(reduced, mon_r)
        if len(kg_r.graph.edges) <= 12:
            ok = ok and is_c_edge_connected(kg_r.graph, 3)
        bad += not ok

    g, monitors, _ = gen_fig1()
    kg = kernel_graph(g, monitors)
    tight = len(kg.graph.edges) == 8 and kg.graph.vertex_count == 5 and check_kernel_bound(kg, 4)
    report(7, bad == 0 and tight, f"{pairs} pairs, failures={bad}; worked example tight 8<=8: {tight}")


def test_criterion_08_hardness_equivalence():
    reports = verify_star_canonical(6)
    rnd = verify_star_random(300, seed=0)
    mismatches = sum(r.mismatches for r in reports) + rnd.mismatches
    checks = sum(r.checks for r in reports) + rnd.checks
    detail = (
        f"canonical n<=6: {sum(r.instances for r in reports)} graphs;"
        f" random 7-8: {rnd.instances}; checks={checks}, mismatches={mismatches}"
    )
    report(8, mismatches == 0 and checks > 0, detail)


def test_criterion_09_composition_lemma():
    bad = [(n, s) for n in range(1, 13) for s in range(1, n + 1) if not lemma1_check(n, s)]
    report(9, not bad, f"all 1<=s<=n<=12 checked, failures={bad}")


def test_criterion_10_deterministic_cli_output(tmp_path):
    def run(*argv) -> tuple[int, str]:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(list(argv))
        return code, buf.getvalue()

    graph = tmp_path / "det.graph"
    transcripts = []
    for _ in range(2):
        lines = []
        lines.append(run("gen", "random", "-n", "8", "-m", "12", "--seed", "11",
                         "--weights", "1:5", "-o", str(graph)))
        lines.append((0, graph.read_text()))
        lines.append(run("solve", "--algo", "greedy2", "-k", "4", "--trace", str(graph)))
        lines.append(run("solve", "--algo", "greedy:3", "-k", "4", "--trace", str(graph)))
        lines.append(run("reduce", str(graph)))
        lines.append(run("kernel", "-m", "0,1", str(graph)))
        lines.append(run("hardness", "--lemma1", "--max-n", "6"))
        transcripts.append(lines)
    report(10, transcripts[0] == transcripts[1], "gen/solve/reduce/kernel/hardness byte-identical")
