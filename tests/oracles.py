"""Definition-level reference implementations used as test oracles.

Everything here is deliberately naive and independent of the library's
traversal code: plain BFS over edge lists, remove-one-edge-and-recount
bridge detection, and subset enumeration straight from the definitions.
The library is checked against these, never the other way around.

The exceptions are the pair sigma_greedy_by_traversal / exact_by_traversal:
the solvers as they were before cut-space labels, scoring every
candidate with one masked bridge_ids traversal (itself checked against
bridges_by_removal). They pin the label-based solvers to the same
monitors, extras, gains and traces, ties included.
solve_pipeline_by_traversal is the pipeline as it was when it built
the reduced graph with preprocess, ran a Graph solver on it, lifted the
monitors and found the extras with one masked bridge_ids traversal of
the whole input graph; it pins solve_pipeline, which runs the batch
loop on G's own labels of the deputies, to the same Solution.
decide_by_traversal likewise pins the label-counting decision, and label_span (the span as
an explicit set) is the reference for the folded residuals. Likewise
infer_by_traversal is inference as it was before the forest
passes: one reachable_from traversal per bridge of G - M, pinning infer
to the same values, verdicts and violation lists.
random_circulation_by_forest_pass is random_circulation as it was when
it forced the forest edges itself, by one leaf-inward pass over a
masked search_forest, instead of asking infer; it pins
random_circulation to the same flows. preprocess_by_stages
is preprocessing as it was before its single label pass: strip_bridges,
merge_components and the old contract_groups body, each building its own
graph, with the three maps composed; it pins preprocess's reduced graph
and every ReductionMap field. parse_graph_by_lines is the graph parser
as it was before it split each line once and parsed each distinct
weight token once, and pins parse_graph to the same Graph or the same
ParseError text. search_forest_by_iterators is search_forest as it was
before it pushed each vertex's whole adjacency: a stack of adjacency
iterators, each resumed where it stopped; it pins search_forest to the
same preorder and entry edges. kernel_labels_by_stages is the
bridges and kernel vertex labels as they were found before both came
off one depth-first forest: bridge_ids, then components_naive with the
bridges masked as well; it pins graph._known's bridges and
kernel.kernel_graph's component_of. Wherever a stage
oracle needs the components of a masked graph (that one,
_contract_groups_by_components and infer_by_traversal's audit) it takes
them from components_naive, not from the library's component_labels,
which reads the same forest pieces as the code under test. span_search_exhaustive is span_search as it was before
its branch and bound and before it tried each distinct residual once
per prefix: every position of every prefix read to the end; it pins
span_search, and through it the solvers and the hardness decision, to
the same value, subset and folded residuals. pair_by_rows is
span_search's size-2 search as it was before it read the classes and
their triangles: one row of pair reads per distinct residual, each
bounded only by the heaviest classes; span_search_by_rows routes every
size-2 search to it and pins span_search, greedy2, the size-2 steps of
greedy:<sigma>, exact at k = 2 and the decision at k = 2 to the same
value, pair, Solution and trace. triangles_by_triples pins
cutspace.triangles to every key triple that XORs to 0.
batches_by_lists is the
batch loop as it was before a run of size-1 steps read one class table:
each size-1 step built a coset dict and a gain list over every live
residual (single_by_lists, span_search's old size-1 branch) and folded
and filtered every one; it pins _batches, and through it greedy1, the
size-1 step of greedy:<sigma>, exact at k = 1 and the budget refusals,
to the same Solution and trace. simple_pairs_by_list is
gen_random's simple draw as it was when it listed all C(n, 2) pairs,
and pins the unranked draw to the same pairs for every seed.
gen_random_simple_by_option_lists is gen_random(simple=True) as it was
when each min-degree repair edge listed every vertex it could join, and
pins the neighbour-list repair to the same graph for every seed.
random_connected_multigraph_by_list is random_connected_multigraph as it
was when its simple mode listed every vertex pair the tree does not use,
and pins the unranked draw to the same graph for every seed.
"""

from __future__ import annotations

import random
from itertools import combinations, compress
from math import comb
from typing import Callable, Iterable, Sequence

from flowmon import solvers
from flowmon.cutspace import _caps, fold_residual, span_search
from flowmon.errors import (
    CandidateBudgetError,
    FlowmonError,
    ParseError,
    ValidationError,
    WeightOverflowError,
)
from flowmon.flowsim import InferenceResult, Measurements, conservation_violations
from flowmon.graph import (
    EdgeRecord,
    Graph,
    bridge_ids,
    make_mask,
    reachable_from,
    search_forest,
    spanning_forest,
)
from flowmon.hardness import DecInstance
from flowmon.reduce import (
    ReductionMap,
    edge_groups,
    lift_monitors,
    merge_components,
    preprocess,
    strip_bridges,
)
from flowmon.solvers import GreedyTrace, Solution, SolverConfig, StepRecord
from flowmon.textio import MAX_VERTICES
from flowmon.weights import MAX_MICROS, Weight


def components_naive(n: int, edge_list: list[tuple[int, int]]) -> list[int]:
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for u, v in edge_list:
        adj[u].append(v)
        adj[v].append(u)
    label = [-1] * n
    c = 0
    for s in range(n):
        if label[s] != -1:
            continue
        queue = [s]
        label[s] = c
        while queue:
            v = queue.pop()
            for w in adj[v]:
                if label[w] == -1:
                    label[w] = c
                    queue.append(w)
        c += 1
    return label


def component_count_naive(n: int, edge_list: list[tuple[int, int]]) -> int:
    labels = components_naive(n, edge_list)
    return max(labels) + 1 if labels else 0


def components_of_masked(g: Graph, mask: Sequence[int]) -> list[int]:
    """components_naive of g minus the edges the 0/1 mask marks."""
    return components_naive(g.vertex_count, [(e.u, e.v) for e in g.edges if not mask[e.id]])


def live_edge_list(g: Graph, removed: frozenset[int] = frozenset()) -> list[tuple[int, int, int]]:
    return [(e.id, e.u, e.v) for e in g.edges if e.id not in removed]


def bridges_by_removal(g: Graph, removed: frozenset[int] = frozenset()) -> frozenset[int]:
    """An edge is a bridge iff deleting it increases the component count."""
    live = live_edge_list(g, removed)
    base = component_count_naive(g.vertex_count, [(u, v) for _, u, v in live])
    found = []
    for eid, _, _ in live:
        rest = [(u, v) for i, u, v in live if i != eid]
        if component_count_naive(g.vertex_count, rest) > base:
            found.append(eid)
    return frozenset(found)


def gain_micros_by_definition(g: Graph, monitors: frozenset[int]) -> int:
    w = g.weights_micros
    extras = bridges_by_removal(g, monitors)
    return sum(w[e] for e in monitors) + sum(w[e] for e in extras)


def two_cut_classes_by_pairs(g: Graph) -> set[frozenset[int]]:
    """Group edges by 'removing the pair disconnects the graph', checked
    over all pairs, then close into classes with union-find."""
    m = len(g.edges)
    parent = list(range(m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    base = component_count_naive(g.vertex_count, [(e.u, e.v) for e in g.edges])
    for a, b in combinations(range(m), 2):
        rest = [(e.u, e.v) for e in g.edges if e.id not in (a, b)]
        if component_count_naive(g.vertex_count, rest) > base:
            parent[find(a)] = find(b)
    classes: dict[int, set[int]] = {}
    for e in range(m):
        classes.setdefault(find(e), set()).add(e)
    return {frozenset(c) for c in classes.values()}


def is_pair_two_cut(g: Graph, a: int, b: int) -> bool:
    base = component_count_naive(g.vertex_count, [(e.u, e.v) for e in g.edges])
    rest = [(e.u, e.v) for e in g.edges if e.id not in (a, b)]
    return component_count_naive(g.vertex_count, rest) > base


def c_edge_connected_naive(g: Graph, c: int) -> bool:
    if g.vertex_count <= 1:
        return True
    all_edges = [(e.id, e.u, e.v) for e in g.edges]
    for size in range(c):
        for drop in combinations([e[0] for e in all_edges], size):
            rest = [(u, v) for i, u, v in all_edges if i not in drop]
            if component_count_naive(g.vertex_count, rest) != 1:
                return False
    return True


def label_span(vectors: Iterable[int]) -> set[int]:
    """All XOR combinations of the given labels, 0 included."""
    span = {0}
    for x in vectors:
        if x not in span:
            span |= {y ^ x for y in span}
    return span


def exact_reference(g: Graph, k: int) -> int:
    """Best gain in micros over all monitor sets of size at most k,
    not just exactly k."""
    m = len(g.edges)
    best = 0
    for size in range(min(k, m) + 1):
        for p in combinations(range(m), size):
            best = max(best, gain_micros_by_definition(g, frozenset(p)))
    return best


def greedy_reference(g: Graph, k: int, sigma: int) -> int:
    """Step-by-step re-simulation of the batched greedy from its
    description; returns the total gain in micros."""
    w = g.weights_micros
    remaining = set(range(len(g.edges)))
    removed_total: set[int] = set()
    total = 0
    steps = -(-k // sigma)
    for t in range(1, steps + 1):
        if not remaining:
            break
        sp = sigma
        if t == k // sigma + 1:
            sp = k % sigma
        if len(remaining) <= sp:
            total += sum(w[e] for e in remaining)
            removed_total |= remaining
            remaining = set()
            break
        best = None
        for p in combinations(sorted(remaining), sp):
            extras = bridges_by_removal(g, frozenset(removed_total) | set(p))
            val = sum(w[e] for e in p) + sum(w[e] for e in extras)
            key = (-val, p)
            if best is None or key < best[0]:
                best = (key, set(p) | set(extras), val)
        _, collected, val = best
        total += val
        removed_total |= collected
        remaining -= collected
    return total


def sigma_greedy_by_traversal(g: Graph, cfg: SolverConfig) -> Solution:
    """sigma_greedy with one masked bridge traversal per candidate."""
    m = len(g.edges)
    k, sigma = cfg.k, cfg.sigma
    if k >= m:
        all_edges = frozenset(range(m))
        total = g.total_weight()
        steps = (StepRecord(all_edges, all_edges, total, 0),) if m else ()
        return Solution(all_edges, frozenset(), total, GreedyTrace(steps))

    w = g.weights_micros
    gone = bytearray(m)
    monitors: list[int] = []
    steps: list[StepRecord] = []
    evals_used = 0
    n_steps = -(-k // sigma)
    partial_step = k // sigma + 1

    for t in range(1, n_steps + 1):
        live = [e for e in range(m) if not gone[e]]
        if not live:
            break
        sp = k % sigma if t == partial_step else sigma
        if len(live) <= sp:
            for e in live:
                gone[e] = 1
            monitors.extend(live)
            taken = frozenset(live)
            steps.append(
                StepRecord(taken, taken, Weight(sum(w[e] for e in live)), 0)
            )
            break
        count = comb(len(live), sp)
        if evals_used + count > solvers.GREEDY_DEFAULT_BUDGET:
            raise CandidateBudgetError(f"step {t} needs {count} candidate evaluations")
        evals_used += count
        best = -1
        best_p: tuple[int, ...] = ()
        best_b: list[int] = []
        for p in combinations(live, sp):
            for e in p:
                gone[e] = 1
            b = bridge_ids(g, gone)
            val = sum(w[e] for e in p) + sum(w[e] for e in b)
            if val > best:
                best, best_p, best_b = val, p, b
            for e in p:
                gone[e] = 0
        collected = set(best_p)
        collected.update(best_b)
        for e in collected:
            gone[e] = 1
        monitors.extend(best_p)
        steps.append(
            StepRecord(frozenset(best_p), frozenset(collected), Weight(best), count)
        )

    mon = frozenset(monitors)
    extras = frozenset(bridge_ids(g, make_mask(g, mon)))
    total = Weight(sum(w[e] for e in mon) + sum(w[e] for e in extras))
    return Solution(mon, extras, total, GreedyTrace(tuple(steps)))


def exact_by_traversal(g: Graph, k: int) -> Solution:
    """exact with one masked bridge traversal per size-min(k, m) subset."""
    m = len(g.edges)
    size = min(k, m)
    w = g.weights_micros
    mask = bytearray(m)
    best = -1
    best_p: tuple[int, ...] = ()
    best_b: tuple[int, ...] = ()
    for p in combinations(range(m), size):
        for e in p:
            mask[e] = 1
        b = bridge_ids(g, mask)
        val = sum(w[e] for e in p) + sum(w[e] for e in b)
        if val > best:
            best, best_p, best_b = val, p, tuple(b)
        for e in p:
            mask[e] = 0
    return Solution(frozenset(best_p), frozenset(best_b), Weight(best))


def solve_pipeline_by_traversal(g: Graph, k: int, algo: Callable[[Graph, int], Solution]) -> Solution:
    """solve_pipeline with its extras read off one masked bridge_ids
    traversal of all of G, the lifted monitors masked."""
    if k < 1:
        raise ValidationError("monitor budget k must be at least 1")
    m = len(g.edges)
    if k >= m:
        return Solution(frozenset(range(m)), frozenset(), g.total_weight())
    reduced, rmap = preprocess(g)
    sub = algo(reduced, k)
    lifted = lift_monitors(sub.monitors, rmap)
    extras_all = frozenset(bridge_ids(g, make_mask(g, lifted)))
    extras = extras_all - rmap.stripped_bridges
    w = g.weights_micros
    total = Weight(sum(w[e] for e in lifted) + sum(w[e] for e in extras))
    trace = sub.trace
    if trace is not None:
        table = rmap.orig_edge_of_reduced
        trace = GreedyTrace(tuple(
            StepRecord(frozenset(table[r] for r in placed), frozenset(table[r] for r in collected),
                       gain, count)
            for placed, collected, gain, count in trace.steps
        ))
    return Solution(lifted, extras, total, trace, zero_flow=rmap.stripped_bridges)


def decide_by_traversal(inst: DecInstance) -> bool:
    """decide_flow_monitors with one masked bridge traversal per k-subset
    (without its size guard)."""
    g, k, l = inst.graph, inst.k, inst.l
    m = len(g.edges)
    if k > m:
        return False
    if l == 0:
        return True
    mask = bytearray(m)
    for p in combinations(range(m), k):
        for e in p:
            mask[e] = 1
        found = len(bridge_ids(g, mask)) >= l
        for e in p:
            mask[e] = 0
        if found:
            return True
    return False


def infer_by_traversal(g: Graph, monitors: Iterable[int], readings: Measurements) -> InferenceResult:
    """infer with one reachable_from traversal per bridge of G - M."""
    mon = frozenset(monitors)
    g.check_edge_ids(mon)
    for e in readings:
        if e not in mon:
            raise ValidationError(f"reading for non-monitor edge {e}")
    for e in mon:
        if e not in readings:
            raise ValidationError(f"missing reading for monitor edge {e}")

    m = len(g.edges)
    mask = make_mask(g, mon)
    extra = bridge_ids(g, mask)
    determined: dict[int, int] = {e: readings[e] for e in sorted(mon)}

    for b in sorted(extra):
        rec = g.edges[b]
        mask[b] = 1
        side_a = reachable_from(g, rec.u, mask)
        mask[b] = 0
        net_out = 0
        for e in mon:
            er = g.edges[e]
            in_u, in_v = side_a[er.u], side_a[er.v]
            if in_u and not in_v:
                net_out += readings[e]
            elif in_v and not in_u:
                net_out -= readings[e]
        determined[b] = -net_out

    undetermined = frozenset(range(m)) - determined.keys()

    # audit: net determined flow across each kernel-component boundary is zero
    for e in extra:
        mask[e] = 1
    labels = components_of_masked(g, mask)
    ncomp = max(labels) + 1 if labels else 0
    net = [0] * ncomp
    for e, f in determined.items():
        rec = g.edges[e]
        cu, cv = labels[rec.u], labels[rec.v]
        if cu != cv:
            net[cu] -= f
            net[cv] += f
    violations = tuple(
        tuple(v for v in range(g.vertex_count) if labels[v] == c)
        for c in range(ncomp)
        if net[c] != 0
    )
    return InferenceResult(determined, undetermined, not violations, violations)


def random_circulation_by_forest_pass(g: Graph, seed: int, flow_range: int = 100) -> tuple[int, ...]:
    """Seeded circulation, one flow per edge, flow[e] running from
    g.us[e] to g.vs[e] (its negation the other way): every
    non-forest edge (loops included) draws a uniform integer in [-R, R];
    forest edges are then forced leaf-inward so conservation holds."""
    if flow_range < 1:
        raise ValidationError("flow_range must be positive")
    rng = random.Random(seed)
    forest = spanning_forest(g)
    us, vs = g.us, g.vs
    flow = [0] * len(us)
    free = bytearray(len(us))
    resid = [0] * g.vertex_count  # net inflow from the free edges
    for eid, u, v in zip(range(len(us)), us, vs):
        if eid in forest:
            continue
        f = rng.randint(-flow_range, flow_range)
        flow[eid] = f
        free[eid] = 1
        resid[v] += f
        resid[u] -= f

    # forest edges are forced leaf-inward: the flow into the subtree
    # hanging below an edge must cancel that subtree's residual
    order, entry = search_forest(g, free)
    for v in reversed(order):
        eid = entry[v]
        if eid >= 0:
            x, y = us[eid], vs[eid]
            flow[eid] = -resid[v] if y == v else resid[v]
            resid[x + y - v] += resid[v]
    if conservation_violations(g, flow):
        raise FlowmonError("random circulation violates conservation")
    return tuple(flow)


def _contract_groups_by_components(g: Graph) -> tuple[Graph, ReductionMap]:
    classes = edge_groups(g)
    deputy_orig = [max(cls) for cls in classes]
    group_of = {e: gi for gi, cls in enumerate(classes) for e in cls}
    # contracting the non-deputy members merges exactly the vertices they
    # connect; components come numbered by their lowest original vertex
    vmap = components_of_masked(g, make_mask(g, deputy_orig))

    group_weight = [Weight(sum(g.weights_micros[e] for e in cls)) for cls in classes]
    survivors = sorted(deputy_orig)
    new_id_of_orig = {orig: i for i, orig in enumerate(survivors)}
    records = []
    for i, orig in enumerate(survivors):
        rec = g.edges[orig]
        records.append(EdgeRecord(i, vmap[rec.u], vmap[rec.v], group_weight[group_of[orig]]))
    reduced = Graph.build(max(vmap, default=-1) + 1, [rec[1:] for rec in records])
    rmap = ReductionMap(
        vertex_map=tuple(vmap),
        group_of=group_of,
        deputy_of_group=tuple(new_id_of_orig[d] for d in deputy_orig),
        orig_edge_of_reduced=tuple(survivors),
        stripped_bridges=frozenset(),
    )
    return reduced, rmap


def preprocess_by_stages(g: Graph) -> tuple[Graph, ReductionMap]:
    """strip_bridges, then merge_components, then contract the groups,
    with the three maps composed into original ids."""
    stripped_g, dropped = strip_bridges(g)
    kept = [e.id for e in g.edges if e.id not in dropped]
    merged_g, vmap_merge = merge_components(stripped_g)
    reduced, cmap = _contract_groups_by_components(merged_g)

    vertex_map = tuple(
        cmap.vertex_map[vmap_merge[v]] for v in range(g.vertex_count)
    )
    group_of = {kept[e]: gi for e, gi in cmap.group_of.items()}
    rmap = ReductionMap(
        vertex_map=vertex_map,
        group_of=group_of,
        deputy_of_group=cmap.deputy_of_group,
        orig_edge_of_reduced=tuple(kept[e] for e in cmap.orig_edge_of_reduced),
        stripped_bridges=dropped,
    )
    return reduced, rmap


def parse_graph_by_lines(text: str) -> Graph:
    """The graph parser with a strip, a split and a Weight.parse per line."""
    n = m = None
    records: list[EdgeRecord] = []
    total = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if n is None:
            if fields[0] != "p" or len(fields) != 4 or fields[1] != "flowmon":
                raise ParseError(f"line {lineno}: expected header 'p flowmon <n> <m>'")
            try:
                n, m = int(fields[2]), int(fields[3])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer vertex or edge count") from None
            if n < 0 or m < 0:
                raise ParseError(f"line {lineno}: counts must be non-negative")
            if n > MAX_VERTICES:
                raise ParseError(f"line {lineno}: vertex count {n} exceeds the limit {MAX_VERTICES}")
            continue
        if fields[0] != "e" or len(fields) != 4:
            raise ParseError(f"line {lineno}: expected 'e <u> <v> <w>'")
        try:
            u, v = int(fields[1]), int(fields[2])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer endpoint") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"line {lineno}: endpoint out of range [0, {n})")
        try:
            w = Weight.parse(fields[3])
        except (ParseError, WeightOverflowError) as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        if len(records) >= m:
            raise ParseError(f"line {lineno}: more than the declared {m} edges")
        total += w.micros
        if total > MAX_MICROS:
            raise ParseError(f"line {lineno}: total weight exceeds {MAX_MICROS} millionths")
        records.append(EdgeRecord(len(records), u, v, w))
    if n is None:
        raise ParseError("line 1: missing 'p flowmon <n> <m>' header")
    if len(records) != m:
        raise ParseError(f"declared {m} edges but found {len(records)}")
    return Graph.build(n, [rec[1:] for rec in records])


def search_forest_by_iterators(g: Graph, removed: Sequence[int] | None = None) -> tuple[list[int], list[int]]:
    """Depth-first forest of g minus the masked edges, grown from each
    unvisited vertex in index order: the vertices in preorder and each
    one's entry edge id (-1 for roots). An explicit stack of iterators
    over adjacency lists in ascending id order, loops left out, and the
    first unvisited neighbour through an unmasked edge is entered."""
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(g.vertex_count)]
    for e in g.edges:
        if not e.is_loop:
            adjacency[e.u].append((e.v, e.id))
            adjacency[e.v].append((e.u, e.id))
    n = g.vertex_count
    entry = [-1] * n
    seen = [False] * n
    order: list[int] = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        order.append(root)
        stack = [iter(adjacency[root])]
        while stack:
            for w, eid in stack[-1]:
                if not seen[w] and (removed is None or not removed[eid]):
                    seen[w] = True
                    entry[w] = eid
                    order.append(w)
                    stack.append(iter(adjacency[w]))
                    break
            else:
                stack.pop()
    return order, entry


def kernel_labels_by_stages(g: Graph, monitors: Iterable[int]) -> tuple[list[int], list[int]]:
    """The bridges B of G - M, then the components of G - M - B by a
    second, naive search with B masked as well."""
    mask = make_mask(g, monitors)
    exposed = bridge_ids(g, mask)
    for e in exposed:
        mask[e] = 1
    return exposed, components_of_masked(g, mask)


def span_search_exhaustive(
    residuals: Sequence[int], weights: Sequence[int], size: int, stop: int
) -> tuple[int, tuple[int, ...], list[int]]:
    """span_search without its bounds: every prefix is read to the end.

    The best subset of `size` positions, first in combinations order.

    A subset is worth the total weight of the positions whose residual
    lies in the span of its own residuals. Returns the best value, the
    subset and the residuals folded modulo its span (the positions it
    collects read 0). The search ends at the first value that reaches
    `stop`; needs size <= len(residuals).

    Depth-first over prefixes with an explicit stack, so any size is
    fine. Each prefix keeps the residuals after its last position folded
    modulo its span, and a table of summed weight per residual outside
    the span: adding a pick r is worth table[r], and nothing if r is 0.
    The last two picks r, z are read off the table without folding: z
    adds table[z] + table[z ^ r] unless it is 0 or r, and the first
    maximum over z completes the prefix. A prefix that spans everything
    takes the next contiguous positions, since every completion is worth
    the same.
    """
    n = len(residuals)
    coset: dict[int, int] = {}
    for x, wt in zip(residuals, weights):
        coset[x] = coset.get(x, 0) + wt
    val = coset.pop(0, 0)
    if size == 1 and coset:
        gains = [coset.get(x, 0) for x in residuals]
        top = max(gains)
        best, best_pick, frames = val + top, (gains.index(top),), []
    elif size < 2 or not coset:
        best, best_pick, frames = val, (*range(size),), []
    else:
        best, best_pick = -1, ()
        # frames[d]: a prefix of d picks, [value, table, tail, base, offset]
        frames = [[val, coset, list(residuals), 0, 0]]
    picks: list[int] = []
    while frames:
        frame = frames[-1]
        val, coset, tail, base, off = frame
        need = size - len(picks)
        j = base + off
        if j > n - need:
            frames.pop()
            if picks:
                picks.pop()
            continue
        frame[4] = off + 1
        r = tail[off]
        rest = tail[off + 1:]
        if need == 2:
            if r:
                val += coset[r]
                gains = [
                    coset.get(z, 0) + coset.get(z ^ r, 0) if z and z != r else 0 for z in rest
                ]
            else:
                gains = [coset.get(z, 0) for z in rest]
            top = max(gains)
            value, pick = val + top, (*picks, j, j + 1 + gains.index(top))
        else:
            if r:
                b = r.bit_length() - 1
                folded: dict[int, int] = {}
                for y, wt in coset.items():
                    if y >> b & 1:
                        y ^= r
                    folded[y] = folded.get(y, 0) + wt
                coset = folded
                val += coset.pop(0)
                rest = fold_residual(rest, r)
            if coset:
                picks.append(j)
                frames.append([val, coset, rest, j + 1, 0])
                continue
            value, pick = val, (*picks, *range(j, j + need))
        if value > best:
            best, best_pick = value, pick
            if best >= stop:
                break
    folded_res = list(residuals)
    for j in best_pick:
        if folded_res[j]:
            folded_res = fold_residual(folded_res, folded_res[j])
    return best, best_pick, folded_res


def pair_by_rows(
    residuals: Sequence[int], weights: Sequence[int], stop: int
) -> tuple[int, tuple[int, ...], list[int]]:
    """span_search at size 2 as it was before it read the classes: one
    row per distinct residual, in order, each read unless its _caps
    bound cannot beat the best value so far, up to the first value that
    reaches stop."""
    n = len(residuals)
    coset: dict[int, int] = {}
    for x, wt in zip(residuals, weights):
        coset[x] = coset.get(x, 0) + wt
    val = coset.pop(0, 0)
    if not coset:
        best, best_pick = val, (0, 1)
    else:
        best, best_pick = -1, ()
        _, pair, lone = _caps(coset, val, 2, sum(weights))
        tried = set()
        for j in range(n - 1):
            r = residuals[j]
            if r in tried:
                continue
            tried.add(r)
            if (pair + coset[r] if r else lone) <= best:
                continue
            value = val
            if r:
                value += coset[r]
                gains = [
                    coset.get(z, 0) + coset.get(z ^ r, 0) if z and z != r else 0
                    for z in residuals[j + 1:]
                ]
            else:
                gains = [coset.get(z, 0) for z in residuals[j + 1:]]
            top = max(gains)
            if value + top <= best:
                continue
            best, best_pick = value + top, (j, j + 1 + gains.index(top))
            if best >= stop:
                break
    folded_res = list(residuals)
    for j in best_pick:
        if folded_res[j]:
            folded_res = fold_residual(folded_res, folded_res[j])
    return best, best_pick, folded_res


def span_search_by_rows(
    residuals: Sequence[int], weights: Sequence[int], size: int, stop: int
) -> tuple[int, tuple[int, ...], list[int]]:
    """span_search with its size-2 searches read by pair_by_rows."""
    if size == 2:
        return pair_by_rows(residuals, weights, stop)
    return span_search(residuals, weights, size, stop)


def triangles_by_triples(table: dict[int, int]) -> set[frozenset[int]]:
    """Every three keys of the table whose XOR is 0."""
    return {frozenset(t) for t in combinations(table, 3) if t[0] ^ t[1] == t[2]}


def single_by_lists(
    residuals: Sequence[int], weights: Sequence[int]
) -> tuple[int, tuple[int, ...], list[int]]:
    """span_search's size-1 branch as it was before the class table: one
    coset dict over every residual, a gain per position, the first
    maximum, and every residual folded by the pick's."""
    coset: dict[int, int] = {}
    for x, wt in zip(residuals, weights):
        coset[x] = coset.get(x, 0) + wt
    val = coset.pop(0, 0)
    if coset:
        gains = [coset.get(x, 0) for x in residuals]
        top = max(gains)
        best, best_pick = val + top, (gains.index(top),)
    else:
        best, best_pick = val, (0,)
    folded_res = list(residuals)
    for j in best_pick:
        if folded_res[j]:
            folded_res = fold_residual(folded_res, folded_res[j])
    return best, best_pick, folded_res


def batches_by_lists(
    ids: Sequence[int], labels: Sequence[int], weights: Sequence[int], cfg: SolverConfig
) -> Solution:
    """solvers._batches as it was before the class table: every step,
    size 1 included, searches the live residuals (single_by_lists at
    size 1) and filters the live ids, weights and residuals."""
    k = cfg.k
    sigma = k if k >= len(ids) else cfg.sigma
    live, wl = list(ids), list(weights)
    res = labels
    monitors: list[int] = []
    determined: list[int] = []
    steps: list[StepRecord] = []
    evals_used = 0

    while live and len(monitors) < k:
        sp = min(sigma, k - len(monitors))
        if len(live) <= sp:
            monitors.extend(live)
            taken = frozenset(live)
            steps.append(StepRecord(taken, taken, Weight(sum(wl)), 0))
            break
        count = comb(len(live), sp)
        if evals_used + count > solvers.GREEDY_DEFAULT_BUDGET:
            raise CandidateBudgetError(
                f"step {len(steps) + 1} needs {count} candidate evaluations;"
                f" budget {solvers.GREEDY_DEFAULT_BUDGET} exhausted"
            )
        evals_used += count
        if sp == 1:
            best, pick, res = single_by_lists(res, wl)
        else:
            best, pick, res = span_search(res, wl, sp, sum(wl))
        placed = [live[j] for j in pick]
        collected = [e for e, x in zip(live, res) if not x]
        determined.extend(collected)
        monitors.extend(placed)
        steps.append(
            StepRecord(frozenset(placed), frozenset(collected), Weight(best), count)
        )
        live = list(compress(live, res))
        wl = list(compress(wl, res))
        res = [x for x in res if x]

    mon = frozenset(monitors)
    gain = Weight(sum(s.step_gain.micros for s in steps))
    return Solution(mon, frozenset(determined) - mon, gain, GreedyTrace(tuple(steps)))


def simple_pairs_by_list(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    """The first draw of gen_random(n, m, seed, simple=True) as it was
    before it unranked sampled indices: m pairs sampled from the list of
    all C(n, 2) vertex pairs."""
    return random.Random(seed).sample(list(combinations(range(n), 2)), m)


def gen_random_simple_by_option_lists(
    n: int, m: int, seed: int, min_degree: int, weight_lo: int = 1, weight_hi: int = 1
) -> Graph:
    """gen_random(n, m, seed, min_degree, simple=True) as it was when its
    repair built, for every added edge, the list of all vertices not yet
    joined to v and drew one with rng.choice. The first draw is the
    listed-pairs sample of simple_pairs_by_list."""
    rng = random.Random(seed)
    edges = rng.sample(list(combinations(range(n), 2)), m)
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    present = {tuple(sorted(e)) for e in edges}
    for v in range(n):
        while degree[v] < min_degree:
            options = [u for u in range(n)
                       if u != v and tuple(sorted((u, v))) not in present]
            if not options:
                raise ValidationError(f"cannot reach min_degree at vertex {v}")
            u = rng.choice(options)
            present.add(tuple(sorted((u, v))))
            edges.append((v, u))
            degree[v] += 1
            degree[u] += 1
    weighted = [(u, v, rng.randint(weight_lo, weight_hi)) for u, v in edges]
    return Graph.build(n, weighted)


def random_connected_multigraph_by_list(n: int, m: int, seed: int, simple: bool = False) -> Graph:
    """random_connected_multigraph with the extras of simple mode sampled
    from the list of all pairs the tree does not use."""
    rng = random.Random(seed)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    if simple:
        tree = set(edges)
        others = [p for p in combinations(range(n), 2) if p not in tree]
        edges += rng.sample(others, m - (n - 1))
    while len(edges) < m:
        edges.append((rng.randrange(n), rng.randrange(n)))
    return Graph.build(n, edges)
