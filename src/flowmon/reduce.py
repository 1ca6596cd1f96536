"""Instance preprocessing: strip bridges, merge components, contract
2-cut edge groups.

A bridge of the input graph can only ever carry zero flow, so bridges are
removed up front and reported separately. Distinct components are then
glued at single vertices, which changes no connectivity question any
solver asks. Finally, edges that pairwise form 2-cuts are equivalence
classes ("edge groups"); each group collapses to a single deputy edge
carrying the group's total weight. The result is 3-edge-connected
(possibly one vertex with loops), and monitor sets chosen on it lift back
to the original graph with identical gain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import FlowmonError, ValidationError
from .graph import (
    EdgeRecord,
    Graph,
    bridge_ids,
    bridges,
    component_count,
    component_labels,
    cut_labels,
    make_mask,
)
from .weights import Weight


@dataclass(frozen=True)
class ReductionMap:
    """Correspondence between an original graph and its reduced form.

    vertex_map: original vertex -> reduced vertex.
    group_of: original edge -> group index (absent for stripped bridges).
    deputy_of_group: group index -> edge id in the reduced graph.
    orig_edge_of_reduced: reduced edge id -> the original id of its deputy.
    stripped_bridges: original bridge edges, known to carry zero flow.
    """

    vertex_map: tuple[int, ...]
    group_of: Mapping[int, int]
    deputy_of_group: tuple[int, ...]
    orig_edge_of_reduced: tuple[int, ...]
    stripped_bridges: frozenset[int]


def strip_bridges(g: Graph) -> tuple[Graph, frozenset[int]]:
    """Remove every bridge; the result is bridgeless after one pass.

    Removing a bridge can only split off subgraphs along cut edges that
    were already bridges, so no second pass is needed; a post-check
    raises FlowmonError if the fixed point is not reached anyway.
    Surviving edges are renumbered densely in their original order.
    """
    dropped = bridges(g)
    kept = [e for e in g.edges if e.id not in dropped]
    out = Graph(
        g.vertex_count,
        [EdgeRecord(i, e.u, e.v, e.weight) for i, e in enumerate(kept)],
    )
    if bridge_ids(out):
        raise FlowmonError("bridge stripping did not reach a fixed point")
    return out, dropped


def merge_components(g: Graph) -> tuple[Graph, tuple[int, ...]]:
    """Glue all components together at single vertices.

    The lowest-indexed vertex of every component is identified with
    vertex 0 (the lowest vertex of the first component); remaining
    vertices are renumbered densely. Edge ids and weights are unchanged.
    """
    n = g.vertex_count
    if n == 0:
        return g, ()
    labels = component_labels(g)
    lowest = {}
    for v in range(n):
        lowest.setdefault(labels[v], v)
    absorbed = {lowest[c] for c in lowest if c != 0}
    vmap = []
    nxt = 0
    for v in range(n):
        if v in absorbed:
            vmap.append(0)
        else:
            vmap.append(nxt)
            nxt += 1
    out = Graph(
        nxt,
        [EdgeRecord(e.id, vmap[e.u], vmap[e.v], e.weight) for e in g.edges],
    )
    return out, tuple(vmap)


def edge_groups(g: Graph) -> tuple[frozenset[int], ...]:
    """Equivalence classes of "these two edges form a 2-cut".

    Requires a 2-edge-connected input. On such a graph two edges form a
    2-cut iff their cut labels are equal, so the classes are the groups
    of equal labels, in order of their lowest edge id. One linear pass.
    Self-loops have a bit of their own and are always singletons.
    """
    labels = cut_labels(g)
    if component_count(g) > 1 or 0 in labels:
        raise ValidationError("edge groups are defined on 2-edge-connected graphs")
    classes: dict[int, list[int]] = {}
    for e, label in enumerate(labels):
        classes.setdefault(label, []).append(e)
    return tuple(frozenset(cls) for cls in classes.values())


def contract_groups(g: Graph) -> tuple[Graph, ReductionMap]:
    """Collapse every multi-edge group to its deputy.

    The deputy is the highest-id group member and carries the group's
    total weight; all other members are contracted (their endpoints
    identified). Collapsing a whole cycle to one vertex with a loop is
    legal and handled. The output is 3-edge-connected.
    """
    classes = edge_groups(g)
    deputy_orig = [max(cls) for cls in classes]
    group_of = {e: gi for gi, cls in enumerate(classes) for e in cls}
    # contracting the non-deputy members merges exactly the vertices they
    # connect; components come numbered by their lowest original vertex
    vmap = component_labels(g, make_mask(g, deputy_orig))

    group_weight = [Weight(sum(g.weights_micros[e] for e in cls)) for cls in classes]
    survivors = sorted(deputy_orig)
    new_id_of_orig = {orig: i for i, orig in enumerate(survivors)}
    records = []
    for i, orig in enumerate(survivors):
        rec = g.edges[orig]
        records.append(EdgeRecord(i, vmap[rec.u], vmap[rec.v], group_weight[group_of[orig]]))
    reduced = Graph(max(vmap, default=-1) + 1, records)
    rmap = ReductionMap(
        vertex_map=tuple(vmap),
        group_of=group_of,
        deputy_of_group=tuple(new_id_of_orig[d] for d in deputy_orig),
        orig_edge_of_reduced=tuple(survivors),
        stripped_bridges=frozenset(),
    )
    return reduced, rmap


def lift_monitors(m_reduced: Iterable[int], rmap: ReductionMap) -> frozenset[int]:
    """Map reduced-graph monitor edges back to original edge ids.

    Every reduced edge is the deputy of its group and lifts to the
    deputy's original id, so the lifted set has the same size and, on the
    bridge-stripped merged graph, the same gain.
    """
    table = rmap.orig_edge_of_reduced
    out = set()
    for r in m_reduced:
        if not 0 <= r < len(table):
            raise ValidationError(f"edge {r} is not a deputy edge of the reduced graph")
        out.add(table[r])
    return frozenset(out)


def preprocess(g: Graph) -> tuple[Graph, ReductionMap]:
    """strip_bridges, then merge_components, then contract_groups.

    Output is 3-edge-connected; a degenerate single vertex with loops is
    possible and legal. The returned map composes all three stages and
    speaks original vertex/edge ids throughout.
    """
    stripped_g, dropped = strip_bridges(g)
    kept = [e.id for e in g.edges if e.id not in dropped]
    merged_g, vmap_merge = merge_components(stripped_g)
    reduced, cmap = contract_groups(merged_g)

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
