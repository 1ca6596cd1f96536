"""Instance preprocessing: strip bridges, merge components, contract
2-cut edge groups, all read off one deputy view (cutspace.deputies).

A bridge of the input graph can only ever carry zero flow, so bridges are
removed up front and reported separately. Distinct components are then
glued at single vertices, which changes no connectivity question any
solver asks. Finally, edges that pairwise form 2-cuts are equivalence
classes ("edge groups"); each group collapses to a single deputy edge
carrying the group's total weight. The result is 3-edge-connected
(possibly one vertex with loops), and monitor sets chosen on it lift back
to the original graph with identical gain.

Every graph built here comes from one graph.contract call, and
_glue_at_zero numbers the glued vertices for merging and preprocess.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, count
from typing import Callable, Iterable, Mapping, NamedTuple

from .cutspace import _label_forest, _label_groups, deputies
from .errors import FlowmonError, ValidationError
from .graph import Graph, _find_root, _forest_pieces, bridge_ids, component_labels, contract


class ReductionMap(NamedTuple):
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
    dropped = frozenset(bridge_ids(g))
    kept = [e for e in range(len(g.weights_micros)) if e not in dropped]
    out = contract(g, range(g.vertex_count), kept)
    if bridge_ids(out):
        raise FlowmonError("bridge stripping did not reach a fixed point")
    return out, dropped


def _glue_at_zero(vertices: Iterable[int], component: Callable[[int], int]) -> dict[int, int]:
    """A number for each distinct vertex, in order of first appearance:
    the first vertex of each component is 0, where the components are
    glued, and the rest count up from 1."""
    name = dict.fromkeys(vertices, 0)
    met = set()
    rest = count(1)
    for v in name:
        c = component(v)
        if c in met:
            name[v] = next(rest)
        met.add(c)
    return name


def merge_components(g: Graph) -> tuple[Graph, tuple[int, ...]]:
    """Glue all components together at single vertices.

    The lowest-indexed vertex of every component is identified with
    vertex 0 (the lowest vertex of the first component); remaining
    vertices are renumbered densely. Edge ids and weights are unchanged.
    """
    vmap = tuple(_glue_at_zero(range(g.vertex_count), component_labels(g).__getitem__).values())
    return contract(g, vmap, range(len(g.weights_micros))), vmap


def edge_groups(g: Graph) -> tuple[frozenset[int], ...]:
    """Equivalence classes of "these two edges form a 2-cut".

    Requires a 2-edge-connected input. On such a graph two edges form a
    2-cut iff their cut labels are equal, so the classes are the groups
    of equal labels, in order of their lowest edge id. One linear pass.
    Self-loops have a bit of their own and are always singletons.
    """
    _, entry, labels, _ = _label_forest(g)
    if entry.count(-1) > 1 or 0 in labels:
        raise ValidationError("edge groups are defined on 2-edge-connected graphs")
    return tuple(frozenset(cls) for cls in _label_groups(labels))


def contract_groups(g: Graph) -> tuple[Graph, ReductionMap]:
    """Collapse every edge group to its deputy, the highest-id member,
    carrying the group's total weight. Raises ValidationError unless g is
    connected and bridgeless, where preprocess's one label pass strips and
    merges nothing and so is this contraction."""
    edge_groups(g)
    return preprocess(g)


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
    """strip_bridges, merge_components and contract_groups as one
    contraction, read off g's deputy view (cutspace.deputies: one
    labelled depth-first forest) and built as one graph.

    Bridges are the zero labels. Stripping them and gluing components
    changes no cut, so the edge groups are the equal non-zero labels.
    No edge covers a bridge, so the reduced vertices, the components of
    G - B - deputies, are the pieces of the forest cut at the bridges and
    the tree deputies (graph._forest_pieces), joined across the non-tree
    edges that are not deputies (at most the cycle rank of them). The
    tree deputies join those into the components of G - B, which
    merging glues at vertex 0. Output is 3-edge-connected; a single
    vertex with loops is possible. The map speaks original ids.
    """
    order, entry, _, nontree, groups, ids, weights, stripped = deputies(g)
    cut = bytearray(len(g.weights_micros))  # the bridges and the deputies
    for e in chain(stripped, ids):
        cut[e] = 1

    # the pieces, numbered by lowest vertex, joined by union-find across
    # the non-tree edges left uncut (no non-tree edge has a zero label);
    # each reduced vertex, a union of pieces, is first met at its lowest
    head = _forest_pieces(g, order, entry, cut)
    parent = list(range(len(head)))
    us, vs = g.us, g.vs
    for eid in nontree:
        if not cut[eid]:
            parent[_find_root(parent, head[us[eid]])] = _find_root(parent, head[vs[eid]])
    reduced = [_find_root(parent, p) for p in range(max(head, default=-1) + 1)]
    # the tree deputies join the reduced vertices into the components of
    # G - B, the pieces of the forest cut at the bridges alone; a non-tree
    # deputy joins two vertices of one such piece and is skipped. Merging
    # glues the lowest reduced vertex of each component to vertex 0
    for eid in ids:
        a, b = us[eid], vs[eid]
        if entry[a] == eid or entry[b] == eid:
            parent[_find_root(parent, head[a])] = _find_root(parent, head[b])
    name = _glue_at_zero(reduced, partial(_find_root, parent))
    piece_name = list(map(name.__getitem__, reduced))
    vertex_map = tuple(map(piece_name.__getitem__, head))

    # the reduced edges: the deputies in ascending id, with group weights
    new_id = {orig: i for i, orig in enumerate(ids)}
    group_of = {e: gi for gi, cls in enumerate(groups) for e in cls}
    deputy_of_group = tuple(new_id[cls[-1]] for cls in groups)
    rmap = ReductionMap(vertex_map, group_of, deputy_of_group, tuple(ids), stripped)
    return contract(g, vertex_map, ids, weights), rmap
