"""Kernel graph: the contraction that exposes a monitor set's structure.

For a monitor set M with exposed bridges B, contract every connected
component of G - M - B to one vertex; each edge of M or B survives as one
kernel edge with its weight preserved (loops and parallels arise
naturally). The kernel is the object the approximation analysis counts
on: its edge count obeys |E| <= k + |V| - 1, and the B-edges are exactly
its bridges and form a forest.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, NamedTuple

from .graph import Graph, edge_records, kernel_labels


class KernelGraph(NamedTuple):
    """graph: the contracted multigraph. component_of: original vertex ->
    kernel vertex. represents: kernel edge id -> original edge id."""

    graph: Graph
    component_of: tuple[int, ...]
    represents: tuple[int, ...]


def kernel_graph(g: Graph, monitors: Iterable[int]) -> KernelGraph:
    """Contract the components of G - M - bridges(G - M).

    Kernel vertices are numbered by each component's lowest original
    vertex, so output is canonical; kernel edges appear in original edge
    id order.
    """
    mon = frozenset(monitors)
    g.check_edge_ids(mon)
    _, _, extra, labels = kernel_labels(g, mon)
    ncomp = max(labels) + 1 if labels else 0
    kept = sorted(mon.union(extra))
    rows = list(map(g.edges.__getitem__, kept))
    relabel = labels.__getitem__
    records = edge_records(
        map(relabel, map(itemgetter(1), rows)),
        map(relabel, map(itemgetter(2), rows)),
        map(itemgetter(3), rows),
    )
    return KernelGraph(Graph(ncomp, records), tuple(labels), tuple(kept))


def check_kernel_bound(kg: KernelGraph, k: int) -> bool:
    """Edge-count bound |E| <= k + |V| - 1; holds for every kernel built
    from at most k monitors."""
    return len(kg.graph.edges) <= k + kg.graph.vertex_count - 1
