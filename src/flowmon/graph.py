"""Weighted undirected multigraph and its connectivity primitives.

Parallel edges and self-loops are first class: an edge is identified by
its dense integer id, never by its endpoints. Graphs are immutable once
built, and store their edges as columns indexed by id: the endpoints us
and vs and the weights in millionths. Graph(n, us, vs, weights_micros)
is the one constructor, and the parsers, contract, Graph.build and
unpickling all pass its checks; one of them bounds the weights' total
by MAX_MICROS, so no weight sum over a graph can overflow partway
through a solve. The EdgeRecord view (Graph.edges) and the adjacency
lists are built from the columns on first use, so a graph that is only
printed gets neither. There is one traversal, search_forest: it takes a
removal mask rather than copying the graph and grows the depth-first
forest that every pass reads: component_labels (its trees), bridge_ids
and the cut-space labels of cutspace. _forest_bridges finds the
bridges on that forest. _known is the traversal side's one answer to
"which edges does this monitor set determine?": the mask of M and the
bridges of G - M, with the forest that found them; gain sums it,
kernel.kernel_graph contracts it and flowsim.infer walks its forest.
_forest_pieces labels every vertex by its piece of such a forest cut
at some of its tree edges.

The adjacency lists deliberately omit self-loops: a loop never affects
connectivity, components, or bridges, so traversals can skip it. Code
that needs loops (weights, kernel construction, flow sums) reads the
columns directly, as every linear pass does.

contract derives every graph built from another: reduce's, the kernel
graph and the hardness witness.
"""

from __future__ import annotations

from itertools import compress, count, repeat
from operator import not_
from typing import Iterable, NamedTuple, Sequence

from .errors import ValidationError
from .weights import SCALE, Weight, check_micros


class EdgeRecord(NamedTuple):
    """One edge. Like every flowmon record it is a named tuple: immutable
    and equal to the plain tuple of its fields, (id, u, v, weight). A
    Graph keeps its edges as columns; it builds these records only when
    its edges view is first read."""

    id: int
    u: int
    v: int
    weight: Weight

    @property
    def is_loop(self) -> bool:
        return self.u == self.v


def edge_records(us: Iterable[int], vs: Iterable[int], weights: Iterable[Weight]) -> list[EdgeRecord]:
    """EdgeRecords with ids 0, 1, ... from endpoint and weight columns,
    built in C: tuple.__new__ copies each tuple zip yields, so no
    Python-level constructor runs per edge."""
    return list(map(tuple.__new__, repeat(EdgeRecord), zip(count(), us, vs, weights)))


class Graph:
    """Immutable multigraph; vertex indices are 0..vertex_count-1.

    The edges are three columns indexed by edge id: the endpoints `us`
    and `vs` and the weights in millionths, `weights_micros`. The edges
    view (EdgeRecords) and the adjacency lists are built from the
    columns when first read, and kept."""

    __slots__ = ("vertex_count", "us", "vs", "weights_micros", "_edges", "_adjacency")

    def __init__(
        self, vertex_count: int, us: Sequence[int], vs: Sequence[int], weights_micros: Sequence[int]
    ):
        """Check the columns and keep them as tuples: a non-negative
        vertex count, one length, every endpoint in 0..vertex_count-1, no
        negative weight and a total within MAX_MICROS, so that no sum of a
        graph's weights can overflow. The checks are C-level min, max and
        sum; only a failure looks for the bad edge. Pass lists: a tuple
        grown from an iterator can keep allocator memory (see adjacency)."""
        n, us, vs, micros = vertex_count, tuple(us), tuple(vs), tuple(weights_micros)
        if n < 0:
            raise ValidationError("vertex_count must be non-negative")
        if not len(us) == len(vs) == len(micros):
            raise ValidationError("the edge columns must have one length")
        if us and (min(min(us), min(vs)) < 0 or max(max(us), max(vs)) >= n):
            i = next(i for i, u, v in zip(count(), us, vs) if not (0 <= u < n and 0 <= v < n))
            raise ValidationError(f"edge {i} endpoints ({us[i]},{vs[i]}) out of range")
        check_micros(min(micros, default=0))  # no weight is negative
        check_micros(sum(micros))  # and their total fits MAX_MICROS
        for name, value in zip(self.__slots__, (n, us, vs, micros, None, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def edges(self) -> tuple[EdgeRecord, ...]:
        """The edges as EdgeRecords in id order, built from the columns
        on first read (edge_records), one Weight per distinct weight."""
        if self._edges is None:
            micros = self.weights_micros
            weight = {w: Weight(w) for w in set(micros)}
            weights = map(weight.__getitem__, micros)
            object.__setattr__(self, "_edges", tuple(edge_records(self.us, self.vs, weights)))
        return self._edges

    @property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Each vertex's (neighbour, edge id) pairs, loops left out, in
        descending id order, built on first read: search_forest pops the
        lowest id first."""
        if self._adjacency is None:
            adj: list[list[tuple[int, int]]] = [[] for _ in range(self.vertex_count)]
            m = len(self.us)
            for eid, u, v in zip(range(m - 1, -1, -1), reversed(self.us), reversed(self.vs)):
                if u != v:
                    adj[u].append((v, eid))
                    adj[v].append((u, eid))
            # tuple() of a list, not of a generator: on CPython 3.11, tuples
            # grown from generators past 10 items left memory the allocator
            # kept, and peak RSS rose by 2 MiB over 12,000 graphs of 11-18 edges
            object.__setattr__(self, "_adjacency", tuple([tuple(a) for a in adj]))
        return self._adjacency

    @classmethod
    def build(cls, vertex_count: int, edges: Iterable[tuple]) -> "Graph":
        """Build from (u, v) or (u, v, w) tuples.

        A weight may be a Weight, a whole number of units, or a decimal
        string; bare (u, v) pairs get unit weight.
        """
        us, vs, micros = [], [], []
        for item in edges:
            if len(item) == 2:
                (u, v), w = item, SCALE
            else:
                u, v, w = item
                if isinstance(w, int):
                    w *= SCALE
                elif isinstance(w, str):
                    w = Weight.parse(w).micros
                else:
                    w = w.micros
            us.append(u)
            vs.append(v)
            micros.append(w)
        return cls(vertex_count, us, vs, micros)

    def total_weight(self) -> Weight:
        return Weight(sum(self.weights_micros))

    def check_edge_ids(self, ids: Iterable[int]) -> None:
        m = len(self.weights_micros)
        for e in ids:
            if not (0 <= e < m):
                raise ValidationError(f"edge id {e} out of range for graph with {m} edges")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.vertex_count == other.vertex_count
            and self.us == other.us
            and self.vs == other.vs
            and self.weights_micros == other.weights_micros
        )

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.us, self.vs, self.weights_micros))

    def __reduce__(self):
        # pickle rebuilds from the columns through __init__, which checks
        # them; the default would set the slots, which __setattr__ refuses
        return Graph, (self.vertex_count, self.us, self.vs, self.weights_micros)

    def __repr__(self) -> str:
        return f"Graph(n={self.vertex_count}, m={len(self.weights_micros)})"


def contract(
    g: Graph, vertex_map: Sequence[int], kept: Iterable[int], weights: Iterable[int] | None = None
) -> Graph:
    """The graph on max(vertex_map) + 1 vertices whose edges are g's
    `kept` edges, renumbered 0, 1, ... in the order given: each endpoint
    mapped through vertex_map, each weight kept or, given `weights` in
    millionths, taken in step from it. Every graph flowmon derives from
    another is built here, column by column, with no record per edge,
    and the Graph constructor checks it like any other."""
    kept = list(kept)
    relabel = vertex_map.__getitem__
    us = list(map(relabel, map(g.us.__getitem__, kept)))
    vs = list(map(relabel, map(g.vs.__getitem__, kept)))
    micros = list(map(g.weights_micros.__getitem__, kept) if weights is None else weights)
    return Graph(max(vertex_map, default=-1) + 1, us, vs, micros)


def make_mask(g: Graph, removed_ids: Iterable[int]) -> bytearray:
    """The per-edge 0/1 mask of removed_ids, each in 0..m-1 (check_edge_ids)."""
    ids = list(removed_ids)
    g.check_edge_ids(ids)
    mask = bytearray(len(g.weights_micros))
    for e in ids:
        mask[e] = 1
    return mask


def component_labels(g: Graph, removed: Sequence[int] | None = None) -> list[int]:
    """Label vertices 0..c-1 by component: the trees of search_forest,
    numbered by their roots (each component's lowest vertex).

    `removed` is a per-edge 0/1 mask of edges to ignore.
    """
    order, entry = search_forest(g, removed)
    return _forest_pieces(g, order, entry, bytes(len(g.weights_micros)))


def component_count(g: Graph) -> int:
    """The number of components: the roots of search_forest's trees."""
    return search_forest(g)[1].count(-1)


def reachable_from(g: Graph, start: int, removed: Sequence[int]) -> list[bool]:
    """Vertices reachable from `start` ignoring masked edges: those that
    share its component label. Only the reference inference in the test
    oracles calls it."""
    labels = component_labels(g, removed)
    return [c == labels[start] for c in labels]


def search_forest(g: Graph, removed: Sequence[int] | None = None) -> tuple[list[int], list[int]]:
    """Depth-first forest of g minus the masked edges, grown from each
    unvisited vertex in index order.

    Returns the vertices in preorder (every vertex after its parent) and
    each vertex's entry edge id (-1 for roots); masked edges are never
    followed. Walking the order backwards visits every subtree before
    its parent. The search is depth-first, so every unmasked edge outside
    the forest that is not a loop joins a vertex to one of its
    ancestors. A vertex's whole adjacency is pushed on one explicit
    stack, lowest id on top, and a vertex is entered when it is first
    popped; so path-shaped graphs of any depth are fine, and each vertex
    is entered through the edge a recursive search, trying edges in id
    order, would enter it by.
    """
    n, adjacency = g.vertex_count, g.adjacency
    entry = [-1] * n
    seen = [False] * n
    order: list[int] = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        order.append(root)
        stack = list(adjacency[root])
        pop, push = stack.pop, stack.extend
        while stack:
            w, eid = pop()
            if not (seen[w] or (removed is not None and removed[eid])):
                seen[w] = True
                entry[w] = eid
                order.append(w)
                push(adjacency[w])
    return order, entry


def _forest_pieces(g: Graph, order: list[int], entry: list[int], cut: bytes) -> list[int]:
    """Each vertex's piece of the depth-first forest (order, entry) cut at
    the tree edges the per-edge mask `cut` marks, numbered 0, 1, ... by
    lowest vertex. The preorder walk hands each vertex its parent's piece
    top unless its entry edge is cut; vertex order then numbers the tops."""
    us, vs = g.us, g.vs
    top = list(range(g.vertex_count))
    for v in order:
        eid = entry[v]
        if eid >= 0 and not cut[eid]:
            top[v] = top[us[eid] + vs[eid] - v]
    number = dict(zip(dict.fromkeys(top), count()))
    return list(map(number.__getitem__, top))


def _forest_bridges(g: Graph, removed: Sequence[int]) -> tuple[list[int], list[int], list[int]]:
    """search_forest's order and entry edges on G minus the masked edges,
    and the bridges, the tree edges no unmasked edge covers, leaves first.

    Each unmasked non-tree edge of a depth-first forest joins a vertex to
    an ancestor and covers the tree path between them: it adds +1 at its
    later end in preorder and -1 at the earlier. One leaf-to-root pass
    sums these over the subtree below each tree edge. Tree edges are told
    apart by id, so a parallel edge covers its twin and neither is a
    bridge. A self-loop adds +1 and -1 at one vertex, so it covers
    nothing and is never a bridge.
    """
    order, entry = search_forest(g, removed)
    pos = [0] * g.vertex_count
    for i, v in enumerate(order):
        pos[v] = i
    us, vs = g.us, g.vs
    skip = bytearray(removed)  # the masked edges, then the tree edges too
    for eid in entry:
        if eid >= 0:
            skip[eid] = 1
    cover = [0] * g.vertex_count
    for eid in compress(range(len(skip)), map(not_, skip)):
        u, v = us[eid], vs[eid]
        if pos[u] < pos[v]:
            u, v = v, u
        cover[u] += 1
        cover[v] -= 1
    out: list[int] = []
    for v in reversed(order):
        eid = entry[v]
        if eid >= 0:
            if not cover[v]:
                out.append(eid)
            cover[us[eid] + vs[eid] - v] += cover[v]
    return order, entry, out


def bridge_ids(g: Graph, removed: Sequence[int] | None = None) -> list[int]:
    """Bridges of the graph minus the masked edges, as a list of edge ids,
    read off the cover counts of one depth-first forest (_forest_bridges)."""
    return _forest_bridges(g, bytes(len(g.weights_micros)) if removed is None else removed)[2]


def _known(g: Graph, monitors: Iterable[int]) -> tuple[bytearray, list[int], list[int], list[int]]:
    """What a monitor set M determines, off one _forest_bridges walk of
    G - M: the per-edge 0/1 mask of M and the bridges B of G - M, that
    walk's search_forest order and entry edges, and B, leaves first.

    The components of G - M - B are the pieces of that forest cut at the
    mask (_forest_pieces), numbered by lowest vertex as component_labels
    numbers them: the forest has no monitor edge, each of its trees spans
    a component of G - M, and no edge of G - M covers a bridge, so
    cutting the trees at B leaves pieces that no edge of G - M - B joins.
    They are the kernel vertices; each bridge joins two distinct pieces,
    and the bridges form a forest on them. The two sides of a bridge in
    G - M are the forest's subtree below it and the rest of that tree.
    """
    mask = make_mask(g, monitors)
    order, entry, exposed = _forest_bridges(g, mask)
    for e in exposed:
        mask[e] = 1
    return mask, order, entry, exposed


def gain(g: Graph, monitors: Iterable[int]) -> Weight:
    """Total weight of the monitor edges plus the bridges they expose.

    Placing monitors on M makes the flow known on M itself and on every
    bridge of G - M (_known); this is the objective every solver maximizes.
    """
    return Weight(sum(compress(g.weights_micros, _known(g, monitors)[0])))


def is_c_edge_connected(g: Graph, c: int) -> bool:
    """c-edge-connectivity for c in {1, 2, 3}, read off the cut labels.

    True iff the graph is connected and stays connected after removing
    any edge subset of size at most c-1: connected for c >= 1, no bridge
    (zero label) for c >= 2, and no 2-cut (two equal labels) for c = 3.
    Graphs with at most one vertex are c-edge-connected by convention.
    """
    if not 1 <= c <= 3:
        raise ValidationError("c must be 1, 2, or 3")
    if g.vertex_count <= 1:
        return True
    from .cutspace import deputies  # here, as cutspace imports graph
    d = deputies(g)
    if d.entry.count(-1) != 1:  # the forest has one tree
        return False
    return c == 1 or not d.stripped and (c == 2 or len(d.groups) == len(d.labels))


def _find_root(parent: list[int], x: int) -> int:
    """The root of x in the union-find forest `parent`, halving its path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def spanning_forest(g: Graph) -> frozenset[int]:
    """Maximal acyclic edge set: edges scanned in id order, accepted when
    they join two components. Deterministic; loops are never accepted."""
    parent = list(range(g.vertex_count))
    chosen = []
    for eid, u, v in zip(count(), g.us, g.vs):
        ru, rv = _find_root(parent, u), _find_root(parent, v)
        if ru != rv:
            parent[ru] = rv
            chosen.append(eid)
    return frozenset(chosen)
