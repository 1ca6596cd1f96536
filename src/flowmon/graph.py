"""Weighted undirected multigraph and its connectivity primitives.

Parallel edges and self-loops are first class: an edge is identified by
its dense integer id, never by its endpoints. Graphs are immutable once
built. There is one traversal, search_forest: it takes a removal mask
rather than copying the graph and grows the depth-first forest that
every pass reads: component_labels (its trees), bridge_ids,
kernel_labels (whose forest flowsim.infer and random_circulation also
walk) and _label_forest, behind cut_labels, whose forest and labels give
reduce.preprocess all it reads of G. _forest_pieces labels every vertex
by its piece of such a forest cut at some of its tree edges.

The question "which edges does a monitor set M determine?" is answered by
cut-space labels (Pritchard & Thurimella, "Fast computation of small
cuts via cycle space sampling"): each edge gets an exact GF(2) vector,
and an edge is in M or is a bridge of G - M iff its label lies in the
span of the labels of M. Bridges have label 0, and two edges of a
bridgeless graph form a 2-cut iff their labels are equal. One linear
pass builds the labels, and span_search is the one evaluator over them:
every exhaustive step (each sigma_greedy batch, exact, and the hardness
decision) is one search over label residuals folded incrementally,
instead of a masked traversal per candidate. The search is a branch and
bound (Land & Doig, 1960): a prefix whose weight bound cannot beat the
best subset found so far is skipped, each prefix tries each distinct
folded residual once, and the answer is the one the full enumeration
gives.

The adjacency lists deliberately omit self-loops: a loop never affects
connectivity, components, or bridges, so traversals can skip it. Code
that needs loops (weights, kernel construction, flow sums) iterates the
edge list directly.

contract derives every graph built from another: reduce's, the kernel
graph and the hardness witness.
"""

from __future__ import annotations

from itertools import compress, count, repeat
from operator import itemgetter, not_
from typing import Iterable, NamedTuple, Sequence

from .errors import ValidationError
from .weights import Weight


class EdgeRecord(NamedTuple):
    """One edge. Like every flowmon record it is a named tuple: immutable,
    cheap to build (parsing and every contraction build one per edge),
    and equal to the plain tuple of its fields, (id, u, v, weight)."""

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
    """Immutable multigraph; vertex indices are 0..vertex_count-1."""

    __slots__ = ("vertex_count", "edges", "adjacency", "weights_micros")

    def __init__(self, vertex_count: int, edges: Iterable[EdgeRecord]):
        """Validate the records (each id equals its position, endpoints
        lie in range) and build the loop-free adjacency lists and the
        weight column, in one pass that unpacks each record once."""
        edges = tuple(edges)
        if vertex_count < 0:
            raise ValidationError("vertex_count must be non-negative")
        adj: list[list[tuple[int, int]]] = [[] for _ in range(vertex_count)]
        micros = []
        for i, (eid, u, v, w) in enumerate(edges):
            if eid != i:
                raise ValidationError(f"edge id {eid} must equal its position {i}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValidationError(f"edge {i} endpoints ({u},{v}) out of range")
            if u != v:
                adj[u].append((v, i))
                adj[v].append((u, i))
            micros.append(w.micros)
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", edges)
        # tuple() of a list, not of a generator: on CPython 3.11, tuples
        # grown from generators past 10 items left memory the allocator
        # kept, and peak RSS rose by 2 MiB over 12,000 graphs of 11-18 edges
        object.__setattr__(self, "adjacency", tuple([tuple(a) for a in adj]))
        object.__setattr__(self, "weights_micros", tuple(micros))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @classmethod
    def build(cls, vertex_count: int, edges: Iterable[tuple]) -> "Graph":
        """Build from (u, v) or (u, v, w) tuples.

        A weight may be a Weight, a whole number of units, or a decimal
        string; bare (u, v) pairs get unit weight.
        """
        records = []
        for i, item in enumerate(edges):
            if len(item) == 2:
                u, v = item
                w = Weight.from_units(1)
            else:
                u, v, w = item
                if isinstance(w, int):
                    w = Weight.from_units(w)
                elif isinstance(w, str):
                    w = Weight.parse(w)
            records.append(EdgeRecord(i, u, v, w))
        return cls(vertex_count, records)

    def total_weight(self) -> Weight:
        return Weight(sum(self.weights_micros))

    def check_edge_ids(self, ids: Iterable[int]) -> None:
        m = len(self.edges)
        for e in ids:
            if not (0 <= e < m):
                raise ValidationError(f"edge id {e} out of range for graph with {m} edges")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.vertex_count == other.vertex_count
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.edges))

    def __reduce__(self):
        # pickle rebuilds through __init__, which validates the records;
        # the default would set the slots, which __setattr__ refuses
        return Graph, (self.vertex_count, self.edges)

    def __repr__(self) -> str:
        return f"Graph(n={self.vertex_count}, m={len(self.edges)})"


def contract(
    g: Graph, vertex_map: Sequence[int], kept: Iterable[int], weights: Iterable[Weight] | None = None
) -> Graph:
    """The graph on max(vertex_map) + 1 vertices whose edges are g's
    `kept` edges, renumbered 0, 1, ... in the order given: each endpoint
    mapped through vertex_map, each weight kept or, given `weights`,
    taken in step from it. Every graph flowmon derives from another is
    built here, through edge_records."""
    rows = list(map(g.edges.__getitem__, kept))
    relabel = vertex_map.__getitem__
    us = map(relabel, map(itemgetter(1), rows))
    vs = map(relabel, map(itemgetter(2), rows))
    ws = map(itemgetter(3), rows) if weights is None else weights
    return Graph(max(vertex_map, default=-1) + 1, edge_records(us, vs, ws))


def make_mask(g: Graph, removed_ids: Iterable[int]) -> bytearray:
    mask = bytearray(len(g.edges))
    for e in removed_ids:
        mask[e] = 1
    return mask


def component_labels(g: Graph, removed: Sequence[int] | None = None) -> list[int]:
    """Label vertices 0..c-1 by component: the trees of search_forest,
    numbered by their roots (each component's lowest vertex).

    `removed` is a per-edge 0/1 mask of edges to ignore.
    """
    order, entry = search_forest(g, removed)
    return _forest_pieces(g, order, entry, bytes(len(g.edges)))


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
    ancestors. An explicit stack of adjacency iterators replaces
    recursion, so path-shaped graphs of any depth are fine. With no
    mask every edge is followed, without a lookup per edge.
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


def _forest_pieces(g: Graph, order: list[int], entry: list[int], cut: bytes) -> list[int]:
    """Each vertex's piece of the depth-first forest (order, entry) cut at
    the tree edges the per-edge mask `cut` marks, numbered 0, 1, ... by
    lowest vertex. The preorder walk hands each vertex its parent's piece
    top unless its entry edge is cut; vertex order then numbers the tops."""
    edges = g.edges
    top = list(range(g.vertex_count))
    for v in order:
        eid = entry[v]
        if eid >= 0 and not cut[eid]:
            e = edges[eid]
            top[v] = top[e.u + e.v - v]
    number = {t: c for c, t in enumerate(dict.fromkeys(top))}
    return list(map(number.__getitem__, top))


def _forest_bridges(g: Graph, removed: Sequence[int]) -> tuple[list[int], list[int], list[int]]:
    """search_forest's order and entry edges on G minus the masked edges,
    and the bridges, the tree edges no unmasked edge covers, leaves first.

    Each unmasked non-tree edge of a depth-first forest joins a vertex to
    an ancestor and covers the tree path between them: it adds +1 at its
    later end in preorder and -1 at the earlier. One leaf-to-root pass
    sums these over the subtree below each tree edge. Tree edges are told
    apart by id, so a parallel edge covers its twin and neither is a
    bridge. Self-loops cover nothing and are never bridges.
    """
    order, entry = search_forest(g, removed)
    pos = [0] * g.vertex_count
    for i, v in enumerate(order):
        pos[v] = i
    edges = g.edges
    cover = [0] * g.vertex_count
    for eid, u, v, _ in edges:
        if removed[eid] or u == v or entry[u] == eid or entry[v] == eid:
            continue
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
            e = edges[eid]
            cover[e.u + e.v - v] += cover[v]
    return order, entry, out


def bridge_ids(g: Graph, removed: Sequence[int] | None = None) -> list[int]:
    """Bridges of the graph minus the masked edges, as a list of edge ids,
    read off the cover counts of one depth-first forest (_forest_bridges)."""
    return _forest_bridges(g, bytes(len(g.edges)) if removed is None else removed)[2]


def kernel_labels(
    g: Graph, monitors: Iterable[int]
) -> tuple[list[int], list[int], list[int], list[int]]:
    """search_forest's order and entry edges on G - M, the bridges B of
    G - M, and a component label per vertex of G - M - B, numbered by
    lowest vertex as component_labels numbers them.

    All come off the one depth-first forest of G - M that finds B: no
    edge covers a bridge, so the components of G - M - B are the pieces
    of the forest cut at the bridges (_forest_pieces, with B added to
    the monitor mask). The labels name the kernel vertices; each bridge
    joins two distinct labels, and the bridges form a forest on them.
    The two sides of a bridge in G - M are the forest's subtree below it
    and the rest of that tree.
    """
    mask = make_mask(g, monitors)
    order, entry, exposed = _forest_bridges(g, mask)
    for e in exposed:
        mask[e] = 1
    return order, entry, exposed, _forest_pieces(g, order, entry, mask)


def gain(g: Graph, monitors: Iterable[int]) -> Weight:
    """Total weight of the monitor edges plus the bridges they expose.

    Placing monitors on M makes the flow known on M itself and on every
    bridge of G - M; this is the objective every solver maximizes.
    """
    mon = frozenset(monitors)
    g.check_edge_ids(mon)
    mask = make_mask(g, mon)
    w = g.weights_micros
    total = sum(w[e] for e in mon) + sum(w[e] for e in bridge_ids(g, mask))
    return Weight(total)


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
    _, entry, labels, _ = _label_forest(g)
    if entry.count(-1) != 1:  # the forest has one tree
        return False
    return c == 1 or 0 not in labels and (c == 2 or len(set(labels)) == len(labels))


def _label_forest(g: Graph) -> tuple[list[int], list[int], list[int], list[int]]:
    """search_forest's order and entry edges on g, the cut label of every
    edge (see cut_labels) and the ascending ids of the edges outside the
    forest, the i-th labelled 1 << i; preprocess reads all it needs off it."""
    order, entry = search_forest(g)
    edges = g.edges
    in_forest = bytearray(len(edges))
    for eid in entry:
        if eid >= 0:
            in_forest[eid] = 1
    nontree = list(compress(range(len(edges)), map(not_, in_forest)))
    labels = [0] * len(edges)
    acc = [0] * g.vertex_count
    bit = 1
    for eid in nontree:
        _, u, v, _ = edges[eid]
        labels[eid] = bit
        acc[u] ^= bit
        acc[v] ^= bit
        bit <<= 1
    for v in reversed(order):
        eid = entry[v]
        if eid >= 0:
            labels[eid] = acc[v]
            # two attribute reads beat unpacking the record here
            e = edges[eid]
            acc[e.u if e.v == v else e.v] ^= acc[v]
    return order, entry, labels, nontree


def cut_labels(g: Graph) -> list[int]:
    """Exact cut-space label of every edge, as a Python int over GF(2).

    Every edge outside the depth-first forest (self-loops included) gets its
    own bit, and a forest edge gets the XOR of the bits of the
    fundamental cycles through it, found by one leaf-to-root pass. A set
    of edges is a cut of G exactly when its labels XOR to 0, so bridges
    get 0 and an edge is determined by a monitor set M iff its label
    lies in span(labels(M)).
    """
    return _label_forest(g)[2]


def fold_residual(residuals: Sequence[int], r: int) -> list[int]:
    """The residuals taken modulo r as well, where r is reduced modulo the
    same span (one of the residuals, say).

    The top bit of r is the pivot: r is XORed into every residual with
    that bit set. Each residual then has every pivot bit clear, and two
    residuals are equal iff their difference lies in the span folded in
    so far, so they name cosets. A zero r changes nothing.
    """
    if not r:
        return list(residuals)
    b = r.bit_length() - 1
    return [x ^ r if x >> b & 1 else x for x in residuals]


def _caps(coset: dict[int, int], val: int, need: int, total: int) -> tuple[int, int, int]:
    """Upper bounds for a prefix worth val, with `need` picks to go,
    whose cosets outside its span weigh coset[...] (val plus their sum
    is total): the most any completion reaches, the most after a
    nonzero pick r less coset[r], and the most after a zero pick.

    need more picks bring at most 2^need - 1 cosets into the span, r's
    own among them for a nonzero r, and a zero pick leaves need - 1
    picks, so each bound is val plus the largest 2^need - 1, 2^need - 2
    or 2^(need-1) - 1 table weights. They are read off one sorted copy
    of the table's weights, a sort that stays in C; when even the
    smallest count covers the table, every bound is the total and
    nothing is sorted.
    """
    half = (1 << need - 1) - 1
    if half >= len(coset):
        return total, total, total
    top = sorted(coset.values(), reverse=True)[: 2 * half + 1]
    return val + sum(top), val + sum(top[: 2 * half]), val + sum(top[:half])


def span_search(
    residuals: Sequence[int], weights: Sequence[int], size: int, stop: int
) -> tuple[int, tuple[int, ...], list[int]]:
    """The best subset of `size` positions, first in combinations order.

    A subset is worth the total weight of the positions whose residual
    lies in the span of its own residuals. Returns the best value, the
    subset and the residuals folded modulo its span (the positions it
    collects read 0). The search ends at the first value that reaches
    `stop`; needs size <= len(residuals) and weights >= 0.

    Depth-first over prefixes with an explicit stack, so any size is
    fine. Each prefix keeps the residuals after its last position folded
    modulo its span, and a table of summed weight per residual outside
    the span: adding a pick r is worth table[r], and nothing if r is 0.
    The last two picks r, z are read off the table without folding: z
    adds table[z] + table[z ^ r] unless it is 0 or r, and the first
    maximum over z completes the prefix. A prefix that spans everything
    takes the next contiguous positions, since every completion is worth
    the same.

    Branch and bound: each prefix keeps two bounds from _caps, computed
    once a completed subset gives a value to beat. A pick is skipped,
    with no fold and no pair read, when its bound is at most the best
    value so far; for the last two picks r, z that bound is value +
    table[r] + the two largest weights, or value + the largest if r is
    0. A folded prefix is pushed only when its own bound beats the best
    value. The bounds hold because the weights are non-negative. A
    skipped subset is worth at most the best value, and only a strictly
    greater value replaces the best, so the value, the subset (still the
    first best in combinations order) and the stop are those of the full
    enumeration.

    Each prefix also tries each distinct residual once: a position whose
    residual (zero included) equals one an earlier position of the same
    prefix already tried is skipped with no bound check, fold or pair
    read. Swapping it for that earlier position q leaves the span alone,
    so every subset P + {p} + R is worth exactly P + {q} + R, which
    comes earlier in combinations order and was already read or skipped
    by a bound. The value, the subset and the stop are again those of
    the full enumeration.
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
        total = sum(weights)
        # frames[d]: a prefix of d picks, [value, table, tail, offset, bound
        # after a nonzero pick less its table weight, bound after a zero
        # pick, residuals tried]; the tail holds the last len(tail)
        # positions. A prefix pushed before the first subset completes,
        # when there is nothing to beat, has None for bounds until its
        # next pick is checked.
        frames = [[val, coset, list(residuals), 0, None, None, set()]]
    picks: list[int] = []
    while frames:
        frame = frames[-1]
        val, coset, tail, off, pair, lone, tried = frame
        need = size - len(picks)
        j = n - len(tail) + off
        if j > n - need:
            frames.pop()
            if picks:
                picks.pop()
            continue
        frame[3] = off + 1
        r = tail[off]
        if r in tried:
            continue
        tried.add(r)
        if best >= 0:
            if pair is None:
                frame[4:6] = pair, lone = _caps(coset, val, need, total)[1:]
            if (pair + coset[r] if r else lone) <= best:
                continue
        if need == 2:
            if r:
                val += coset[r]
                gains = [
                    coset.get(z, 0) + coset.get(z ^ r, 0) if z and z != r else 0
                    for z in tail[off + 1:]
                ]
            else:
                gains = [coset.get(z, 0) for z in tail[off + 1:]]
            top = max(gains)
            if val + top <= best:
                continue
            best, best_pick = val + top, (*picks, j, j + 1 + gains.index(top))
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
            if coset:
                cap, pair, lone = (
                    _caps(coset, val, need - 1, total) if best >= 0 else (total, None, None)
                )
                if cap > best:
                    rest = fold_residual(tail[off + 1:], r) if r else tail[off + 1:]
                    picks.append(j)
                    frames.append([val, coset, rest, 0, pair, lone, set()])
                continue
            if val <= best:
                continue
            best, best_pick = val, (*picks, *range(j, j + need))
        if best >= stop:
            break
    folded_res = list(residuals)
    for j in best_pick:
        if folded_res[j]:
            folded_res = fold_residual(folded_res, folded_res[j])
    return best, best_pick, folded_res


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
    for eid, u, v, _ in g.edges:
        ru, rv = _find_root(parent, u), _find_root(parent, v)
        if ru != rv:
            parent[ru] = rv
            chosen.append(eid)
    return frozenset(chosen)
