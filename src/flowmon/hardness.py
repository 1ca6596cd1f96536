"""Hardness reduction from Clique and its desk-scale verifiers.

A Clique instance (G, q) on a connected simple graph maps to the decision
question "do k monitor edges exist exposing at least l bridges?" with
l = n - q and k = m - q(q-1)/2 - l. The verifiers here brute-force both
sides of that equivalence on small instances: exhaustively over canonical
(isomorphism-class) connected graphs up to 7 vertices, plus seeded random
connected graphs beyond that. The decision side counts, for each k-set,
the edges whose cut label lies in the set's span (cutspace.span_search,
or take_class at k = 1), not the bridges of a traversal per subset. A composition lemma used by
the reduction (sum of C(a_i, 2) over positive parts summing to n is
maximized exactly by one big part) is checked over every partition of
n, which covers every composition.
"""

from __future__ import annotations

import random
from itertools import combinations, count, cycle, islice, permutations
from math import comb
from typing import Iterable, Iterator, NamedTuple

from .cutspace import class_table, cut_labels, span_search, take_class
from .errors import Checked, SizeGuardError, ValidationError
from .generators import random_connected_multigraph
from .graph import Graph, component_count, contract
from .solvers import _check_exact_size, full_determination

CLIQUE_MAX_COMBOS = 5_000_000
# the partitions of 1..40 (215,307) take 2.5-2.8 s through lemma1_check
# on one Xeon vCPU; --lemma1 --max-n 41 is the first run refused
LEMMA1_MAX_N = 40


class ReductionInfeasible(ValidationError):
    """The derived parameters leave the decision question meaningless
    (it needs k, l > 0); no size-q clique can exist in this regime."""


def require_simple(g: Graph) -> None:
    seen = set()
    for eid, u, v in zip(count(), g.us, g.vs):
        if u == v:
            raise ValidationError(f"edge {eid} is a loop; a simple graph is required")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValidationError(f"edge {eid} duplicates {key}; a simple graph is required")
        seen.add(key)


class _CliqueInstance(NamedTuple):
    graph: Graph
    q: int


class CliqueInstance(Checked, _CliqueInstance):
    __slots__ = ()

    def _check(self) -> None:
        if self.q < 3:
            raise ValidationError("clique size q must be at least 3")
        if self.q > self.graph.vertex_count:
            raise ValidationError("clique size q exceeds the vertex count")
        require_simple(self.graph)
        if component_count(self.graph) != 1:
            raise ValidationError("clique instances must be connected")


class _DecInstance(NamedTuple):
    graph: Graph
    k: int
    l: int


class DecInstance(Checked, _DecInstance):
    __slots__ = ()

    def _check(self) -> None:
        if self.k < 0 or self.l < 0:
            raise ValidationError("k and l must be non-negative")


def reduce_clique(inst: CliqueInstance) -> DecInstance:
    """Map (G, q) to the decision instance (G, k, l) with l = n - q and
    k = m - C(q,2) - l; both must come out positive."""
    n = inst.graph.vertex_count
    m = len(inst.graph.weights_micros)
    l = n - inst.q
    k = m - comb(inst.q, 2) - l
    if k <= 0 or l <= 0:
        raise ReductionInfeasible(
            f"derived parameters k={k}, l={l} must both be positive"
        )
    return DecInstance(inst.graph, k, l)


def decide_flow_monitors(inst: DecInstance) -> bool:
    """Is there a set of exactly k edges whose removal leaves at least l
    bridges? Exhaustive over the k-subsets, behind exact's size guard
    (solvers._check_exact_size): the same C(m, k), limit and message.

    A k-set M leaves b bridges exactly when k + b edges have a cut label
    in the span of M's labels, so one span_search over the labels with
    unit weights counts them, and it stops at the first set reaching
    k + l; at k = 1 one read of the class table does (take_class). No
    subset needs a traversal.
    """
    g, k, l = inst.graph, inst.k, inst.l
    m = len(g.weights_micros)
    if k > m:
        return False
    _check_exact_size(m, k)
    if l == 0:
        return True
    labels, ones = cut_labels(g), [1] * m
    if k == 1:
        best = take_class(*class_table(labels, ones))[0]
    else:
        best = span_search(labels, ones, k, k + l)[0]
    return best >= k + l


def _neighbor_masks(g: Graph) -> list[int]:
    nb = [0] * g.vertex_count
    for u, v in zip(g.us, g.vs):
        nb[u] |= 1 << v
        nb[v] |= 1 << u
    return nb


def clique_witness(g: Graph, q: int) -> tuple[int, ...] | None:
    """The first q-clique of a simple graph in lexicographic vertex
    order, or None. Exhaustive over C(n, q) subsets, with a size guard."""
    require_simple(g)
    n = g.vertex_count
    if q > n:
        return None
    if comb(n, q) > CLIQUE_MAX_COMBOS:
        raise SizeGuardError(f"clique search over C({n},{q}) subsets refused")
    nb = _neighbor_masks(g)
    for vs in combinations(range(n), q):
        if all(nb[u] >> v & 1 for u, v in combinations(vs, 2)):
            return vs
    return None


def has_clique(g: Graph, q: int) -> bool:
    """Exhaustive clique test on a simple graph."""
    return clique_witness(g, q) is not None


def forward_witness(g: Graph, q: int, clique: Iterable[int]) -> frozenset[int]:
    """Constructive monitor set from a clique: contract the clique to one
    vertex and monitor the contraction's full_determination set, every
    edge outside its spanning forest, in G's ids. Leaves the forest edges
    as bridges of G - M."""
    cl = frozenset(clique)
    merged = min(cl)
    vmap = [merged if v in cl else v for v in range(g.vertex_count)]
    outside = [e for e, u, v in zip(count(), g.us, g.vs) if not (u in cl and v in cl)]
    return frozenset(map(outside.__getitem__, full_determination(contract(g, vmap, outside))))


def partitions(n: int, s: int) -> Iterator[tuple[int, ...]]:
    """Each partition of n into s positive parts once, as a non-increasing
    tuple. An explicit stack, so any s is fine."""
    stack = [((), n)]  # a non-increasing prefix and the sum still to place
    while stack:
        parts, rest = stack.pop()
        left = s - len(parts)
        if not left:
            if not rest:
                yield parts
            continue
        # the next part is at most the last one, leaves at least 1 for each
        # later part, and is at least their mean, since they are no larger
        top = min(parts[-1] if parts else rest, rest - left + 1)
        for a in range(max(1, -(-rest // left)), top + 1):
            stack.append((parts + (a,), rest - a))


def lemma1_check(n: int, s: int) -> bool:
    """Confirm that over the compositions of n into s positive parts, sum
    C(a_i, 2) is maximized exactly on the rearrangements of
    (n-s+1, 1, ..., 1). The sum depends only on the multiset of parts, so
    enumerating each partition once covers every composition: every one
    but the lemma's must fall short of its C(n-s+1, 2)."""
    if not 1 <= s <= n:
        raise ValidationError("need 1 <= s <= n")
    target = (n - s + 1,) + (1,) * (s - 1)
    most = comb(n - s + 1, 2)
    return all(shape == target or sum(comb(a, 2) for a in shape) < most for shape in partitions(n, s))


def canonical_connected_graphs(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of connected simple graphs
    on n labeled vertices, unit weights. Orbit enumeration over edge-set
    bitmasks; fine up to n = 7."""
    if n < 1:
        raise ValidationError("n must be positive")
    if n > 7:
        raise SizeGuardError("canonical enumeration supports n <= 7")
    pairs = list(combinations(range(n), 2))
    np = len(pairs)
    pair_index = {p: i for i, p in enumerate(pairs)}
    tables = []
    for perm in permutations(range(n)):
        tables.append(tuple(
            pair_index[tuple(sorted((perm[u], perm[v])))] for u, v in pairs
        ))
    seen = bytearray(1 << np)
    for mask in range(1 << np):
        if seen[mask]:
            continue
        for table in tables:
            image = 0
            rest = mask
            while rest:
                low = rest & -rest
                image |= 1 << table[low.bit_length() - 1]
                rest ^= low
            seen[image] = 1
        g = Graph.build(n, [pairs[i] for i in range(np) if mask >> i & 1])
        if component_count(g) == 1:
            yield g


class StarReport(NamedTuple):
    label: str
    instances: int
    checks: int
    mismatches: int

    @property
    def ok(self) -> bool:
        return self.mismatches == 0


def _star_report(label: str, graphs: Iterable[Graph]) -> StarReport:
    """The equivalence check over connected simple graphs, one check per
    admissible q; a mismatch is a q where the two answers differ."""
    instances = checks = mismatches = 0
    for g in graphs:
        instances += 1
        for q in range(3, g.vertex_count + 1):
            try:
                dec = reduce_clique(CliqueInstance(g, q))
            except ReductionInfeasible:
                continue
            checks += 1
            mismatches += has_clique(g, q) != decide_flow_monitors(dec)
    return StarReport(label, instances, checks, mismatches)


def verify_star_canonical(max_n: int) -> list[StarReport]:
    """Equivalence check over every connected simple graph on 4 to max_n
    vertices, one representative per isomorphism class (the question is
    isomorphism-invariant). It starts at 4 vertices: the one clique size
    on 3, q = 3, leaves l = n - q = 0, so no 3-vertex graph has a check."""
    return [
        _star_report(f"canonical n={n}", canonical_connected_graphs(n)) for n in range(4, max_n + 1)
    ]


def verify_star_random(count: int, seed: int = 0) -> StarReport:
    """Equivalence check over seeded random connected simple graphs on 7
    and 8 vertices in turn, with edge counts kept in the tractable band
    for the decision brute force."""
    rng = random.Random(seed)
    graphs = (
        random_connected_multigraph(
            n, rng.randint(n + 2, min(comb(n, 2), 2 * n - 1)), seed=rng.randrange(2**32), simple=True
        )
        for n in islice(cycle((7, 8)), count)
    )
    return _star_report("random n in [7, 8]", graphs)
