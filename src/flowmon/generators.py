"""Instance generators: tight-bound families, the worked inference
example, cycles, prisms, circulants, and seeded random multigraphs.

The tight families pit a stack of parallel edges against a cubic
component. A single-batch greedy solver keeps eating parallel edges worth
1+eps each (they never expose a bridge), while the optimum spends its
whole budget inside the cubic component and collects every edge there;
with the parallel weight raised to 1.5+eps the same trap catches the
two-at-a-time solver. The prism (circular ladder) plays the cubic
component because it is 3-regular and 3-edge-connected at every even
vertex count >= 6.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from math import comb, isqrt

from .errors import ValidationError
from .graph import Graph
from .weights import Weight

DEFAULT_EPSILON = Weight.parse("0.01")

# gen_random's edge limit: the CLI refuses an -m above it before an edge
# is drawn, and the min-degree repair refuses to add an edge past it; a
# drawn edge takes about 470 bytes, so the limit is about 1 GB of edges
MAX_EDGES = 2_000_000


def prism_edges(rungs: int, offset: int = 0) -> list[tuple[int, int]]:
    """Circular ladder: two rung-length cycles joined by rungs."""
    outer = [(offset + i, offset + (i + 1) % rungs) for i in range(rungs)]
    inner = [(offset + rungs + i, offset + rungs + (i + 1) % rungs) for i in range(rungs)]
    spokes = [(offset + i, offset + rungs + i) for i in range(rungs)]
    return outer + inner + spokes


def gen_ladder(n: int) -> Graph:
    """Unit-weight prism on an even number n >= 6 of vertices."""
    if n < 6 or n % 2:
        raise ValidationError("a prism needs an even vertex count >= 6")
    return Graph.build(n, prism_edges(n // 2))


def gen_cycle(n: int) -> Graph:
    if n < 1:
        raise ValidationError("cycle length must be positive")
    return Graph.build(n, [(i, (i + 1) % n) for i in range(n)])


def gen_circulant(n: int) -> Graph:
    """Unit-weight circulant C_n(1, 2), edges (v, v+1) then (v, v+2) mod n:
    4-regular, and 3-edge-connected for n >= 6, so preprocess keeps it."""
    return Graph.build(n, [(v, (v + d) % n) for d in (1, 2) for v in range(n)])


def _tight_family(k: int, base: Weight, epsilon: Weight) -> Graph:
    if epsilon.micros <= 0:
        raise ValidationError("epsilon must be positive")
    parallel_weight = base + epsilon
    if k < 4:
        raise ValidationError("tight instances need k >= 4 (the cubic part needs 6+ vertices)")
    rungs = k - 1
    edges: list[tuple] = [(0, 1, parallel_weight) for _ in range(k + 2)]
    edges.extend(prism_edges(rungs, offset=2))
    return Graph.build(2 + 2 * rungs, edges)


def gen_greedy1_tight(k: int, epsilon: Weight = DEFAULT_EPSILON) -> Graph:
    """Two vertices joined by k+2 parallel edges of weight 1+eps, plus a
    disjoint unit-weight prism on 2k-2 vertices (3k-3 edges)."""
    return _tight_family(k, Weight.from_units(1), epsilon)


def gen_greedy2_tight(k: int, epsilon: Weight = DEFAULT_EPSILON) -> Graph:
    """Same shape with parallel-edge weight 1.5+eps."""
    return _tight_family(k, Weight.parse("1.5"), epsilon)


def gen_fig1() -> tuple[Graph, frozenset[int], dict[int, int]]:
    """The worked 8-vertex, 12-edge inference demo.

    Four monitored edges and four bridge edges hang off a closing
    4-cycle; the cycle keeps one degree of freedom, so exactly the four
    bridges are forced by the readings and the cycle stays undetermined.
    Returns (graph, monitor ids, readings).
    """
    edges = [
        (0, 1),  # 0: monitored, flow 1
        (1, 2),  # 1: monitored, flow 4
        (2, 7),  # 2: monitored, flow 2
        (5, 3),  # 3: monitored, flow 7
        (2, 4),  # 4: forced to 2
        (7, 5),  # 5: forced to 2
        (6, 4),  # 6: forced to 3
        (4, 5),  # 7: forced to 5
        (0, 6),  # 8: closing cycle
        (6, 1),  # 9
        (1, 3),  # 10
        (3, 0),  # 11
    ]
    g = Graph.build(8, edges)
    monitors = frozenset({0, 1, 2, 3})
    readings = {0: 1, 1: 4, 2: 2, 3: 7}
    return g, monitors, readings


def gen_random(
    n: int,
    m: int,
    seed: int = 0,
    min_degree: int = 0,
    simple: bool = False,
    weight_lo: int = 1,
    weight_hi: int = 1,
) -> Graph:
    """Seeded uniform edge sampling, optionally followed by a min-degree
    repair pass that may add edges beyond m, up to MAX_EDGES in all.

    Multigraph mode allows parallels and loops (a loop adds 2 to its
    vertex's degree); simple mode samples distinct non-loop pairs without
    replacement, as indices into the pairs in combinations order, so it
    never lists them all, and its repair keeps each vertex's neighbours,
    so a repair edge costs O(degree log degree), not O(n).
    """
    if n < 0 or m < 0:
        raise ValidationError("n and m must be non-negative")
    if min_degree < 0:
        raise ValidationError("min_degree must be non-negative")
    if n == 0 and m > 0:
        raise ValidationError("edges need vertices")
    if not 0 <= weight_lo <= weight_hi:
        raise ValidationError("need 0 <= weight_lo <= weight_hi")
    pairs = comb(n, 2)
    if simple and m > pairs:
        raise ValidationError(f"a simple graph on {n} vertices holds at most {pairs} edges")
    if simple and min_degree > max(n - 1, 0):
        raise ValidationError("min_degree out of reach for a simple graph")
    # MAX_EDGES edges give a degree sum of at most 2 * MAX_EDGES
    if n * min_degree > 2 * MAX_EDGES:
        raise ValidationError(f"min_degree needs more than {MAX_EDGES} edges")
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    if simple:
        edges.extend(_unrank_pair(n, i) for i in rng.sample(range(pairs), m))
    else:
        for _ in range(m):
            edges.append((rng.randrange(n), rng.randrange(n)))

    if min_degree > 0:
        degree = [0] * n
        for u, v in edges:
            degree[u] += 1 + (u == v)
            degree[v] += u != v
        # a simple graph repeats no pair, so lists hold distinct neighbours
        neighbours: dict[int, list[int]] = {}
        if simple:
            for u, v in edges:
                neighbours.setdefault(u, []).append(v)
                neighbours.setdefault(v, []).append(u)
        for v in range(n):
            while degree[v] < min_degree:
                if len(edges) >= MAX_EDGES:
                    raise ValidationError(f"min_degree needs more than {MAX_EDGES} edges")
                if simple:
                    # the k-th vertex, in index order, that is neither v
                    # nor a neighbour; there are n - 1 - degree[v] >= 1 of
                    # them, as min_degree <= n - 1, and randrange over that
                    # count makes the draw rng.choice would make from them
                    taken = neighbours.setdefault(v, [])
                    u = rng.randrange(n - 1 - len(taken))
                    for x in sorted([v, *taken]):
                        if x > u:
                            break
                        u += 1
                    taken.append(u)
                    neighbours.setdefault(u, []).append(v)
                else:
                    u = rng.randrange(n)
                edges.append((v, u))
                degree[v] += 1 + (v == u)
                degree[u] += v != u
    weighted = [(u, v, rng.randint(weight_lo, weight_hi)) for u, v in edges]
    return Graph.build(n, weighted)


def _unrank_pair(n: int, i: int) -> tuple[int, int]:
    """The pair at index i of combinations(range(n), 2). The pairs
    (a, .) start at index a * (2n - a - 1) / 2, so a is the smaller root
    of a quadratic, rounded down; isqrt rounds the square root down, which
    leaves a at most one too high."""
    a = (2 * n - 1 - isqrt((2 * n - 1) ** 2 - 8 * i)) // 2
    if a * (2 * n - a - 1) // 2 > i:
        a -= 1
    return a, i - a * (2 * n - a - 1) // 2 + a + 1


def random_connected_multigraph(n: int, m: int, seed: int, simple: bool = False) -> Graph:
    """Seeded connected unit-weight multigraph: random spanning tree plus
    arbitrary extra edges (parallels and loops allowed). Needs m >= n-1.
    With `simple`, the extras are distinct pairs the tree does not use,
    sampled as indices into the pairs in combinations order less the
    tree's, so it never lists them all."""
    if n < 1:
        raise ValidationError("n must be positive")
    if m < n - 1:
        raise ValidationError("connectivity needs at least n-1 edges")
    if simple and m > comb(n, 2):
        raise ValidationError(f"a simple graph on {n} vertices holds at most {comb(n, 2)} edges")
    rng = random.Random(seed)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    if simple:
        # each tree pair (u, v) already has u < v; ranks as in _unrank_pair
        tree = sorted(u * (2 * n - u - 1) // 2 + v - u - 1 for u, v in edges)
        for i in rng.sample(range(comb(n, 2) - len(tree)), m - (n - 1)):
            # the rank r of the i-th pair not in the tree, i = r - (tree
            # ranks <= r): the least fixpoint of r -> i + (tree ranks <= r)
            r = i
            while (nxt := i + bisect_right(tree, r)) != r:
                r = nxt
            edges.append(_unrank_pair(n, r))
    while len(edges) < m:
        edges.append((rng.randrange(n), rng.randrange(n)))
    return Graph.build(n, edges)
