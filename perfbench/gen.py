"""Seeded input generators owned by the benchmark.

Nothing here calls into flowmon: the instances must stay the same when
flowmon's own generators change, so every graph is built from a
`random.Random` seeded by the benchmark and handed over as text in the
`p flowmon <n> <m>` / `e <u> <v> <w>` format. Every generator shuffles
vertex labels and edge order, so no input keeps the construction order.

Graphs are plain `(n, edges)` pairs, with `edges` a list of `(u, v, w)`
tuples and integer weights.
"""

from __future__ import annotations

import hashlib
import random
from itertools import combinations


def graph_text(n: int, edges: list[tuple[int, int, int]]) -> str:
    lines = [f"p flowmon {n} {len(edges)}"]
    lines.extend(f"e {u} {v} {w}" for u, v, w in edges)
    return "\n".join(lines) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _shuffled(rng: random.Random, n: int, edges: list[tuple]) -> list[tuple]:
    """Relabel vertices by a random permutation and shuffle edge order."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[e[0]], perm[e[1]]) + tuple(e[2:]) for e in edges]
    rng.shuffle(out)
    return out


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """`parts` positive integers summing to `total`."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    bounds = [0] + cuts + [total]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


def _prism(rungs: int) -> list[tuple[int, int]]:
    outer = [(i, (i + 1) % rungs) for i in range(rungs)]
    inner = [(rungs + i, rungs + (i + 1) % rungs) for i in range(rungs)]
    return outer + inner + [(i, rungs + i) for i in range(rungs)]


def access_graph(seed: int, comps: int, rungs: int, chain_edges: int,
                 pendant_edges: int) -> tuple[int, list[tuple[int, int, int]]]:
    """Access-network shape: `comps` components, each a prism backbone
    with `rungs` rungs whose 3*rungs edges are subdivided into chains
    holding `chain_edges` edges in all, plus `pendant_edges` tree edges
    hung off random vertices. Every chain is one 2-cut edge group and
    every pendant edge a bridge, so reduction shrinks each component to
    its 3*rungs-edge prism. Sizes are exact: m = comps*(chain_edges +
    pendant_edges)."""
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    n = 0
    for _ in range(comps):
        base = n
        n += 2 * rungs
        comp_vertices = list(range(base, n))
        for (a, b), length in zip(_prism(rungs), _composition(rng, chain_edges, 3 * rungs)):
            prev = base + a
            for _ in range(length - 1):
                edges.append((prev, n))
                comp_vertices.append(n)
                prev = n
                n += 1
            edges.append((prev, base + b))
        for _ in range(pendant_edges):
            edges.append((rng.choice(comp_vertices), n))
            comp_vertices.append(n)
            n += 1
    return n, _shuffled(rng, n, [(u, v, rng.randint(1, 9)) for u, v in edges])


def mesh_graph(seed: int, n: int, matchings: int) -> tuple[int, list[tuple[int, int, int]]]:
    """Hamiltonian cycle plus `matchings` random perfect matchings on an
    even vertex count; parallel edges allowed. m = n + matchings*n/2."""
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[i], order[(i + 1) % n]) for i in range(n)]
    for _ in range(matchings):
        rng.shuffle(order)
        edges.extend((order[i], order[i + 1]) for i in range(0, n, 2))
    return n, _shuffled(rng, n, [(u, v, rng.randint(1, 9)) for u, v in edges])


def treelike_graph(seed: int, n: int, extra: int, reach: int = 4
                   ) -> tuple[int, list[tuple[int, int, int]]]:
    """Random tree on n vertices plus `extra` edges, each closing a short
    cycle to an ancestor at most `reach` tree steps up (a few become
    parallel edges), so many tree edges stay bridges. m = n - 1 + extra."""
    rng = random.Random(seed)
    parent = [-1] + [rng.randrange(max(0, v - 8), v) for v in range(1, n)]
    edges = [(parent[v], v) for v in range(1, n)]
    for _ in range(extra):
        v = rng.randrange(1, n)
        u = v
        for _ in range(rng.randint(1, reach)):
            if parent[u] < 0:
                break
            u = parent[u]
        edges.append((u, v))
    return n, _shuffled(rng, n, [(u, v, rng.randint(1, 9)) for u, v in edges])


def hidden_circulation(seed: int, n: int, edges: list[tuple], flow_range: int = 100
                       ) -> list[int]:
    """Seeded circulation: non-forest edges draw from [-R, R], forest
    edges are then forced leaf-inward so conservation holds exactly.
    flow[e] runs from edges[e][0] to edges[e][1]."""
    rng = random.Random(seed)
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    forest_adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    flow = [0] * len(edges)
    net_in = [0] * n
    for i, (u, v, *_) in enumerate(edges):
        ru, rv = find(u), find(v)
        if ru != rv:
            root[ru] = rv
            forest_adj[u].append((v, i))
            forest_adj[v].append((u, i))
        else:
            f = rng.randint(-flow_range, flow_range)
            flow[i] = f
            net_in[v] += f
            net_in[u] -= f
    seen = [False] * n
    for r in range(n):
        if seen[r]:
            continue
        seen[r] = True
        order = [(r, -1)]
        for v, _ in order:
            for w, eid in forest_adj[v]:
                if not seen[w]:
                    seen[w] = True
                    order.append((w, eid))
        for v, eid in reversed(order[1:]):
            u, w = edges[eid][0], edges[eid][1]
            # the subtree below v has net inflow net_in[v]; the tree edge cancels it
            flow[eid] = net_in[v] if u == v else -net_in[v]
            net_in[w if u == v else u] += net_in[v]
    return flow


def tight_family(seed: int, k: int, batch: int) -> tuple[int, list[tuple[int, int, str]], int]:
    """The tight instance for the `batch`-at-a-time greedy at budget k:
    k+2 parallel edges of weight 1+eps (batch 1) or 1.5+eps (batch 2),
    plus a disjoint unit prism with k-1 rungs. The optimum monitors k
    prism edges and determines the whole prism: gain 3k-3, returned as
    the third value. eps in [0.01, 0.2] comes from the seed."""
    rng = random.Random(seed)
    eps = rng.randint(1, 20)
    heavy = f"{batch}.{eps:02d}" if batch == 1 else f"1.{50 + eps:02d}"
    edges: list[tuple] = [(0, 1, heavy) for _ in range(k + 2)]
    edges += [(u + 2, v + 2, "1") for u, v in _prism(k - 1)]
    n = 2 + 2 * (k - 1)
    return n, _shuffled(rng, n, edges), 3 * k - 3


def connected_simple(seed: int, n: int, m: int) -> tuple[int, list[tuple[int, int, int]]]:
    """Connected simple graph: a random spanning tree plus m-(n-1)
    distinct non-tree pairs, unit weights."""
    rng = random.Random(seed)
    tree = {(rng.randrange(v), v) for v in range(1, n)}
    others = [p for p in combinations(range(n), 2) if p not in tree]
    edges = [(u, v, 1) for u, v in sorted(tree) + rng.sample(others, m - (n - 1))]
    return n, _shuffled(rng, n, edges)
