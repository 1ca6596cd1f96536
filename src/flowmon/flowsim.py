"""Circulations, monitor measurements, and conservation-based inference.

A circulation assigns each edge a signed integer flow, oriented from the
edge's stored u to its stored v; flow conservation holds at every vertex.
Given readings on a monitor set M, the flow of a non-monitored edge is
uniquely forced exactly when that edge is a bridge of G - M: cutting the
bridge splits its component into two sides, and summing conservation over
the side containing the bridge's tail determines the bridge's flow from
the monitor readings crossing out of that side. Nothing else is forced,
and nothing else is guessed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import FlowmonError, ValidationError
from .graph import (
    Graph,
    bridge_ids,
    component_labels,
    make_mask,
    reachable_from,
    search_forest,
    spanning_forest,
)

Measurements = Mapping[int, int]


@dataclass(frozen=True)
class Circulation:
    """Dense per-edge flow values; flow[e] runs from edges[e].u to
    edges[e].v, and the reverse direction is its negation."""

    flow: tuple[int, ...]


@dataclass(frozen=True)
class InferenceResult:
    determined: dict[int, int]
    undetermined: frozenset[int]
    consistent: bool
    violations: tuple[tuple[int, ...], ...] = ()


def conservation_violations(g: Graph, circ: Circulation) -> list[int]:
    """Vertices where inflow minus outflow is non-zero. Loops cancel."""
    resid = [0] * g.vertex_count
    for e in g.edges:
        f = circ.flow[e.id]
        resid[e.v] += f
        resid[e.u] -= f
    return [v for v in range(g.vertex_count) if resid[v] != 0]


def random_circulation(g: Graph, seed: int, flow_range: int = 100) -> Circulation:
    """Seeded circulation: every non-forest edge (loops included) draws a
    uniform integer in [-R, R]; forest edges are then forced leaf-inward
    so conservation holds exactly."""
    if flow_range < 1:
        raise ValidationError("flow_range must be positive")
    rng = random.Random(seed)
    forest = spanning_forest(g)
    n, m = g.vertex_count, len(g.edges)
    flow = [0] * m
    resid = [0] * n  # net inflow from the free edges, then per subtree
    for e in g.edges:
        if e.id in forest:
            continue
        f = rng.randint(-flow_range, flow_range)
        flow[e.id] = f
        resid[e.v] += f
        resid[e.u] -= f

    # forest edges are forced leaf-inward: the flow into the subtree
    # hanging below an edge must cancel that subtree's residual
    tree_adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid in forest:
        e = g.edges[eid]
        tree_adj[e.u].append((e.v, eid))
        tree_adj[e.v].append((e.u, eid))
    order, entry = search_forest(n, tree_adj)
    for v in reversed(order):
        eid = entry[v]
        if eid < 0:
            continue
        e = g.edges[eid]
        flow[eid] = -resid[v] if e.v == v else resid[v]
        resid[e.u if e.v == v else e.v] += resid[v]
    circ = Circulation(tuple(flow))
    if conservation_violations(g, circ):
        raise FlowmonError("random circulation violates conservation")
    return circ


def measure(circ: Circulation, monitors: Iterable[int]) -> dict[int, int]:
    """Restriction of a circulation to the monitored edges."""
    return {e: circ.flow[e] for e in sorted(monitors)}


def infer(g: Graph, monitors: Iterable[int], readings: Measurements) -> InferenceResult:
    """Determine every edge forced by the readings and validate them.

    Each bridge b of G - M is solved independently: let A be the side of
    b's component of G - M (minus b itself) that contains b's stored tail
    u. Summing conservation over A, the flow on b equals minus the net
    measured flow leaving A over monitor edges. Afterwards every
    component of G - M - bridges(G-M) is audited: the net determined flow
    across its boundary must be zero, otherwise the readings are
    inconsistent and the offending components are reported. Loops outside
    M stay undetermined.
    """
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
    labels = component_labels(g, mask)
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
