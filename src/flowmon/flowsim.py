"""Circulations, monitor measurements, and conservation-based inference.

A circulation assigns each edge a signed integer flow, oriented from the
edge's stored u to its stored v; flow conservation holds at every vertex.
Given readings on a monitor set M, the flow of a non-monitored edge is
uniquely forced exactly when that edge is a bridge of G - M: cutting the
bridge splits its component into two sides, and summing conservation over
the side containing the bridge's tail determines the bridge's flow from
the monitor readings crossing into that side. Nothing else is forced,
and nothing else is guessed.

Inference works on the kernel forest: one contraction of the components
of G - M - bridges(G - M), whose bridges then form a forest, and one
leaf-to-root pass that sums the net monitor inflow of every subtree.
Each bridge reads its flow off the side holding its stored tail, so the
whole inference is linear in the size of the graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import FlowmonError, ValidationError
from .graph import Graph, kernel_labels, spanning_forest, subtree_sums

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
    resid = [0] * n  # net inflow from the free edges
    for e in g.edges:
        if e.id in forest:
            continue
        f = rng.randint(-flow_range, flow_range)
        flow[e.id] = f
        resid[e.v] += f
        resid[e.u] -= f

    # forest edges are forced leaf-inward: the flow into the subtree
    # hanging below an edge must cancel that subtree's residual
    edges = g.edges
    _, entry, sub = subtree_sums(n, ((eid, edges[eid].u, edges[eid].v) for eid in forest), resid)
    for v, eid in enumerate(entry):
        if eid >= 0:
            flow[eid] = -sub[v] if edges[eid].v == v else sub[v]
    circ = Circulation(tuple(flow))
    if conservation_violations(g, circ):
        raise FlowmonError("random circulation violates conservation")
    return circ


def measure(circ: Circulation, monitors: Iterable[int]) -> dict[int, int]:
    """Restriction of a circulation to the monitored edges."""
    return {e: circ.flow[e] for e in sorted(monitors)}


def infer(g: Graph, monitors: Iterable[int], readings: Measurements) -> InferenceResult:
    """Determine every edge forced by the readings and validate them.

    One contraction and one forest pass, O(n + m). Each component of
    G - M - B, where B is the bridges of G - M, becomes a kernel vertex
    holding its net monitor inflow; B is a forest on these vertices.
    Summing conservation over the side of bridge b that holds b's stored
    tail u, the flow on b equals that side's net monitor inflow. One
    leaf-to-root pass gives sub[c], the inflow into the subtree hanging
    from kernel vertex c; with c the lower end of b,

        flow(b) = sub[c]             if u lies in c's subtree,
        flow(b) = sub[root] - sub[c] otherwise.

    Consistent readings make sub[root] zero on every tree; inconsistent
    ones still get values by this tail-side rule. Afterwards every
    kernel vertex is audited: the net determined flow across its
    boundary must be zero, otherwise the readings are inconsistent and
    the component's vertices are reported, by component label. Loops
    outside M stay undetermined.
    """
    mon = frozenset(monitors)
    g.check_edge_ids(mon)
    for e in readings:
        if e not in mon:
            raise ValidationError(f"reading for non-monitor edge {e}")
    for e in mon:
        if e not in readings:
            raise ValidationError(f"missing reading for monitor edge {e}")

    edges = g.edges
    exposed, labels = kernel_labels(g, mon)
    ncomp = max(labels) + 1 if labels else 0
    inflow = [0] * ncomp  # net monitor inflow per kernel vertex
    for e in mon:
        rec = edges[e]
        cu, cv = labels[rec.u], labels[rec.v]
        if cu != cv:
            inflow[cu] -= readings[e]
            inflow[cv] += readings[e]
    forest = ((b, labels[edges[b].u], labels[edges[b].v]) for b in exposed)
    order, entry, sub = subtree_sums(ncomp, forest, inflow)
    tree_total = [0] * ncomp
    flow: dict[int, int] = {}
    for c in order:
        b = entry[c]
        if b < 0:
            tree_total[c] = sub[c]
            continue
        rec = edges[b]
        tail = labels[rec.u]
        tree_total[c] = tree_total[tail + labels[rec.v] - c]
        flow[b] = sub[c] if tail == c else tree_total[c] - sub[c]

    determined: dict[int, int] = {e: readings[e] for e in sorted(mon)}
    for b in sorted(exposed):
        determined[b] = flow[b]
    undetermined = frozenset(range(len(edges))) - determined.keys()

    # audit: net determined flow across each kernel-component boundary is zero
    net = [0] * ncomp
    for e, f in determined.items():
        rec = edges[e]
        cu, cv = labels[rec.u], labels[rec.v]
        if cu != cv:
            net[cu] -= f
            net[cv] += f
    members: list[list[int]] = [[] for _ in range(ncomp)]
    for v, c in enumerate(labels):
        members[c].append(v)
    violations = tuple(tuple(members[c]) for c in range(ncomp) if net[c])
    return InferenceResult(determined, undetermined, not violations, violations)
