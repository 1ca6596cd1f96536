"""Random circulations, monitor measurements, and conservation-based inference.

A circulation assigns each edge a signed integer flow, oriented from the
edge's stored u to its stored v; flow conservation holds at every vertex.
Given readings on a monitor set M, the flow of a non-monitored edge is
uniquely forced exactly when that edge is a bridge of G - M: cutting the
bridge splits its component into two sides, and summing conservation over
the side containing the bridge's tail determines the bridge's flow from
the monitor readings crossing into that side. Nothing else is forced,
and nothing else is guessed.

Inference works on the depth-first forest of G - M that finds the
bridges B, with the mask of M and B read off it (graph._known): each
side of a bridge is a subtree of that forest or the rest of its tree,
so one leaf-to-root pass summing
the net monitor inflow of every subtree reads every bridge's flow off
the side holding its stored tail. Readings are consistent exactly when
each tree's total inflow is zero; only inconsistent ones take a second,
root-to-leaf pass, which carries each tree's total and each vertex's
piece top (the first vertex in preorder of its component of G - M - B),
and an audit that sums the net flow across each piece's boundary by
top. The whole inference is linear in the size of the graph.

infer is the one place that rule is written: random_circulation draws
the flows of the edges outside a spanning forest and takes every forest
edge's flow from infer, with the drawn edges as the monitors.
"""

from __future__ import annotations

import random
from itertools import compress
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import FlowmonError, ValidationError
from .graph import Graph, _known, spanning_forest

Measurements = Mapping[int, int]
# bytes.translate table turning a 0/1 mask into its complement
_UNSET = bytes([1]) + bytes(255)


class InferenceResult(NamedTuple):
    determined: dict[int, int]
    undetermined: frozenset[int]
    consistent: bool
    violations: tuple[tuple[int, ...], ...] = ()


def conservation_violations(g: Graph, flow: Sequence[int]) -> list[int]:
    """Vertices where inflow minus outflow is non-zero. Loops cancel.
    `flow` holds one value per edge."""
    if len(flow) != len(g.us):
        raise ValidationError(f"flow has {len(flow)} values for {len(g.us)} edges")
    resid = [0] * g.vertex_count
    for u, v, f in zip(g.us, g.vs, flow):
        resid[v] += f
        resid[u] -= f
    return [v for v in range(g.vertex_count) if resid[v] != 0]


def random_circulation(g: Graph, seed: int, flow_range: int = 100) -> tuple[int, ...]:
    """Seeded circulation, one flow per edge, flow[e] running from
    g.us[e] to g.vs[e] (its negation the other way): every edge outside
    spanning_forest(g) (loops included) draws a uniform integer in
    [-R, R], in id order. Those edges determine every forest edge, each a
    bridge of what is left, so infer forces the forest flows from them.
    The conservation check does not read infer: a tuple that passes it
    is the one circulation with the drawn flows."""
    if flow_range < 1:
        raise ValidationError("flow_range must be positive")
    rng = random.Random(seed)
    forest = spanning_forest(g)
    drawn = {e: rng.randint(-flow_range, flow_range) for e in range(len(g.us)) if e not in forest}
    forced = infer(g, drawn, drawn).determined
    flow = tuple(forced[e] for e in range(len(g.us)))
    if conservation_violations(g, flow):
        raise FlowmonError("random circulation violates conservation")
    return flow


def measure(flow: Sequence[int], monitors: Iterable[int]) -> dict[int, int]:
    """Restriction of a circulation's flow to the monitored edges."""
    return {e: flow[e] for e in sorted(monitors)}


def infer(g: Graph, monitors: Iterable[int], readings: Measurements) -> InferenceResult:
    """Determine every edge forced by the readings and validate them.

    O(n + m), on the depth-first forest F of G - M that finds B, the
    bridges of G - M, and the mask of M and B (graph._known). Summing
    conservation over the side of bridge b that holds b's stored tail
    u, the flow on b equals that side's net monitor inflow. Each bridge b is the entry
    edge of one vertex c, and its two sides are the subtree of F below
    c and the rest of c's tree. One leaf-to-root pass gives sub[c], the
    monitor inflow into the subtree below c; total[c], the inflow into
    c's whole tree, is its root's sub:

        flow(b) = sub[c]              if u == c,
        flow(b) = total[c] - sub[c]   otherwise.

    Only monitors cross the boundary of a tree of F, a component of
    G - M, so consistent readings make every tree's total zero. That is
    also enough: each bridge's flow then balances the subtree below it,
    and every piece of F cut at B, a component of G - M - B, is a
    balanced subtree less the balanced subtrees hanging below it by
    bridges. So consistent readings need no audit and no second pass.
    Inconsistent ones still get values by this tail-side rule: one
    root-to-leaf pass carries each tree's total down, and with it each
    vertex's piece top, its parent's unless its entry edge is a bridge.
    The audit sums the net determined flow across each piece's
    boundary, keyed by top, and reports every piece whose net is not
    zero as its vertices, pieces in lowest-vertex order. Loops outside
    M stay undetermined.
    """
    mon = frozenset(monitors)
    mask, order, entry, exposed = _known(g, mon)  # mask: M and B, the determined edges
    for e in readings:
        if e not in mon:
            raise ValidationError(f"reading for non-monitor edge {e}")
    for e in mon:
        if e not in readings:
            raise ValidationError(f"missing reading for monitor edge {e}")

    us, vs, n = g.us, g.vs, g.vertex_count
    # net monitor inflow per vertex; a loop, or a monitor inside one
    # piece, cancels on every side of every bridge
    sub = [0] * n
    for e in mon:
        sub[us[e]] -= readings[e]
        sub[vs[e]] += readings[e]
    consistent = True
    for v in reversed(order):
        eid = entry[v]
        if eid >= 0:
            sub[us[eid] + vs[eid] - v] += sub[v]
        elif sub[v]:  # a root, so its tree's total
            consistent = False
    total = [0] * n if consistent else sub[:]  # a root's subtree is its whole tree
    if not consistent:
        top = list(range(n))
        for v in order:
            eid = entry[v]
            if eid >= 0:
                p = us[eid] + vs[eid] - v
                total[v] = total[p]
                if not mask[eid]:
                    top[v] = top[p]

    determined: dict[int, int] = {e: readings[e] for e in sorted(mon)}
    for b in sorted(exposed):
        u, v = us[b], vs[b]
        determined[b] = sub[u] if entry[u] == b else total[v] - sub[v]
    undetermined = frozenset(compress(range(len(mask)), mask.translate(_UNSET)))
    if consistent:
        return InferenceResult(determined, undetermined, True)

    # audit: net determined flow across each piece's boundary is zero
    net = [0] * n
    for e, f in determined.items():
        tu, tv = top[us[e]], top[vs[e]]
        if tu != tv:
            net[tu] -= f
            net[tv] += f
    members: dict[int, list[int]] = {t: [] for t in top}  # by lowest vertex
    for v, t in enumerate(top):
        members[t].append(v)
    violations = tuple(tuple(piece) for t, piece in members.items() if net[t])
    return InferenceResult(determined, undetermined, False, violations)
