"""Monitor-placement solvers.

sigma_greedy places monitors in batches of sigma, each batch chosen by
exhaustive search to maximize the immediate gain (batch weight plus the
bridges it exposes); collected edges leave the working graph before the
next batch. exact, the oracle the approximation guarantees are tested
against, is the same search taken as one batch of size k. A candidate
set is scored with cut-space labels (see graph.cut_labels): the edges it
determines are those whose label lies in the span of the candidate's
labels. graph.span_search walks the candidates prefix by prefix with the
residuals folded modulo each prefix's span: a prefix costs one pass over
the live residuals and its table of weight per coset, and the last two
monitors are read off that table with at most two lookups per
candidate, instead of a bridge traversal per candidate. It skips every
prefix whose weight bound cannot beat the best batch found so far, and
every monitor whose residual repeats one already tried at its prefix,
and still returns the first best batch (weights are non-negative). Each
step's folded residuals are the next step's live labels. The
enumeration budgets are fixed constants and count every candidate, read
or skipped, as the trace's candidates field does; a run that would
exceed one is refused before it enumerates (CLI exit 3). solve_pipeline
wires preprocessing, a solver (make_solver maps CLI names to solvers),
and the lift back to original edge ids into the end-to-end path the CLI
uses; the extras are read off the reduced graph and the edge groups, so
it walks G only in preprocessing.

Determinism: among equal-gain candidate sets the lexicographically
smallest sorted id tuple wins, so traces are reproducible and tests can
compare outputs byte for byte.
"""

from __future__ import annotations

from math import comb
from typing import Callable, NamedTuple

from .errors import CandidateBudgetError, Checked, FlowmonError, SizeGuardError, ValidationError
from .graph import Graph, bridge_ids, cut_labels, make_mask, span_search, spanning_forest
from .reduce import ReductionMap, lift_monitors, preprocess
from .weights import Weight

EXACT_DEFAULT_BUDGET = 2_000_000
GREEDY_DEFAULT_BUDGET = 50_000_000


class _SolverConfig(NamedTuple):
    k: int
    sigma: int = 1


class SolverConfig(Checked, _SolverConfig):
    __slots__ = ()

    def _check(self) -> None:
        if self.k < 1:
            raise ValidationError("monitor budget k must be at least 1")
        if self.sigma < 1:
            raise ValidationError("batch size sigma must be at least 1")


class StepRecord(NamedTuple):
    """One greedy step: the monitors placed, everything collected (monitors
    plus exposed bridges), the step's gain, and the candidate sets it
    counts, C(live edges, monitors placed) or 0 when it takes them all."""

    monitors_placed: frozenset[int]
    collected: frozenset[int]
    step_gain: Weight
    candidates: int


class GreedyTrace(NamedTuple):
    steps: tuple[StepRecord, ...]


class Solution(NamedTuple):
    """monitors plus determined_extras are the edges with known flow;
    gain is their total weight. zero_flow lists stripped bridges of the
    original graph (known zero, reported separately, never counted)."""

    monitors: frozenset[int]
    determined_extras: frozenset[int]
    gain: Weight
    trace: GreedyTrace | None = None
    zero_flow: frozenset[int] = frozenset()


def _take_everything(g: Graph) -> Solution:
    m = len(g.edges)
    all_edges = frozenset(range(m))
    total = g.total_weight()
    steps = ()
    if m:
        steps = (StepRecord(all_edges, all_edges, total, 0),)
    return Solution(all_edges, frozenset(), total, GreedyTrace(steps))


def sigma_greedy(g: Graph, cfg: SolverConfig) -> Solution:
    """Run ceil(k/sigma) batched greedy steps.

    Each step enumerates all sigma'-subsets of the remaining edges
    (sigma' = k mod sigma on the final partial step) and takes the subset
    maximizing subset weight plus exposed bridge weight; the collected
    edges are removed before the next step. If at most sigma' edges
    remain they are all taken and the run halts; if the graph empties the
    trace is simply truncated. GREEDY_DEFAULT_BUDGET caps the subset
    evaluations of the whole run, which guards large sigma.
    """
    m = len(g.edges)
    k, sigma = cfg.k, cfg.sigma
    if k >= m:
        return _take_everything(g)

    w = g.weights_micros
    live = list(range(m))
    # residuals of the live edges modulo span(placed monitors), none zero
    # after the first step; an edge is collected by p iff its residual
    # lies in the span of p's residuals
    res = cut_labels(g)
    monitors: list[int] = []
    determined: list[int] = []
    steps: list[StepRecord] = []
    evals_used = 0
    n_steps = -(-k // sigma)
    partial_step = k // sigma + 1  # reachable only when k % sigma > 0

    for t in range(1, n_steps + 1):
        if not live:
            break
        sp = k % sigma if t == partial_step else sigma
        if len(live) <= sp:
            monitors.extend(live)
            taken = frozenset(live)
            steps.append(
                StepRecord(taken, taken, Weight(sum(w[e] for e in live)), 0)
            )
            break
        count = comb(len(live), sp)
        if evals_used + count > GREEDY_DEFAULT_BUDGET:
            raise CandidateBudgetError(
                f"step {t} needs {count} candidate evaluations;"
                f" budget {GREEDY_DEFAULT_BUDGET} exhausted"
            )
        evals_used += count
        wl = [w[e] for e in live]
        best, pick, res = span_search(res, wl, sp, sum(wl))
        placed = [live[j] for j in pick]
        collected = [e for e, x in zip(live, res) if not x]
        determined.extend(collected)
        monitors.extend(placed)
        steps.append(
            StepRecord(frozenset(placed), frozenset(collected), Weight(best), count)
        )
        live = [e for e, x in zip(live, res) if x]
        res = [x for x in res if x]

    # collected edges are exactly those whose label lies in span(monitors)
    mon = frozenset(monitors)
    extras = frozenset(determined) - mon
    total = Weight(sum(w[e] for e in mon) + sum(w[e] for e in extras))
    return Solution(mon, extras, total, GreedyTrace(tuple(steps)))


def exact(g: Graph, k: int) -> Solution:
    """Maximum-gain monitor set: sigma_greedy with one batch of size k.

    That one step scores every subset of size exactly min(k, m): gain
    never decreases when a monitor is added, so the optimum over sets of
    size at most k is attained at full size. Refuses instances whose
    subset count exceeds EXACT_DEFAULT_BUDGET.
    """
    if k < 1:
        raise ValidationError("monitor budget k must be at least 1")
    m = len(g.edges)
    size = min(k, m)
    total = comb(m, size)
    if total > EXACT_DEFAULT_BUDGET:
        raise SizeGuardError(
            f"exhaustive search needs C({m},{size}) = {total} evaluations;"
            f" the guard allows {EXACT_DEFAULT_BUDGET}"
        )
    sol = sigma_greedy(g, SolverConfig(k=k, sigma=k))
    return Solution(sol.monitors, sol.determined_extras, sol.gain)


def make_solver(name: str) -> Callable[[Graph, int], Solution]:
    """The solver named greedy1, greedy2, greedy:<sigma> (sigma >= 1)
    or exact."""
    if name == "exact":
        return exact
    if name == "greedy1":
        sigma = 1
    elif name == "greedy2":
        sigma = 2
    elif name.startswith("greedy:"):
        try:
            sigma = int(name.split(":", 1)[1])
        except ValueError:
            raise ValidationError(f"bad solver name {name!r}") from None
    else:
        raise ValidationError(f"unknown solver {name!r}")
    # checked here as well as in SolverConfig, because solve_pipeline
    # answers k >= m without calling the solver
    if sigma < 1:
        raise ValidationError("batch size sigma must be at least 1")
    return lambda g, k: sigma_greedy(g, SolverConfig(k=k, sigma=sigma))


def full_determination(g: Graph) -> frozenset[int]:
    """Monitors that determine every edge: the complement of a spanning
    forest. Size is m - n + (number of components)."""
    return frozenset(range(len(g.edges))) - spanning_forest(g)


def _translate_trace(trace: GreedyTrace | None, rmap: ReductionMap) -> GreedyTrace | None:
    if trace is None:
        return None
    table = rmap.orig_edge_of_reduced.__getitem__
    return GreedyTrace(tuple(
        StepRecord(frozenset(map(table, placed)), frozenset(map(table, collected)), gain, count)
        for placed, collected, gain, count in trace.steps
    ))


def solve_pipeline(g: Graph, k: int, algo: Callable[[Graph, int], Solution]) -> Solution:
    """Preprocess, solve on the reduced graph, lift back.

    k must be at least 1, even on a graph with no edges. With k >= m the
    answer is trivially all edges. Otherwise monitors are chosen on the
    reduced graph and lifted to original ids. The cuts of the reduced
    graph are the cuts of G made only of deputies, so the lifted monitors
    determine the groups of the deputies they determine there: monitors
    and the bridges of the reduced graph minus them. Those groups' other
    edges are the extras, and the total must equal the solver's gain
    (FlowmonError otherwise). Stripped bridges come back in zero_flow:
    their flow is known (zero) without spending monitors, and they never
    count toward gain.
    """
    if k < 1:
        raise ValidationError("monitor budget k must be at least 1")
    m = len(g.edges)
    if k >= m:
        return Solution(frozenset(range(m)), frozenset(), g.total_weight())
    reduced, rmap = preprocess(g)
    sub = algo(reduced, k)
    lifted = lift_monitors(sub.monitors, rmap)
    table, group_of = rmap.orig_edge_of_reduced, rmap.group_of
    collected = {*sub.monitors, *bridge_ids(reduced, make_mask(reduced, sub.monitors))}
    groups = {group_of[table[r]] for r in collected}
    extras = frozenset(e for e, gi in group_of.items() if gi in groups) - lifted
    w = g.weights_micros
    total = sum(w[e] for e in lifted) + sum(w[e] for e in extras)
    if total != sub.gain.micros:
        raise FlowmonError(f"lifted gain {total} differs from the solver's {sub.gain.micros}")
    return Solution(
        lifted,
        extras,
        sub.gain,
        _translate_trace(sub.trace, rmap),
        zero_flow=rmap.stripped_bridges,
    )
