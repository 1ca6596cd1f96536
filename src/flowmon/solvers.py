"""Monitor-placement solvers.

sigma_greedy places monitors in batches of sigma, each batch chosen by
exhaustive search to maximize the immediate gain (batch weight plus the
bridges it exposes); collected edges leave the working graph before the
next batch. exact, the oracle the approximation guarantees are tested
against, is the same search taken as one batch of size k. Both are thin
Graph wrappers over one batch loop, _batches, which reads nothing but
edge ids, their cut-space labels (see graph.cut_labels) and their
weights: the edges a candidate set determines are those whose label
lies in the span of the candidate's labels. graph.span_search walks the
candidates prefix by prefix with the residuals folded modulo each
prefix's span: a prefix costs one pass over the live residuals and its
table of weight per coset, and the last two monitors are read off that
table with at most two lookups per candidate, instead of a bridge
traversal per candidate. It skips every prefix whose weight bound
cannot beat the best batch found so far, and every monitor whose
residual repeats one already tried at its prefix, and still returns the
first best batch (weights are non-negative). Each step's folded
residuals are the next step's live labels. The enumeration budgets are
fixed constants and count every candidate, read or skipped, as the
trace's candidates field does; a run that would exceed one is refused
before it enumerates (CLI exit 3).

solve_pipeline is the end-to-end path the CLI uses, for a solver named
as make_solver names it. It builds no reduced graph: preprocessing
contracts each edge group to its deputy and strips the bridges, which
keeps exactly the cuts of G made only of deputies, so G's own labels on
the deputies, with the group weights, answer every question the batch
loop would ask of the reduced graph, with the same monitors, gains,
tie-breaks and trace. The extras are read off one bridge walk of G
minus the monitors, so a solve walks G twice: once to label it, once to
check the answer.

Determinism: among equal-gain candidate sets the lexicographically
smallest sorted id tuple wins, so traces are reproducible and tests can
compare outputs byte for byte.
"""

from __future__ import annotations

from itertools import compress
from math import comb
from operator import itemgetter, not_
from typing import Callable, NamedTuple, Sequence

from .errors import CandidateBudgetError, Checked, FlowmonError, SizeGuardError, ValidationError
from .graph import Graph, bridge_ids, cut_labels, make_mask, span_search, spanning_forest
from .reduce import _label_groups
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


def _batches(
    ids: Sequence[int], labels: Sequence[int], weights: Sequence[int], cfg: SolverConfig
) -> Solution:
    """The batched greedy on the edges `ids`, given each one's cut label
    and weight in micros (the three in step); the answer speaks ids.

    Runs ceil(k/sigma) steps. Each step enumerates all sigma'-subsets of
    the live edges (sigma' = k mod sigma on the final partial step) and
    takes the subset maximizing subset weight plus exposed bridge weight;
    the collected edges leave before the next step. If at most sigma'
    edges remain they are all taken and the run halts; if none remain
    the trace is simply truncated, and with k at least the edge count
    one step takes them all. GREEDY_DEFAULT_BUDGET caps the subset
    evaluations of the whole run, which guards large sigma.
    """
    k, sigma = cfg.k, cfg.sigma
    if k >= len(ids):
        everything = frozenset(ids)
        total = Weight(sum(weights))
        steps = (StepRecord(everything, everything, total, 0),) if ids else ()
        return Solution(everything, frozenset(), total, GreedyTrace(steps))

    live, wl = list(ids), list(weights)
    # residuals of the live edges modulo span(placed monitors), none zero
    # after the first step; an edge is collected by p iff its residual
    # lies in the span of p's residuals
    res = labels
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
            steps.append(StepRecord(taken, taken, Weight(sum(wl)), 0))
            break
        count = comb(len(live), sp)
        if evals_used + count > GREEDY_DEFAULT_BUDGET:
            raise CandidateBudgetError(
                f"step {t} needs {count} candidate evaluations;"
                f" budget {GREEDY_DEFAULT_BUDGET} exhausted"
            )
        evals_used += count
        best, pick, res = span_search(res, wl, sp, sum(wl))
        placed = [live[j] for j in pick]
        collected = [e for e, x in zip(live, res) if not x]
        determined.extend(collected)
        monitors.extend(placed)
        steps.append(
            StepRecord(frozenset(placed), frozenset(collected), Weight(best), count)
        )
        live = list(compress(live, res))
        wl = list(compress(wl, res))
        res = [x for x in res if x]

    # each step's gain is the weight it collects, and the steps collect
    # disjoint sets: the monitors and every edge whose label lies in
    # span(monitors)
    mon = frozenset(monitors)
    gain = Weight(sum(s.step_gain.micros for s in steps))
    return Solution(mon, frozenset(determined) - mon, gain, GreedyTrace(tuple(steps)))


def sigma_greedy(g: Graph, cfg: SolverConfig) -> Solution:
    """The batched greedy (_batches) on all of g's edges."""
    return _batches(range(len(g.edges)), cut_labels(g), g.weights_micros, cfg)


def _check_exact_size(m: int, k: int) -> None:
    """Refuse an exhaustive search over m edges whose C(m, min(k, m))
    subsets exceed EXACT_DEFAULT_BUDGET."""
    size = min(k, m)
    total = comb(m, size)
    if total > EXACT_DEFAULT_BUDGET:
        raise SizeGuardError(
            f"exhaustive search needs C({m},{size}) = {total} evaluations;"
            f" the guard allows {EXACT_DEFAULT_BUDGET}"
        )


def exact(g: Graph, k: int) -> Solution:
    """Maximum-gain monitor set: the batched greedy with one batch of
    size k, and no trace.

    That one step scores every subset of size exactly min(k, m): gain
    never decreases when a monitor is added, so the optimum over sets of
    size at most k is attained at full size. Refuses instances whose
    subset count exceeds EXACT_DEFAULT_BUDGET.
    """
    cfg = SolverConfig(k=k, sigma=k)
    m = len(g.edges)
    _check_exact_size(m, k)
    sol = _batches(range(m), cut_labels(g), g.weights_micros, cfg)
    return Solution(sol.monitors, sol.determined_extras, sol.gain)


def _batch_size(name: str) -> int | None:
    """The sigma of the solver named greedy1, greedy2 or greedy:<sigma>
    (sigma >= 1), or None for exact; any other name is refused."""
    if name == "exact":
        return None
    if name == "greedy1":
        return 1
    if name == "greedy2":
        return 2
    if not name.startswith("greedy:"):
        raise ValidationError(f"unknown solver {name!r}")
    try:
        sigma = int(name.split(":", 1)[1])
    except ValueError:
        raise ValidationError(f"bad solver name {name!r}") from None
    # also checked here, so a bad sigma is reported before SolverConfig's k
    if sigma < 1:
        raise ValidationError("batch size sigma must be at least 1")
    return sigma


def make_solver(name: str) -> Callable[[Graph, int], Solution]:
    """The Graph solver named greedy1, greedy2, greedy:<sigma> (sigma >= 1)
    or exact."""
    sigma = _batch_size(name)
    if sigma is None:
        return exact
    return lambda g, k: sigma_greedy(g, SolverConfig(k=k, sigma=sigma))


def full_determination(g: Graph) -> frozenset[int]:
    """Monitors that determine every edge: the complement of a spanning
    forest. Size is m - n + (number of components)."""
    return frozenset(range(len(g.edges))) - spanning_forest(g)


def solve_pipeline(g: Graph, k: int, algo: str) -> Solution:
    """Solve on the deputies of G's edge groups with the solver named
    `algo` (make_solver's names), in G's own ids.

    The name is checked first, then k, which must be at least 1, even on
    a graph with no edges. With k >= m the answer is trivially all
    edges. Otherwise G is labelled once (cut_labels). The bridges, its
    zero labels, are stripped: their flow is known (zero) without
    spending monitors, they come back in zero_flow and never count
    toward gain. The edge groups are the equal non-zero labels, each
    with its highest id as deputy. The cuts of the reduced graph
    (reduce.preprocess) are the cuts of G made only of deputies, so the
    batch loop runs on the deputies in ascending id order, with their G
    labels and their groups' total weights, and picks what it picks on
    the reduced graph: same monitors, gain, size guard, budget and trace,
    in original ids. The extras are the bridges of G minus the monitors,
    less the stripped bridges, read off one masked walk of G; their
    total with the monitors must equal the solver's gain, which checks
    the grouping and the solver together (FlowmonError otherwise).
    """
    sigma = _batch_size(algo)
    cfg = SolverConfig(k=k, sigma=sigma or k)
    m = len(g.edges)
    if k >= m:
        return Solution(frozenset(range(m)), frozenset(), g.total_weight())
    labels = cut_labels(g)
    classes = sorted(_label_groups(labels), key=itemgetter(-1))
    deputies = [cls[-1] for cls in classes]
    w = g.weights_micros
    weights = [sum(map(w.__getitem__, cls)) if len(cls) > 1 else w[cls[0]] for cls in classes]
    if sigma is None:
        _check_exact_size(len(deputies), k)
    sub = _batches(deputies, list(map(labels.__getitem__, deputies)), weights, cfg)
    stripped = frozenset(compress(range(m), map(not_, labels)))
    extras = frozenset(bridge_ids(g, make_mask(g, sub.monitors))) - stripped
    total = sum(map(w.__getitem__, sub.monitors)) + sum(map(w.__getitem__, extras))
    if total != sub.gain.micros:
        raise FlowmonError(f"lifted gain {total} differs from the solver's {sub.gain.micros}")
    return Solution(
        sub.monitors, extras, sub.gain, sub.trace if sigma else None, zero_flow=stripped
    )
