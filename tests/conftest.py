from __future__ import annotations

import os
import random
import sys
from collections import Counter

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

import oracles
from flowmon import cutspace, graph, reduce, solvers
from flowmon.graph import Graph
from flowmon.solvers import SolverConfig, sigma_greedy

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# HYPOTHESIS_PROFILE=explore draws fresh examples on every run, where the
# derandomized suite profile replays the same ones
settings.register_profile(
    "explore",
    derandomize=False,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "suite"))


@st.composite
def multigraphs(draw, min_n=1, max_n=8, max_m=12, min_w=1, max_w=5):
    """Arbitrary small multigraphs: parallels, loops, and disconnection
    all welcome."""
    n = draw(st.integers(min_n, max_n))
    m = draw(st.integers(0, max_m))
    edges = [
        (
            draw(st.integers(0, n - 1)),
            draw(st.integers(0, n - 1)),
            draw(st.integers(min_w, max_w)),
        )
        for _ in range(m)
    ]
    return Graph.build(n, edges)


@st.composite
def bridgeless_graphs(draw, min_n=3, max_n=7, max_extra=5, max_w=5):
    """A cycle plus arbitrary extra chords, parallels, and loops; always
    connected and 2-edge-connected."""
    n = draw(st.integers(min_n, max_n))
    edges = [(i, (i + 1) % n, draw(st.integers(1, max_w))) for i in range(n)]
    extra = draw(st.integers(0, max_extra))
    for _ in range(extra):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        edges.append((u, v, draw(st.integers(1, max_w))))
    return Graph.build(n, edges)


def seeded_multigraph(seed: int, max_n=8, max_m=12, min_w=1, max_w=5) -> Graph:
    """Deterministic corpus entry used by the acceptance suite."""
    rng = random.Random(seed)
    n = rng.randint(1, max_n)
    m = rng.randint(0, max_m)
    edges = [
        (rng.randrange(n), rng.randrange(n), rng.randint(min_w, max_w))
        for _ in range(m)
    ]
    return Graph.build(n, edges)


@pytest.fixture()
def search_counts(monkeypatch):
    """Pair reads and fold_residual calls made by the searches of
    cutspace (span_search, and _best_pair at size 2, whose rows are
    _row's) and of oracles (span_search_exhaustive and pair_by_rows),
    counted per (module, kind). Each calls max once per row of pair
    reads, so a counting max shadows the builtin in each module's
    globals; it counts only the calls made from those functions, not
    take_class's argmax over its table, single_by_lists' over its gains
    or _pair_bounds' over the class weights."""
    counts = Counter()
    fold = cutspace.fold_residual
    readers = ("span_search", "_best_pair", "_row", "pair_by_rows")
    for name, module in (("cutspace", cutspace), ("oracles", oracles)):
        def counting_max(*args, name=name, **kwargs):
            if sys._getframe(1).f_code.co_name.startswith(readers):
                counts[name, "pair reads"] += 1
            return max(*args, **kwargs)

        def counting_fold(residuals, r, name=name):
            counts[name, "folds"] += 1
            return fold(residuals, r)

        monkeypatch.setattr(module, "max", counting_max, raising=False)
        monkeypatch.setattr(module, "fold_residual", counting_fold)
    return counts


def record_graph_calls(monkeypatch, *names):
    """The graph or cutspace functions named, wrapped wherever graph,
    cutspace, reduce or solvers bind them; returns name -> the graph of
    each call."""
    calls = {name: [] for name in names}
    for name in names:
        real = getattr(graph, name, None) or getattr(cutspace, name)

        def recording(g, *args, name=name, real=real):
            calls[name].append(g)
            return real(g, *args)

        for module in (graph, cutspace, reduce, solvers):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, recording)
    return calls


def greedy(sigma: int):
    """sigma_greedy with batch size sigma, as a solver g, k -> Solution."""
    return lambda g, k: sigma_greedy(g, SolverConfig(k=k, sigma=sigma))
