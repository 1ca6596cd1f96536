"""Timing and candidate-count harness for the greedy pipeline.

Each enumerated greedy step must evaluate exactly C(remaining, sigma')
subsets; the harness re-derives that count from the trace and flags any
mismatch. Instances are circulant graphs C_n(1, 2), which are 4-regular
and already 3-edge-connected, so preprocessing leaves the edge counts
intact and the per-step arithmetic stays transparent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb

from .errors import ValidationError
from .graph import Graph
from .solvers import make_solver, solve_pipeline


def circulant(n: int, offsets: tuple[int, ...] = (1, 2)) -> Graph:
    edges = [(v, (v + d) % n) for d in offsets for v in range(n)]
    return Graph.build(n, edges)


@dataclass(frozen=True)
class StepStat:
    step: int
    remaining: int
    sigma_prime: int
    candidates: int
    expected: int

    @property
    def ok(self) -> bool:
        return self.candidates == self.expected


@dataclass(frozen=True)
class BenchRow:
    m: int
    sigma: int
    k: int
    steps: tuple[StepStat, ...]
    evals: int
    seconds: float

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.steps)


def run_case(g: Graph, sigma: int, k: int) -> BenchRow:
    start = time.perf_counter()
    solution = solve_pipeline(g, k, make_solver(f"greedy:{sigma}"))
    seconds = time.perf_counter() - start
    stats = []
    trace = solution.trace
    for i, s in enumerate(trace.steps if trace else (), start=1):
        sp = len(s.monitors_placed)
        expected = 0 if s.remaining_before <= sp else comb(s.remaining_before, sp)
        stats.append(StepStat(i, s.remaining_before, sp, s.candidates, expected))
    return BenchRow(len(g.edges), sigma, k, tuple(stats), sum(s.candidates for s in stats), seconds)


def run_ladder(sizes: tuple[int, ...] = (12, 16, 20), sigmas: tuple[int, ...] = (1, 2), k: int = 4) -> list[BenchRow]:
    rows = []
    for m in sizes:
        if m % 2:
            raise ValidationError("circulant sizes must be even edge counts (m = 2n)")
        g = circulant(m // 2)
        for sigma in sigmas:
            rows.append(run_case(g, sigma, k))
    return rows


def format_report(rows: list[BenchRow]) -> str:
    lines = []
    for row in rows:
        lines.append(
            f"BENCH m={row.m} sigma={row.sigma} k={row.k} steps={len(row.steps)}"
            f" evals={row.evals} ok={'yes' if row.ok else 'NO'} time={row.seconds:.4f}s"
        )
        for s in row.steps:
            lines.append(
                f"  step {s.step} remaining={s.remaining} sigma'={s.sigma_prime}"
                f" candidates={s.candidates} expected={s.expected}"
            )
    return "\n".join(lines) + "\n"
