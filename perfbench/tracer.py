"""Outside-in tracer: wraps flowmon's public functions from the outside.

flowmon itself is not instrumented. `Tracer.wrap()` replaces each traced
function in every flowmon module namespace that binds it (so both
`cli -> solvers.solve_pipeline` and `reduce.preprocess -> strip_bridges`
go through the wrapper), and `unwrap()` puts the original objects back.
Each call records one span (name, start, end, parent span, operation id)
in flat in-memory arrays; `write()` dumps them when the run ends.

Per-layer figures are derived from the spans: a span's self time is its
duration minus the durations of its direct children (calls are
sequential, so children never overlap). Counters derived from arguments
and return values are added at the same boundary.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# (module, function) pairs traced; the module is where the function is defined
TARGETS = (
    ("cli", "main"),
    ("textio", "parse_graph"),
    ("textio", "parse_readings"),
    ("textio", "format_graph"),
    ("textio", "format_reduction_map"),
    ("reduce", "preprocess"),
    ("reduce", "strip_bridges"),
    ("reduce", "merge_components"),
    ("reduce", "edge_groups"),
    ("reduce", "contract_groups"),
    ("reduce", "lift_monitors"),
    ("solvers", "solve_pipeline"),
    ("solvers", "sigma_greedy"),
    ("solvers", "exact"),
    ("graph", "bridge_ids"),
    ("graph", "component_labels"),
    ("graph", "reachable_from"),
    ("graph", "is_c_edge_connected"),
    ("graph", "spanning_forest"),
    ("flowsim", "infer"),
    ("kernel", "kernel_graph"),
    ("hardness", "reduce_clique"),
    ("hardness", "decide_flow_monitors"),
)


def _edge_visits(c, args, res):
    c["graph.edge_visits"] += len(args[0].edges)


def _strip(c, args, res):
    c["reduce.bridges_stripped"] += len(res[1])


def _groups(c, args, res):
    c["reduce.groups"] += len(res)


def _preprocess(c, args, res):
    c["reduce.reduced_m"] += len(res[0].edges)


def _greedy(c, args, res):
    steps = res.trace.steps if res.trace else ()
    c["solvers.steps"] += len(steps)
    c["solvers.candidates"] += sum(s.candidates for s in steps)
    c["solvers.placed"] += len(res.monitors)


def _infer(c, args, res):
    c["flowsim.determined"] += len(res.determined)
    c["flowsim.undetermined"] += len(res.undetermined)
    c["flowsim.violations"] += len(res.violations)


def _kernel(c, args, res):
    c["kernel.edges"] += len(res.graph.edges)


# counters read off a traced call's arguments and result
HOOKS = {
    "graph.bridge_ids": _edge_visits,
    "graph.component_labels": _edge_visits,
    "graph.reachable_from": _edge_visits,
    "reduce.strip_bridges": _strip,
    "reduce.edge_groups": _groups,
    "reduce.preprocess": _preprocess,
    "solvers.sigma_greedy": _greedy,
    "flowsim.infer": _infer,
    "kernel.kernel_graph": _kernel,
}


def flowmon_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "flowmon" or name.startswith("flowmon."))]


def originals() -> dict[str, object]:
    """Traced name -> the function object its home module defines."""
    return {f"{mod}.{fn}": getattr(importlib.import_module(f"flowmon.{mod}"), fn)
            for mod, fn in TARGETS}


class Tracer:
    def __init__(self) -> None:
        self.names = [f"{m}.{f}" for m, f in TARGETS]
        self.originals = originals()
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.op_id = -1
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._wrappers = {n: self._make_wrapper(i, n) for i, n in enumerate(self.names)}
        self._by_id = {id(fn): n for n, fn in self.originals.items()}
        self._patched: list[tuple[object, str, object]] = []

    def _make_wrapper(self, idx: int, name: str):
        fn = self.originals[name]
        hook = HOOKS.get(name)
        names, starts, ends, parents, ops, stack = (
            self.name, self.start, self.end, self.parent, self.op, self.stack)
        counters = self.counters
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if hook is not None:
                hook(counters, args, result)
            return result

        return wrapper

    def wrap(self) -> None:
        if self._patched:
            raise RuntimeError("already wrapped")
        for mod in flowmon_modules():
            for attr, value in list(vars(mod).items()):
                name = self._by_id.get(id(value))
                if name is not None and value is self.originals[name]:
                    setattr(mod, attr, self._wrappers[name])
                    self._patched.append((mod, attr, value))

    def unwrap(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def spans(self) -> int:
        return len(self.start)

    def aggregate(self, op_kind: dict[int, str]) -> dict:
        """Per traced name: calls, inclusive and self seconds, overall and
        per operation kind. Inclusive time counts only spans with no
        same-name ancestor, so recursion is not double counted."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        total = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        by_kind = defaultdict(lambda: defaultdict(float))
        for i in range(n):
            nm = self.names[self.name[i]]
            row = total[nm]
            row["calls"] += 1
            row["self_s"] += dur[i] - child[i]
            p = self.parent[i]
            while p >= 0 and self.name[p] != self.name[i]:
                p = self.parent[p]
            if p < 0:
                row["s"] += dur[i]
                by_kind[op_kind.get(self.op[i], "?")][nm] += dur[i]
        return {"total": dict(total), "by_kind": {k: dict(v) for k, v in by_kind.items()}}

    def write(self, path) -> None:
        """Spans as gzip'd text: name start end parent op, one per line."""
        with gzip.open(path, "wt") as fh:
            fh.write("name start end parent op\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name[i]]} {self.start[i]:.9f} {self.end[i]:.9f}"
                         f" {self.parent[i]} {self.op[i]}\n")


def snapshot() -> dict[tuple[str, str], object]:
    """Every binding of every loaded flowmon module."""
    return {(mod.__name__, attr): value
            for mod in flowmon_modules() for attr, value in vars(mod).items()}


_MISSING = object()


def differences(before: dict, after: dict) -> list[str]:
    """Bindings that were added, removed or rebound to another object."""
    return sorted(f"{m}.{a}" for m, a in before.keys() | after.keys()
                  if before.get((m, a), _MISSING) is not after.get((m, a), _MISSING))
