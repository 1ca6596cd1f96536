"""flowmon benchmark: one seeded workload, closed loop, one client.

    python3 perfbench/run.py --workload solve-access --seed 1 --seconds 25 --trace 0

Run from the root of a flowmon checkout; flowmon is imported from `src/`.
The workload's operation list is executed in order, and cycled, until
`--seconds` have passed; every answer is checked (see check.py) and a
wrong, failed or over-time answer counts as a failed operation.

Times are host-adjusted: the host's speed drifts by a third and more
within minutes, so a fixed pure-Python reference loop is timed right
before each operation (at most every 50 ms) and each raw time is scaled
by REF_NOMINAL_S over that reference time. The reported "s" are seconds
on a host where the reference loop takes REF_NOMINAL_S; raw wall-clock
figures go to the results file and the human-readable lines.

--trace 0 prints the end-to-end metrics; --trace 1 runs every operation
twice, untraced then traced through tracer.py, and prints the per-layer
metrics (layer times there are raw seconds). Human-readable lines go first; the last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}. A results file
with the environment, input digests and per-operation-kind figures goes
to perfbench/results/. Exit code 0 when every answer checked out, 1 when
one did not, 2 when flowmon cannot be found.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 7
REF_ITERATIONS = 12_000
REF_NOMINAL_S = 0.001  # reference loop time that defines a host-adjusted second
REF_EVERY_S = 0.05

SETUP_CODE = "import sys; sys.path.insert(0, 'src'); import flowmon.cli as c; c.build_parser()"


def percentile_tail(samples: list[float]) -> tuple[float, int | None]:
    """The highest whole percentile with at least ten samples above it
    (nearest-rank), and that percentile; with ten samples or fewer there
    is none, and the maximum is returned with percentile None."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], None
    p = math.floor(100 * (n - 10) / n)
    return s[max(0, math.ceil(p * n / 100) - 1)], p


def reference_s() -> float:
    """The host's speed right now: median of three timings of a fixed
    pure-Python loop (about 1 ms on a 2.1 GHz Xeon vCPU)."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(REF_ITERATIONS):
            total += i * i % 7
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


class HostClock:
    """Scales raw durations to host-adjusted seconds using the latest
    reference timing, refreshed before an operation once REF_EVERY_S
    has passed since the last one."""

    def __init__(self) -> None:
        self.refs: list[float] = []
        self.at = -math.inf

    def refresh(self) -> None:
        if time.perf_counter() - self.at >= REF_EVERY_S:
            self.refs.append(reference_s())
            self.at = time.perf_counter()

    def adjust(self, raw: float) -> float:
        return raw * REF_NOMINAL_S / self.refs[-1]


def measure_setup(clock: HostClock) -> tuple[float, float]:
    """Median host-adjusted and raw wall time of a fresh interpreter
    importing flowmon and building the CLI parser, after one unmeasured
    start."""
    adjusted, raw = [], []
    for i in range(SETUP_REPEATS + 1):
        clock.at = -math.inf
        clock.refresh()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True)
        if i:
            raw.append(time.perf_counter() - t0)
            adjusted.append(clock.adjust(raw[-1]))
    return statistics.median(adjusted), statistics.median(raw)


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "flowmon" / "cli.py").is_file():
        print(f"error: no flowmon sources under {SRC}; run from a flowmon checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import flowmon.cli  # noqa: F401  (loads every flowmon module)

    import selftest
    import tracer as tracer_mod

    pristine = tracer_mod.snapshot()  # taken before anything is wrapped
    problems, selftest_failures = selftest.run_all()
    if problems:
        for p in problems:
            print(f"benchmark self-test failed: {p}", file=sys.stderr)
        return 1

    build, kinds = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(dir=HERE, prefix="work-") as workdir:
        ops = build(args.seed, workloads.Builder(Path(workdir)), workloads.load_pins())
        clock = HostClock()
        setup = measure_setup(clock) if not args.trace else (None, None)
        report = run_loop(args, ops, kinds, workloads, tracer_mod, pristine, clock)
    report["setup_s"], report["setup_raw_s"] = setup
    report["ref_ms"] = [r * 1000 for r in clock.refs]
    report["failures"][:0] = [f"self-test {f}" for f in selftest_failures]
    report["attempted"] += len(selftest_failures)
    return finish(args, ops, kinds, report)


def run_loop(args, ops, kinds, workloads, tracer_mod, pristine, clock: HostClock) -> dict:
    execute = workloads.execute
    failures: list[str] = []
    attempted = done = 0

    def unchanged() -> bool:
        changed = tracer_mod.differences(pristine, tracer_mod.snapshot())
        if changed:
            failures.append(f"flowmon bindings differ from the originals: {changed[:5]}")
        return not changed

    # warm-up: one operation of each kind, checked but not timed
    warm = {}
    for op in ops:
        warm.setdefault(op.kind, op)
    for op in warm.values():
        _, problem = execute(op)
        attempted += 1
        if problem:
            failures.append(f"{op.kind} {op.digest} (warm-up): {problem}")

    tracer = tracer_mod.Tracer() if args.trace else None
    lat: dict[str, list[float]] = {k: [] for k in warm}  # host-adjusted
    raw_lat: dict[str, list[float]] = {k: [] for k in warm}
    traced_lat: dict[str, list[float]] = {k: [] for k in warm}  # raw, like the spans
    ratios: list[float] = []
    op_kind: dict[int, str] = {}
    deadline = time.perf_counter() + args.seconds
    i = 0
    while time.perf_counter() < deadline:
        op = ops[i % len(ops)]
        clock.refresh()
        raw, problem = execute(op)
        elapsed = clock.adjust(raw)
        attempted += 1
        if problem:
            failures.append(f"{op.kind} {op.digest}: {problem}")
        else:
            done += 1
            lat[op.kind].append(elapsed)
            raw_lat[op.kind].append(raw)
        if tracer is not None:
            untraced_ok = problem is None
            tracer.op_id = i
            op_kind[i] = op.kind
            clock.refresh()
            tracer.wrap()
            try:
                t_raw, problem = execute(op)
            finally:
                tracer.unwrap()
                tracer.op_id = -1
            t_elapsed = clock.adjust(t_raw)
            attempted += 1
            if problem:
                failures.append(f"{op.kind} {op.digest} (traced): {problem}")
            else:
                traced_lat[op.kind].append(t_raw)
                if untraced_ok:
                    ratios.append(t_elapsed / elapsed)
            unchanged()
        i += 1
    unchanged()
    return {"lat": lat, "raw_lat": raw_lat, "traced_lat": traced_lat, "ratios": ratios, "op_kind": op_kind,
            "failures": failures, "attempted": attempted, "done": done, "tracer": tracer,
            "ops_run": i}


def latency_block(samples: list[float]) -> dict:
    if not samples:
        return {"count": 0}
    tail, pct = percentile_tail(samples)
    return {"count": len(samples), "p50": statistics.median(samples), "tail": tail,
            "tail_percentile": pct, "mean": statistics.fmean(samples)}


def layer_metrics(report: dict, names: list[str], ops_traced: int) -> tuple[dict, dict]:
    """Per traced operation: `<fn>.s` inclusive seconds, `<fn>.self_s`
    self seconds, `<fn>.calls` calls; any other name is a tracer counter."""
    agg = report["tracer"].aggregate(report["op_kind"])
    c = report["tracer"].counters
    per = max(ops_traced, 1)
    out = {}
    for name in names:
        fn, _, field = name.rpartition(".")
        if name == "trace.overhead_ratio":
            out[name] = statistics.median(report["ratios"]) - 1 if report["ratios"] else 0.0
        elif name == "solvers.useful_ratio":
            out[name] = c["solvers.placed"] / c["solvers.candidates"] if c["solvers.candidates"] else 0.0
        elif field in ("s", "self_s", "calls"):
            out[name] = agg["total"].get(fn, {}).get(field, 0) / per
        else:
            out[name] = c[name] / per
    return out, agg


def finish(args, ops, kinds, report) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    lat = report["lat"]
    blocks = {k: latency_block(v) for k, v in lat.items()}
    attempted, failures = report["attempted"], report["failures"]
    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "implementation": platform.python_implementation(), "platform": platform.platform(),
        "machine": platform.machine(), "nproc": os.cpu_count(),
        "op1": kinds[0], "op2": kinds[1],
        "inputs": sorted({f"{op.kind}:{op.digest}" for op in ops}),
        "ops_in_list": len(ops), "ops_run": report["ops_run"],
        "attempted": attempted, "failed": len(failures),
        "failed_ratio": len(failures) / max(attempted, 1),
        "failures": failures[:20],
        "reference_loop": {"iterations": REF_ITERATIONS, "nominal_ms": REF_NOMINAL_S * 1000,
                           "timings": len(report["ref_ms"]),
                           "median_ms": statistics.median(report["ref_ms"]),
                           "min_ms": min(report["ref_ms"]), "max_ms": max(report["ref_ms"])},
        "latency_s": blocks,
        "latency_raw_s": {k: latency_block(v) for k, v in report["raw_lat"].items()},
        "setup_raw_s": report["setup_raw_s"],
    }
    if args.trace:
        traced = sum(len(v) for v in report["traced_lat"].values())
        metrics, agg = layer_metrics(report, [m["name"] for m in bench["per_layer"]], traced)
        counts = {k: len(v) for k, v in report["traced_lat"].items()}
        results["traced_latency_s"] = {k: latency_block(v) for k, v in report["traced_lat"].items()}
        results["layers_by_kind_s_per_op"] = {
            kind: {name: s / counts[kind] for name, s in sorted(row.items())}
            for kind, row in agg["by_kind"].items() if counts.get(kind)}
        results["spans"] = report["tracer"].spans()
    else:
        total_time = sum(sum(v) for v in lat.values())
        metrics = {
            "setup_s": report["setup_s"],
            "ops_per_s": report["done"] / total_time if total_time else 0.0,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        for slot, kind in zip(("op1", "op2"), kinds):
            b = blocks.get(kind, {})
            metrics[f"{slot}_s_p50"] = b.get("p50", 0.0)
            metrics[f"{slot}_s_tail"] = b.get("tail", 0.0)
        metrics = {m["name"]: metrics[m["name"]] for m in bench["end_to_end"]}
    results["metrics"] = metrics

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(results, indent=1) + "\n")
    if args.trace:
        report["tracer"].write(RESULTS / f"{args.workload}-seed{args.seed}.spans.gz")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}:"
          f" {attempted} attempted, {len(failures)} failed"
          f" (failed_ratio {results['failed_ratio']:.4f}); reference loop"
          f" {results['reference_loop']['median_ms']:.3f} ms (nominal {REF_NOMINAL_S * 1000:g})")
    for f in failures[:10]:
        print(f"  FAILED {f}")
    for kind, b in blocks.items():
        if b["count"]:
            r = results["latency_raw_s"][kind]
            print(f"  {kind}_s_p50 = {b['p50']:.6f} s; {kind}_s_tail = {b['tail']:.6f} s"
                  f" (p{b['tail_percentile']}, n={b['count']}); raw {r['p50']:.6f} s, {r['tail']:.6f} s")
    if args.trace:
        for kind, row in results["layers_by_kind_s_per_op"].items():
            whole = results["traced_latency_s"][kind]["mean"]
            top = sorted(row.items(), key=lambda kv: -kv[1])[:6]
            print(f"  {kind} traced {whole:.6f} s/op: " + ", ".join(
                f"{name} {s / whole:.0%}" for name, s in top))
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units.get(name, '')}")
    correct = not failures
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units.get(name, "")}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
