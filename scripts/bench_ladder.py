"""Time flowmon's stages on a fixed instance ladder and write the medians
to a JSON file.

    PYTHONPATH=src python scripts/bench_ladder.py --out BENCH_N.json
    PYTHONPATH=src python scripts/bench_ladder.py --quick --out /tmp/bench.json

The library is called directly, from the `flowmon` on the path, and each
stage is one call timed with perf_counter, the cyclic garbage collector
paused as the CLI pauses it:

    parse          textio.parse_graph on the canonical text
    search_forest  graph.search_forest
    kernel_labels  graph.kernel_labels(g, M)
    infer          flowsim.infer(g, M, readings)
    kernel_graph   kernel.kernel_graph(g, M)
    _label_forest  cutspace._label_forest, the labelled forest behind preprocess and solve
    deputies       cutspace.deputies, those labels grouped into the deputy view
    preprocess     reduce.preprocess
    solve          solvers.solve_pipeline(g, 8, "greedy1")

Every stage but parse runs on a graph parsed just before it, untimed, so
each pays what a command pays after parsing: work a graph defers to its
first traversal lands in the stage that traverses it first. M is a
seeded sample of m // 50 edges and the readings are a seeded random
circulation measured on M, both found on a graph of their own.

The host's speed drifts by a third and more within minutes, so each run
is also host-adjusted with perfbench/run.py's own clock, imported from
it: its reference loop (reference_s) is timed just before the run, and
the run time is scaled by REF_NOMINAL_S over the loop's time. A case's
"median_s" is the median of its adjusted runs, "raw_median_s" that of
its wall-clock runs.

The instances are circ (generators.gen_circulant, m = 2n) and rand
(generators.random_connected_multigraph with n = 2m / 5, seed 3), at
m = 4000, 20000 and 100000; --quick keeps m = 4000. Each file records
the median of REPEATS runs per case, a case being one stage on one
instance. A case that runs past CAP_S seconds, or needs more than
CAP_MIB MiB of address space beyond what the process holds
when it starts, is stopped (SIGALRM, and RLIMIT_AS on this process
only, read against /proc/self/statm, so Linux) and recorded as
"over-cap"; its later repeats are skipped. Each instance is named with
the sha256 digest of its canonical text, so two files can be checked
to time the same graphs. scripts/bench_compare.py
prints the per-stage ratios between two files.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import platform
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

from flowmon import cutspace, flowsim, generators, graph, kernel, reduce, solvers, textio

# one host clock: the reference loop and nominal time of perfbench/run.py,
# which loads no flowmon module until its main runs
_spec = importlib.util.spec_from_file_location(
    "perfbench_run", Path(__file__).resolve().parents[1] / "perfbench" / "run.py")
_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_bench)
REF_NOMINAL_S, reference_s = _bench.REF_NOMINAL_S, _bench.reference_s

SCHEMA = 1
LADDER = (4000, 20000, 100000)
REPEATS = 3
CAP_S = 20.0
CAP_MIB = 256
OVER_CAP = "over-cap"
STAGES = {
    "parse": lambda text, g, mon, readings: textio.parse_graph(text),
    "search_forest": lambda text, g, mon, readings: graph.search_forest(g),
    "kernel_labels": lambda text, g, mon, readings: graph.kernel_labels(g, mon),
    "infer": lambda text, g, mon, readings: flowsim.infer(g, mon, readings),
    "kernel_graph": lambda text, g, mon, readings: kernel.kernel_graph(g, mon),
    "_label_forest": lambda text, g, mon, readings: cutspace._label_forest(g),
    "deputies": lambda text, g, mon, readings: cutspace.deputies(g),
    "preprocess": lambda text, g, mon, readings: reduce.preprocess(g),
    "solve": lambda text, g, mon, readings: solvers.solve_pipeline(g, 8, "greedy1"),
}


class OverCap(Exception):
    pass


def _alarm(signum, frame):
    raise OverCap


def instances(sizes):
    """(name, graph) for circ and rand at each size m."""
    for m in sizes:
        yield f"circ-{m}", generators.gen_circulant(m // 2)
        yield f"rand-{m}", generators.random_connected_multigraph(2 * m // 5, m, seed=3)


def _address_space() -> int:
    """This process's virtual memory size in bytes."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[0]) * resource.getpagesize()


def time_case(stage, text: str, mon, readings):
    """One stage's medians and runs, in seconds, or OVER_CAP."""
    runs, refs = [], []
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    for _ in range(REPEATS):
        g = textio.parse_graph(text)
        refs.append(reference_s())
        gc.collect()
        gc.disable()
        resource.setrlimit(resource.RLIMIT_AS, (_address_space() + (CAP_MIB << 20), hard))
        signal.setitimer(signal.ITIMER_REAL, CAP_S)
        try:
            t0 = time.perf_counter()
            stage(text, g, mon, readings)
            runs.append(time.perf_counter() - t0)
        except (OverCap, MemoryError):
            return OVER_CAP
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            resource.setrlimit(resource.RLIMIT_AS, (hard, hard))
            gc.enable()
            del g
    adjusted = [t * REF_NOMINAL_S / ref for t, ref in zip(runs, refs)]
    return {"median_s": statistics.median(adjusted), "raw_median_s": statistics.median(runs),
            "runs_s": runs, "refs_s": refs}


def run(sizes, log) -> dict:
    signal.signal(signal.SIGALRM, _alarm)
    out = []
    for name, g0 in instances(sizes):
        text = textio.format_graph(g0)
        del g0
        probe = textio.parse_graph(text)
        n, m = probe.vertex_count, len(probe.weights_micros)
        mon = sorted(random.Random(m).sample(range(m), m // 50))
        readings = flowsim.measure(flowsim.random_circulation(probe, seed=m), mon)
        del probe
        cases = {}
        for stage_name, stage in STAGES.items():
            case = cases[stage_name] = time_case(stage, text, mon, readings)
            shown = case if case == OVER_CAP else f"{case['median_s'] * 1e3:.2f} ms"
            print(f"{name:12} {stage_name:14} {shown}", file=log, flush=True)
        out.append({
            "name": name,
            "n": n,
            "m": m,
            "digest": hashlib.sha256(text.encode()).hexdigest(),
            "stages": cases,
        })
    return {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "repeats": REPEATS,
        "ref_nominal_s": REF_NOMINAL_S,
        "cap_s": CAP_S,
        "cap_mib": CAP_MIB,
        "monitors": "m // 50 edges, seeded by m",
        "instances": out,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--quick", action="store_true", help=f"only m = {LADDER[0]}")
    args = p.parse_args(argv)
    report = run(LADDER[:1] if args.quick else LADDER, sys.stderr)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
