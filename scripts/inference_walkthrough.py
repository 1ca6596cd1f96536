#!/usr/bin/env python3
"""End-to-end walkthrough on the bundled 8-vertex demo instance.

Prints the instance, infers every forced flow from the four monitor
readings, shows the kernel contraction around the monitor set, and runs
the preprocessing reduction. Everything here is also covered by tests;
the script exists to make the moving parts easy to poke at."""

from flowmon.flowsim import infer
from flowmon.generators import gen_fig1
from flowmon.graph import gain
from flowmon.kernel import check_kernel_bound, kernel_graph
from flowmon.reduce import preprocess
from flowmon.textio import format_graph


def main() -> None:
    g, monitors, readings = gen_fig1()
    print(format_graph(g))
    print(f"monitors: {sorted(monitors)}  readings: {readings}")
    print(f"gain of the monitor set: {gain(g, monitors)} (of {g.total_weight()} total)\n")

    res = infer(g, monitors, readings)
    for e in sorted(res.determined):
        tag = "measured" if e in monitors else "forced"
        print(f"edge {e} ({g.us[e]}->{g.vs[e]}): flow {res.determined[e]:>2} [{tag}]")
    print(f"undetermined: {sorted(res.undetermined)} (one free cycle)\n")

    kg = kernel_graph(g, monitors)
    km = len(kg.graph.weights_micros)
    print(f"kernel: {kg.graph.vertex_count} vertices, {km} edges,"
          f" bound |E| <= k + |V| - 1 is {'tight' if km == 4 + kg.graph.vertex_count - 1 else 'slack'}"
          f" ({check_kernel_bound(kg, len(monitors))})")
    for e, (u, v) in enumerate(zip(kg.graph.us, kg.graph.vs)):
        print(f"  kernel edge {e} ({u}->{v}) represents original {kg.represents[e]}")

    reduced, rmap = preprocess(g)
    groups = {}
    for orig, gi in rmap.group_of.items():
        groups.setdefault(gi, []).append(orig)
    multi = {gi: sorted(m) for gi, m in groups.items() if len(m) > 1}
    print(f"\nreduction: {reduced.vertex_count} vertices, {len(reduced.weights_micros)} edges,"
          f" multi-edge groups: {multi or 'none'}")


if __name__ == "__main__":
    main()
