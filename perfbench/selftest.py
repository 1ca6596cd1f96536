"""Self-tests of the benchmark itself, run before every measurement.

    python3 perfbench/selftest.py      (from the root of a flowmon checkout)

Tampered answers (one monitor id changed, a flipped verdict, a wrong
flow, a dropped kernel edge, a flipped decision, a changed pinned trace)
must each count as a failed operation, and wrapping then unwrapping
flowmon must leave every module binding identical.
"""

from __future__ import annotations

import random
import re
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _tampered(op, edit):
    """The same operation, but its answer passes through `edit` first."""
    return replace(op, run=lambda: edit(*op.run()))


def _first(pattern: str, repl, text: str) -> str:
    new = re.sub(pattern, repl, text, count=1, flags=re.M)
    if new == text:
        raise ValueError(f"nothing to tamper with: {pattern}")
    return new


def tamper_cases(b) -> list[tuple[str, object]]:
    import check
    import gen
    import workloads as w

    mesh = b.inst(*gen.mesh_graph(1, 16, 1))
    m = len(mesh.edges)
    solve = w.solve1_op(mesh)
    tree = b.inst(*gen.treelike_graph(2, 40, 12))
    flow = gen.hidden_circulation(3, tree.n, tree.edges)
    mon = w.spanning_complement(tree, random.Random(4))
    readings = {e: flow[e] for e in mon}
    ids = ",".join(map(str, mon))
    rpath = b.file("".join(f"r {e} {readings[e]}\n" for e in mon))
    infer = w.Op("infer", lambda: w.cli_call(["infer", tree.path, "-m", ids, "-r", rpath]),
                 lambda rc, out: check.check_infer(tree, mon, readings, out, rc, flow, True), "")
    kernel = w.Op("kernel", lambda: w.cli_call(["kernel", tree.path, "-m", ids]),
                  lambda rc, out: check.check_kernel(tree, mon, out), "")
    simple = b.inst(*gen.connected_simple(5, 7, 10))
    q = check.clique_params(7, 10)[0][0]
    decide = w.Op("decide", lambda: w.decide_call(simple.path, q),
                  lambda ans, out: check.check_decide(simple, q, ans), "")
    exact = w.exact_op(b, 6, 1)
    reduce = w.reduce_op(b.inst(*gen.access_graph(7, 2, 3, 30, 4)), 2 * 3 * 3)

    def pinned(edit):
        """solve on the mesh, pinned to its own untampered answer."""
        op = w.solve1_op(mesh)
        run_solve = op.run

        def run():
            rc, out = run_solve()
            op.pin = check.pin_digest(out)
            return edit(rc, out)

        op.run = run
        return op

    def other_monitor(rc, out):
        used = {int(x) for x in re.findall(r"^M (\d+)$", out, re.M)}
        first = min(used)
        spare = next(e for e in range(m) if e not in used)
        return rc, _first(rf"^M {first}$", f"M {spare}", out)

    return [
        ("untampered solve", solve),
        ("untampered infer", infer),
        ("untampered kernel", kernel),
        ("untampered decide", decide),
        ("untampered exact", exact),
        ("untampered reduce", reduce),
        ("untampered pinned solve", pinned(lambda rc, out: (rc, out))),
        ("solve with one monitor id changed", _tampered(solve, other_monitor)),
        ("exact with one monitor id changed", _tampered(exact, lambda rc, out: (
            rc, _first(r"^M (\d+)$", lambda mo: f"M {(int(mo[1]) + 1) % 17}", out)))),
        ("infer with a flipped verdict", _tampered(infer, lambda rc, out: (
            rc, out.replace("CONSISTENT yes", "CONSISTENT no")))),
        ("infer with a wrong flow", _tampered(infer, lambda rc, out: (
            rc, _first(r"^F (\d+) (-?\d+)$", lambda mo: f"F {mo[1]} {int(mo[2]) + 1}", out)))),
        ("infer with a wrong exit code", _tampered(infer, lambda rc, out: (4, out))),
        ("kernel with an edge dropped", _tampered(kernel, lambda rc, out: (
            rc, _first(r"^K \d+ \d+\n", "", out)))),
        ("decide with a flipped answer", _tampered(decide, lambda ans, out: (not ans, out))),
        ("reduce with a changed weight", _tampered(reduce, lambda rc, out: (
            rc, _first(r"^e (\d+) (\d+) (\d+)$", lambda mo: f"e {mo[1]} {mo[2]} {int(mo[3]) + 1}", out)))),
        ("pinned solve with a changed trace gain", pinned(lambda rc, out: (
            rc, _first(r"^(T \d+ P \S+ Y \S+ G )(\d+)", lambda mo: f"{mo[1]}{int(mo[2]) + 1}", out)))),
    ]


def run_all() -> tuple[list[str], list[str]]:
    """(benchmark problems, program failures). The first list is empty
    when the benchmark's checks are live: every tampered answer was
    rejected and wrapping left no trace. The second lists untampered
    answers that failed their checks, which is the program's fault."""
    import tracer
    import workloads as w

    problems, failures = [], []
    before = tracer.snapshot()
    t = tracer.Tracer()
    t.wrap()
    wrapped = tracer.differences(before, tracer.snapshot())
    t.unwrap()
    if "flowmon.solvers.bridge_ids" not in wrapped:
        problems.append("wrapping did not reach flowmon.solvers.bridge_ids")
    after = tracer.differences(before, tracer.snapshot())
    if after:
        problems.append(f"unwrapping left {after} changed")

    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for label, op in tamper_cases(w.Builder(Path(tmp))):
            try:
                _, problem = w.execute(op)
            except Exception as exc:  # the untampered run itself failed
                problem = f"{type(exc).__name__}: {exc}"
            if label.startswith("untampered") and problem is not None:
                failures.append(f"{label}: {problem}")
            elif not label.startswith("untampered") and problem is None:
                problems.append(f"{label} was accepted")
    return problems, failures


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(HERE.parent / "src"))
    import flowmon.cli  # noqa: F401

    problems, failures = run_all()
    for p in problems + failures:
        print(f"FAIL {p}")
    found = len(problems) + len(failures)
    print("self-tests passed" if not found else f"{found} self-test(s) failed")
    sys.exit(1 if found else 0)
