"""The four workloads as operation lists.

Each builder turns a seed into a list of `Op`s over freshly generated
input files. An op runs flowmon through a public entry point
(`flowmon.cli.main([...])`, or `hardness.reduce_clique` plus
`decide_flow_monitors` for `decide`) and knows how to check its own
answer. Module attributes are looked up at call time, so a traced run
sees the tracer's wrappers and an untraced run the original functions.

Sizes are chosen so one operation takes about 0.001-0.3 s on a 2.1 GHz
Xeon vCPU: a run of a few tens of seconds then holds enough operations of
each type for a median and a tail percentile with ten samples beyond it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import check
import gen

HERE = Path(__file__).resolve().parent
PINS = HERE / "pins.json"
PIN_SEED = 20091027  # seed of the pinned instances; never changes

# solve-access: three prism backbones (4 rungs) subdivided into 200-edge
# chain sets, 30 pendant bridges each: m = 690, reduced m = 36
ACCESS = dict(comps=3, rungs=4, chain_edges=200, pendant_edges=30)
ACCESS_REDUCED_M = 3 * 3 * 4
SOLVE1_K = 8
MESH1 = dict(n=100, matchings=1)  # m = 150, for solve --algo greedy1 -k 8
MESH2 = dict(n=32, matchings=1)   # m = 48, for solve --algo greedy2 -k 6
SOLVE2_K = 6
TREELIKE = dict(n=1000, extra=300)  # m = 1299
RANDOM_MONITORS = 25
EXACT_K = 5
# n + 2 <= m <= 2n - 2: the (10, 19) shape is left out, because its q=4
# NO answers (C(19,7) subsets, ~0.8 s each) came about ten per run, right
# where decide's tail percentile falls, so that tail jumped between runs
CLIQUE_SHAPES = [(n, m) for n in (9, 10) for m in range(n + 2, 2 * n - 1)]


@dataclass
class Inst:
    """One input graph: the benchmark's own copy plus its text file."""

    n: int
    edges: list[tuple]
    path: str
    digest: str


@dataclass
class Op:
    kind: str
    run: Callable[[], tuple[object, str]]
    check: Callable[[object, str], str | None]
    digest: str  # input graph digest plus the operation's parameters
    pin: str | None = None  # expected answer digest, for pinned inputs


OP_CAP_S = 20.0  # an operation running longer than this fails


class OverCap(Exception):
    pass


def _alarm(signum, frame):
    raise OverCap(f"over the {OP_CAP_S:.0f} s cap")


def execute(op: Op) -> tuple[float, str | None]:
    """Run one operation under the time cap and check its answer, and the
    pinned digest if it has one; return (seconds, failure or None)."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
    t0 = time.perf_counter()
    try:
        result, out = op.run()
        elapsed = time.perf_counter() - t0
    except Exception as exc:  # any exception is a failed operation
        return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    try:
        problem = op.check(result, out)
    except Exception as exc:  # a malformed answer
        problem = f"unreadable answer: {type(exc).__name__}: {exc}"
    if problem is None and op.pin is not None and check.pin_digest(out) != op.pin:
        problem = f"answer digest {check.pin_digest(out)} differs from pinned {op.pin}"
    return elapsed, problem


def cli_call(argv: list[str]) -> tuple[int, str]:
    from flowmon import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def decide_call(path: str, q: int) -> tuple[bool, str]:
    from flowmon import hardness, textio

    g = textio.parse_graph(Path(path).read_text())
    return hardness.decide_flow_monitors(hardness.reduce_clique(hardness.CliqueInstance(g, q))), ""


class Builder:
    """Writes instances under `workdir` and names them in order."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0

    def inst(self, n: int, edges: list[tuple]) -> Inst:
        text = gen.graph_text(n, edges)
        path = self.workdir / f"g{self.count}.txt"
        self.count += 1
        path.write_text(text)
        return Inst(n, edges, str(path), gen.digest(text))

    def file(self, text: str) -> str:
        path = self.workdir / f"f{self.count}.txt"
        self.count += 1
        path.write_text(text)
        return str(path)


def _seeds(workload: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(2**32) for _ in range(count)]


def load_pins() -> dict[str, str]:
    return json.loads(PINS.read_text()) if PINS.exists() else {}


def _pinned(op: Op, pins: dict[str, str] | None) -> Op:
    if pins is not None:
        op.pin = pins.get(f"{op.kind}:{op.digest}", "missing")
    return op


def solve1_op(inst: Inst, pins=None) -> Op:
    k = SOLVE1_K
    return _pinned(Op("solve1", lambda: cli_call(["solve", inst.path, "--algo", "greedy1", "-k", str(k), "--trace"]),
                      lambda rc, out: _rc0(rc) or check.check_solution(inst, out, k, pipeline=True),
                      f"{inst.digest}/k{k}"), pins)


def solve2_op(inst: Inst, pins=None) -> Op:
    k = SOLVE2_K
    return _pinned(Op("solve2", lambda: cli_call(["solve", inst.path, "--algo", "greedy2", "-k", str(k), "--trace"]),
                      lambda rc, out: _rc0(rc) or check.check_solution(inst, out, k, pipeline=True),
                      f"{inst.digest}/k{k}"), pins)


def reduce_op(inst: Inst, reduced_m: int, pins=None) -> Op:
    return _pinned(Op("reduce", lambda: cli_call(["reduce", inst.path]),
                      lambda rc, out: _rc0(rc) or check.check_reduce(inst, out, reduced_m),
                      inst.digest), pins)


def _rc0(rc) -> str | None:
    return None if rc == 0 else f"exit code {rc}"


def access_inst(b: Builder, s: int) -> Inst:
    return b.inst(*gen.access_graph(s, **ACCESS))


def solve_access(seed: int, b: Builder, pins: dict) -> list[Op]:
    """solve1 and reduce, alternating, on the same access graphs; two
    pinned graphs first, then eight seeded ones."""
    ops = []
    pinned = [access_inst(b, s) for s in _seeds("solve-access", PIN_SEED, 2)]
    for inst in pinned:
        ops += [solve1_op(inst, pins), reduce_op(inst, ACCESS_REDUCED_M, pins)]
    for s in _seeds("solve-access", seed, 8):
        inst = access_inst(b, s)
        ops += [solve1_op(inst), reduce_op(inst, ACCESS_REDUCED_M)]
    return ops


def solve_core(seed: int, b: Builder, pins: dict) -> list[Op]:
    """solve1 on m=150 meshes and solve2 on m=48 meshes, alternating; two
    pinned pairs first, then eight seeded pairs."""
    ops = []
    for s1, s2 in zip(_seeds("solve-core", PIN_SEED, 2), _seeds("solve-core/2", PIN_SEED, 2)):
        ops += [solve1_op(b.inst(*gen.mesh_graph(s1, **MESH1)), pins),
                solve2_op(b.inst(*gen.mesh_graph(s2, **MESH2)), pins)]
    for s1, s2 in zip(_seeds("solve-core", seed, 8), _seeds("solve-core/2", seed, 8)):
        ops += [solve1_op(b.inst(*gen.mesh_graph(s1, **MESH1))),
                solve2_op(b.inst(*gen.mesh_graph(s2, **MESH2)))]
    return ops


def spanning_complement(inst: Inst, rng: random.Random) -> list[int]:
    """Complement of a spanning tree grown over the edges in random order."""
    root = list(range(inst.n))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    order = list(range(len(inst.edges)))
    rng.shuffle(order)
    out = []
    for e in order:
        u, v = find(inst.edges[e][0]), find(inst.edges[e][1])
        if u != v:
            root[u] = v
        else:
            out.append(e)
    return sorted(out)


def _star(inst: Inst, rng: random.Random, cycle_edges: list[int]) -> tuple[list[int], int]:
    """Every edge at one loop-free vertex of degree >= 3, plus random
    cycle edges; also returns one edge of the star."""
    at: list[list[int]] = [[] for _ in range(inst.n)]
    for i, (u, v, _) in enumerate(inst.edges):
        at[u].append(i)
        if v != u:
            at[v].append(i)
    loops = {u for u, v, _ in inst.edges if u == v}
    v = rng.choice([v for v in range(inst.n) if len(at[v]) >= 3 and v not in loops])
    mon = sorted(set(at[v]) | set(rng.sample(cycle_edges, RANDOM_MONITORS)))
    return mon, rng.choice(at[v])


def infer_audit(seed: int, b: Builder, pins: dict) -> list[Op]:
    """Per tree-like graph and hidden circulation, six monitor sets: four
    random sets of cycle edges, a spanning-tree complement (everything
    determined), and a full vertex star with one reading perturbed
    (CONSISTENT no, exit 4). Each set is queried with infer and then
    kernel. Random monitors are drawn from the edges that are not bridges
    of G, which are the ones that can carry flow; monitors on bridges
    would cut the tree into pieces of random sizes and make infer's time
    swing with them."""
    ops = []
    for s in _seeds("infer-audit", seed, 6):
        rng = random.Random(s)
        inst = b.inst(*gen.treelike_graph(s, **TREELIKE))
        flow = gen.hidden_circulation(rng.randrange(2**32), inst.n, inst.edges)
        zero = check.bridges(inst.n, inst.edges)
        cycle_edges = [e for e in range(len(inst.edges)) if e not in zero]
        sets = [(sorted(rng.sample(cycle_edges, RANDOM_MONITORS)), None) for _ in range(4)]
        sets.insert(2, (spanning_complement(inst, rng), None))
        sets.append(_star(inst, rng, cycle_edges))
        for mon, bad in sets:
            readings = {e: flow[e] for e in mon}
            if bad is not None:
                readings[bad] += rng.choice([-1, 1]) * rng.randint(1, 9)
            rpath = b.file("".join(f"r {e} {readings[e]}\n" for e in mon))
            ids = ",".join(map(str, mon))
            digest = gen.digest(f"{inst.digest}/{ids}/{sorted(readings.items())}")
            ops.append(Op(
                "infer", lambda p=inst.path, i=ids, r=rpath: cli_call(["infer", p, "-m", i, "-r", r]),
                lambda rc, out, i=inst, m=mon, r=readings, f=flow, ok=bad is None:
                    check.check_infer(i, m, r, out, rc, f, ok),
                digest))
            ops.append(Op(
                "kernel", lambda p=inst.path, i=ids: cli_call(["kernel", p, "-m", i]),
                lambda rc, out, i=inst, m=mon: _rc0(rc) or check.check_kernel(i, m, out),
                digest))
    return ops


def exact_op(b: Builder, s: int, batch: int) -> Op:
    n, edges, optimum = gen.tight_family(s, EXACT_K, batch)
    inst = b.inst(n, edges)
    return Op("exact", lambda: cli_call(["exact", inst.path, "-k", str(EXACT_K)]),
              lambda rc, out: _rc0(rc) or check.check_solution(inst, out, EXACT_K, pipeline=False,
                                                                optimum=optimum),
              f"{inst.digest}/k{EXACT_K}")


def oracle(seed: int, b: Builder, pins: dict) -> list[Op]:
    """Rounds of: one seeded connected simple graph per (n, m) shape in
    CLIQUE_SHAPES, decided at every admissible q, with
    four exact runs (two per tight family, k=5) spread among them."""
    ops = []
    rounds = _seeds("oracle", seed, 16)
    for r in rounds:
        rng = random.Random(r)
        decides = []
        for n, m in CLIQUE_SHAPES:
            inst = b.inst(*gen.connected_simple(rng.randrange(2**32), n, m))
            for q, _, _ in check.clique_params(n, m):
                decides.append(Op("decide", lambda p=inst.path, q=q: decide_call(p, q),
                                  lambda ans, _out, i=inst, q=q: check.check_decide(i, q, ans),
                                  f"{inst.digest}/q{q}"))
        exacts = [exact_op(b, rng.randrange(2**32), batch) for batch in (1, 2, 1, 2)]
        step = -(-len(decides) // len(exacts))
        for i, ex in enumerate(exacts):
            ops.append(ex)
            ops += decides[i * step:(i + 1) * step]
    return ops


# name -> (builder, (op1 kind, op2 kind)); op1 is the kind the workload is for
WORKLOADS = {
    "solve-access": (solve_access, ("solve1", "reduce")),
    "solve-core": (solve_core, ("solve1", "solve2")),
    "infer-audit": (infer_audit, ("infer", "kernel")),
    "oracle": (oracle, ("decide", "exact")),
}
