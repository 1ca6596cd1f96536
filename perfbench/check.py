"""Answer checks that do not trust flowmon.

Everything is recomputed from the benchmark's own copy of the input:
bridges by an O(n + m) lowpoint search written here, components by
union-find, cliques by bitmask search. Each `check_*` returns None when
the answer holds and a one-line reason when it does not.
"""

from __future__ import annotations

import hashlib
import re

SCALE = 10**6
_DECIMAL = re.compile(r"^(\d+)(?:\.(\d{1,6}))?$")


def micros(w) -> int:
    m = _DECIMAL.match(str(w))
    if m is None:
        raise ValueError(f"bad weight {w!r}")
    return int(m.group(1)) * SCALE + int((m.group(2) or "").ljust(6, "0"))


def weight_str(total: int) -> str:
    whole, frac = divmod(total, SCALE)
    return str(whole) if frac == 0 else f"{whole}.{frac:06d}".rstrip("0")


def bridges(n: int, edges: list[tuple], removed=frozenset()) -> set[int]:
    """Bridges of the graph without the `removed` edge ids. Parallel edges
    are told apart by id; self-loops are never bridges."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, (u, v, *_) in enumerate(edges):
        if u != v and i not in removed:
            adj[u].append((v, i))
            adj[v].append((u, i))
    order = [-1] * n
    low = [0] * n
    out: set[int] = set()
    clock = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = clock
        clock += 1
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, via, it = stack[-1]
            for w, eid in it:
                if eid == via:
                    continue
                if order[w] < 0:
                    order[w] = low[w] = clock
                    clock += 1
                    stack.append((w, eid, iter(adj[w])))
                    break
                low[v] = min(low[v], order[w])
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    low[p] = min(low[p], low[v])
                    if low[v] > order[p]:
                        out.add(via)
    return out


def component_count(n: int, edges: list[tuple], removed=frozenset()) -> int:
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    count = n
    for i, (u, v, *_) in enumerate(edges):
        if i not in removed:
            ru, rv = find(u), find(v)
            if ru != rv:
                root[ru] = rv
                count -= 1
    return count


def has_clique(n: int, edges: list[tuple], q: int) -> bool:
    nb = [0] * n
    for u, v, *_ in edges:
        nb[u] |= 1 << v
        nb[v] |= 1 << u

    def grow(cand: int, need: int) -> bool:
        if need == 0:
            return True
        while cand and cand.bit_count() >= need:
            v = cand.bit_length() - 1
            cand &= ~(1 << v)
            if grow(cand & nb[v], need - 1):
                return True
        return False

    return grow((1 << n) - 1, q)


def pin_digest(out: str) -> str:
    """Digest of the answer lines a pin covers: everything except the
    greedy trace's candidate counts (` C <n>` on T lines)."""
    lines = [re.sub(r" C \d+$", "", ln) if ln.startswith("T ") else ln
             for ln in out.splitlines()]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _ids(out: str, tag: str) -> list[int]:
    return [int(ln.split()[1]) for ln in out.splitlines() if ln.startswith(tag + " ")]


def _gain_line(out: str) -> str | None:
    lines = [ln for ln in out.splitlines() if ln.startswith("GAIN ")]
    return lines[0].split()[1] if len(lines) == 1 else None


def check_solution(inst, out: str, k: int, pipeline: bool, optimum: int | None = None) -> str | None:
    """solve (pipeline=True) or exact output: |M| = min(k, m); Z are the
    graph's bridges; D are the other bridges of G - M; GAIN is the weight
    of M and D; trace batches add up to M."""
    n, edges = inst.n, inst.edges
    m_ids, d_ids, z_ids = _ids(out, "M"), _ids(out, "D"), _ids(out, "Z")
    mon = set(m_ids)
    if len(mon) != len(m_ids) or len(mon) != min(k, len(edges)):
        return f"expected {min(k, len(edges))} distinct monitors, got {m_ids}"
    if not all(0 <= e < len(edges) for e in mon):
        return "monitor id out of range"
    zero = bridges(n, edges) if pipeline and k < len(edges) else set()
    if set(z_ids) != zero or len(z_ids) != len(zero):
        return "Z lines are not the graph's bridges"
    extra = bridges(n, edges, mon) - zero - mon
    if set(d_ids) != extra or len(d_ids) != len(extra):
        return "D lines are not the bridges exposed by M"
    want = weight_str(sum(micros(edges[e][2]) for e in mon | extra))
    if _gain_line(out) != want:
        return f"GAIN {_gain_line(out)} but M and D weigh {want}"
    if optimum is not None and want != str(optimum):
        return f"gain {want} misses the optimum {optimum}"
    placed = [int(x) for ln in out.splitlines() if ln.startswith("T ")
              for x in ln.split()[3].split(",") if x]
    if pipeline and k < len(edges) and sorted(placed) != sorted(mon):
        return "trace batches do not add up to M"
    return None


def check_reduce(inst, out: str, reduced_m: int) -> str | None:
    """reduce output: the reduced graph has the expected edge count and
    keeps all non-bridge weight; zb lines are the graph's bridges; every
    surviving original edge gets a g line."""
    lines = out.splitlines()
    head = lines[0].split() if lines else []
    if head[:2] != ["p", "flowmon"] or int(head[3]) != reduced_m:
        return f"reduced header {lines[:1]} lacks {reduced_m} edges"
    zero = bridges(inst.n, inst.edges)
    zb = {int(ln.split()[1]) for ln in lines if ln.startswith("zb ")}
    if zb != zero:
        return "zb lines are not the graph's bridges"
    kept = sum(micros(w) for i, (_, _, w) in enumerate(inst.edges) if i not in zero)
    got = sum(micros(ln.split()[3]) for ln in lines if ln.startswith("e "))
    if got != kept:
        return f"reduced weight {weight_str(got)} != {weight_str(kept)}"
    if sum(ln.startswith("g ") for ln in lines) != len(inst.edges) - len(zero):
        return "g lines do not cover the surviving edges"
    if sum(ln.startswith("v ") for ln in lines) != inst.n:
        return "v lines do not cover the vertices"
    return None


def forced_set(inst, monitors) -> set[int]:
    mon = set(monitors)
    return mon | bridges(inst.n, inst.edges, mon)


def check_infer(inst, monitors, readings, out: str, rc: int, flow, consistent: bool) -> str | None:
    """infer output: F lines cover exactly M plus the bridges of G - M;
    U lines the rest; monitors echo their readings; with consistent
    readings every F value is the hidden flow and the verdict is yes
    (exit 0), otherwise the verdict is no (exit 4)."""
    f = {}
    for ln in out.splitlines():
        if ln.startswith("F "):
            _, e, val = ln.split()
            f[int(e)] = int(val)
    want = forced_set(inst, monitors)
    if set(f) != want:
        return "F lines are not M plus the bridges of G - M"
    if set(_ids(out, "U")) != set(range(len(inst.edges))) - want:
        return "U lines are not the undetermined edges"
    if any(f[e] != readings[e] for e in monitors):
        return "a monitor F value differs from its reading"
    if consistent and any(f[e] != flow[e] for e in f):
        return "an F value differs from the hidden circulation"
    verdict = "yes" if consistent else "no"
    if f"CONSISTENT {verdict}" not in out.splitlines() or rc != (0 if consistent else 4):
        return f"expected CONSISTENT {verdict} with exit {0 if consistent else 4}, got exit {rc}"
    return None


def check_kernel(inst, monitors, out: str) -> str | None:
    """kernel output: K lines list M plus the bridges of G - M in id
    order; vertices are the components of G - M - B; |E| <= |M| + |V| - 1."""
    lines = out.splitlines()
    head = lines[0].split()
    nv, ne = int(head[2]), int(head[3])
    kept = sorted(forced_set(inst, monitors))
    rep = [int(ln.split()[2]) for ln in lines if ln.startswith("K ")]
    if rep != kept or ne != len(kept):
        return "K lines are not M plus the bridges of G - M"
    if nv != component_count(inst.n, inst.edges, set(kept)):
        return "kernel vertices are not the components of G - M - B"
    if ne > len(monitors) + nv - 1:
        return f"kernel bound fails: {ne} > {len(monitors)} + {nv} - 1"
    return None


def check_decide(inst, q: int, answer) -> str | None:
    want = has_clique(inst.n, inst.edges, q)
    if answer is not want:
        return f"decide says {answer} but a {q}-clique {'exists' if want else 'does not exist'}"
    return None


def clique_params(n: int, m: int) -> list[tuple[int, int, int]]:
    """(q, k, l) for every q the Clique reduction admits: l = n - q and
    k = m - C(q,2) - l both positive."""
    out = []
    for q in range(3, n + 1):
        l = n - q
        k = m - q * (q - 1) // 2 - l
        if k > 0 and l > 0:
            out.append((q, k, l))
    return out

