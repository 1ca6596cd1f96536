"""Line-oriented text formats for graphs, readings, and reduction maps.

Graph format:
    p flowmon <n> <m>  (n at most MAX_VERTICES, checked before allocating)
    e <u> <v> <w>      (m lines; 0-based endpoints, decimal weight)
    c ...              (comment, anywhere)

Edge ids are assigned in file order. The graph parser builds one Weight
per distinct weight token, with the same checks on every line. Readings
files hold one `r <edge_id> <signed-int>` line per monitored edge.
"""

from __future__ import annotations

from typing import Mapping

from .errors import ParseError, WeightOverflowError
from .graph import EdgeRecord, Graph
from .weights import MAX_MICROS, Weight

MAX_FLOW = 2**63 - 1
MAX_VERTICES = 1_000_000


def parse_graph(text: str) -> Graph:
    """Parse the graph format. The running total of weights must fit in
    MAX_MICROS, so no sum over the graph's weights can overflow later.

    Each line is split once: it is blank when it has no fields and a
    comment when its first field starts with "c". Each distinct weight
    token is parsed once per call and its Weight shared by every edge
    that carries it (a Weight is immutable); only tokens that parsed are
    cached, so a bad token raises at its own line."""
    n = m = None
    records: list[EdgeRecord] = []
    weights: dict[str, Weight] = {}
    total = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0][0] == "c":
            continue
        if n is None:
            if fields[0] != "p" or len(fields) != 4 or fields[1] != "flowmon":
                raise ParseError(f"line {lineno}: expected header 'p flowmon <n> <m>'")
            try:
                n, m = int(fields[2]), int(fields[3])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer vertex or edge count") from None
            if n < 0 or m < 0:
                raise ParseError(f"line {lineno}: counts must be non-negative")
            if n > MAX_VERTICES:
                raise ParseError(f"line {lineno}: vertex count {n} exceeds the limit {MAX_VERTICES}")
            continue
        if fields[0] != "e" or len(fields) != 4:
            raise ParseError(f"line {lineno}: expected 'e <u> <v> <w>'")
        _, u, v, token = fields
        try:
            u, v = int(u), int(v)
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer endpoint") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"line {lineno}: endpoint out of range [0, {n})")
        w = weights.get(token)
        if w is None:
            try:
                w = weights[token] = Weight.parse(token)
            except (ParseError, WeightOverflowError) as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
        if len(records) >= m:
            raise ParseError(f"line {lineno}: more than the declared {m} edges")
        total += w.micros
        if total > MAX_MICROS:
            raise ParseError(f"line {lineno}: total weight exceeds {MAX_MICROS} millionths")
        records.append(EdgeRecord(len(records), u, v, w))
    if n is None:
        raise ParseError("line 1: missing 'p flowmon <n> <m>' header")
    if len(records) != m:
        raise ParseError(f"declared {m} edges but found {len(records)}")
    return Graph(n, records)


def format_graph(g: Graph) -> str:
    lines = [f"p flowmon {g.vertex_count} {len(g.edges)}"]
    lines.extend(f"e {e.u} {e.v} {e.weight}" for e in g.edges)
    return "\n".join(lines) + "\n"


def parse_readings(text: str) -> dict[int, int]:
    readings: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] != "r" or len(fields) != 3:
            raise ParseError(f"line {lineno}: expected 'r <edge_id> <value>'")
        try:
            eid, value = int(fields[1]), int(fields[2])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer field") from None
        if eid < 0:
            raise ParseError(f"line {lineno}: negative edge id")
        if abs(value) > MAX_FLOW:
            raise ParseError(f"line {lineno}: reading outside signed 64-bit range")
        if eid in readings:
            raise ParseError(f"line {lineno}: duplicate reading for edge {eid}")
        readings[eid] = value
    return readings


def format_readings(readings: Mapping[int, int]) -> str:
    return "".join(f"r {e} {readings[e]}\n" for e in sorted(readings))


def parse_edge_id_list(text: str) -> frozenset[int]:
    """Comma-separated edge ids, e.g. '0,3,5'. Empty string means none."""
    text = text.strip()
    if not text:
        return frozenset()
    ids = set()
    for part in text.split(","):
        try:
            eid = int(part)
        except ValueError:
            raise ParseError(f"bad edge id {part!r} in list") from None
        if eid < 0:
            raise ParseError(f"negative edge id {eid} in list")
        ids.add(eid)
    return frozenset(ids)


def format_reduction_map(rmap, vertex_count: int, edge_count: int) -> str:
    """Sidecar map: `v <orig> <reduced>` per vertex, `g <orig_edge> <group>
    <deputy_orig_edge>` per surviving edge, `zb <orig_edge>` per stripped
    bridge."""
    vertex_map, group_of, deputy_of_group, orig_edge_of_reduced, stripped = rmap
    lines = [f"v {v} {vertex_map[v]}" for v in range(vertex_count)]
    for e in range(edge_count):
        if e in stripped:
            continue
        grp = group_of[e]
        deputy_orig = orig_edge_of_reduced[deputy_of_group[grp]]
        lines.append(f"g {e} {grp} {deputy_orig}")
    lines.extend(f"zb {e}" for e in sorted(stripped))
    return "\n".join(lines) + "\n" if lines else ""
