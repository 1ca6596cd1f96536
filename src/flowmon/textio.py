"""Line-oriented text formats for graphs, readings, and reduction maps.

Graph format:
    p flowmon <n> <m>  (n at most MAX_VERTICES, checked before allocating)
    e <u> <v> <w>      (m lines; 0-based endpoints, decimal weight)
    c ...              (comment, anywhere)

Edge ids are assigned in file order. The graph parser builds one Weight
per distinct weight token, with the same checks on every line, and
fills the Graph's endpoint and weight columns directly; the Graph
constructor checks them again, and no EdgeRecord is built. Readings
files hold one `r <edge_id> <signed-int>` line per monitored edge.

The graph parser has a fast path for the canonical layout, the one
format_graph writes: the header `p flowmon <n> <m>` with n and m in plain
decimal, then exactly m lines `e <u> <v> <w>`, fields split by single
spaces, every line ended by a newline, and no comment or blank line. It
reads the body as one flat token list, with C-level split, slicing,
map(int, ...), and fills exactly the columns the line loop fills,
straight from its token slices: the same int() on each endpoint and
one Weight.parse per distinct weight token in order of first
appearance. The endpoint ranges and the MAX_MICROS bound on the total
are the Graph constructor's checks. It never raises: any other input,
and every input with an error, goes to the line loop, so every message
and line number is the line loop's.
"""

from __future__ import annotations

from typing import Mapping

from .errors import ParseError, ValidationError, WeightOverflowError
from .graph import Graph
from .weights import MAX_MICROS, Weight

MAX_FLOW = 2**63 - 1
MAX_VERTICES = 1_000_000


def parse_graph(text: str) -> Graph:
    """Parse the graph format. The running total of weights must fit in
    MAX_MICROS, so no sum over the graph's weights can overflow later.

    A canonical file takes the fast path (see the module docstring);
    anything else takes the line loop, whose result and errors the fast
    path matches."""
    g = _parse_canonical(text)
    return _parse_lines(text) if g is None else g


def _parse_canonical(text: str) -> Graph | None:
    """The graph of a canonical file, or None for any other text.

    The checks on the body make each whitespace run one space or one
    newline: the body starts with a token, ends with a newline and is as
    long as its tokens plus one character per token. Every line starts
    with the token `e`. So the m lines start at m of the m token
    positions 0, 4, 8, ..., that is at all of them, or some line's `e`
    sits where an endpoint or a weight belongs and fails to parse."""
    head, _, body = text.partition("\n")
    fields = head.split(" ")
    if len(fields) != 4 or fields[0] != "p" or fields[1] != "flowmon":
        return None
    try:
        n, m = int(fields[2]), int(fields[3])
    except ValueError:
        return None
    if head != f"p flowmon {n} {m}" or not 0 <= n <= MAX_VERTICES:
        return None
    tokens = body.split()
    if (
        len(tokens) != 4 * m
        or body.count("\n") != m
        or body.count(" ") != 3 * m
        or len(body) != len("".join(tokens)) + 4 * m
        or m and not (body.startswith("e ") and body.endswith("\n") and body.count("\ne ") == m - 1)
    ):
        return None
    weight_tokens = tokens[3::4]
    micros = dict.fromkeys(weight_tokens)
    try:
        us = list(map(int, tokens[1::4]))
        vs = list(map(int, tokens[2::4]))
        for token in micros:
            micros[token] = Weight.parse(token).micros
        return Graph(n, us, vs, list(map(micros.__getitem__, weight_tokens)))
    except (ValueError, ParseError, ValidationError):
        return None


def _parse_lines(text: str) -> Graph:
    """The graph parser for any layout, and the one that raises.

    Each line is split once: it is blank when it has no fields and a
    comment when its first field starts with "c". Each distinct weight
    token is parsed once per call and its value in millionths used for
    every edge that carries it; only tokens that parsed are cached, so a
    bad token raises at its own line."""
    n = m = None
    us: list[int] = []
    vs: list[int] = []
    micros: list[int] = []
    weights: dict[str, int] = {}
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
                w = weights[token] = Weight.parse(token).micros
            except (ParseError, WeightOverflowError) as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
        if len(micros) >= m:
            raise ParseError(f"line {lineno}: more than the declared {m} edges")
        total += w
        if total > MAX_MICROS:
            raise ParseError(f"line {lineno}: total weight exceeds {MAX_MICROS} millionths")
        us.append(u)
        vs.append(v)
        micros.append(w)
    if n is None:
        raise ParseError("line 1: missing 'p flowmon <n> <m>' header")
    if len(micros) != m:
        raise ParseError(f"declared {m} edges but found {len(micros)}")
    return Graph(n, us, vs, micros)


def format_graph(g: Graph) -> str:
    """Read off the columns; each distinct weight is converted to text once."""
    micros = g.weights_micros
    text = {w: str(Weight(w)) for w in set(micros)}
    lines = [f"p flowmon {g.vertex_count} {len(micros)}"]
    lines.extend([f"e {u} {v} {text[w]}" for u, v, w in zip(g.us, g.vs, micros)])
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
        if not -MAX_FLOW - 1 <= value <= MAX_FLOW:
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


def format_reduction_map(rmap) -> str:
    """Sidecar map: `v <orig> <reduced>` per vertex, `g <orig_edge> <group>
    <deputy_orig_edge>` per surviving edge, `zb <orig_edge>` per stripped
    bridge."""
    vertex_map, group_of, deputy_of_group, orig_edge_of_reduced, stripped = rmap
    lines = [f"v {v} {r}" for v, r in enumerate(vertex_map)]
    for e in range(len(group_of) + len(stripped)):
        if e in stripped:
            continue
        grp = group_of[e]
        deputy_orig = orig_edge_of_reduced[deputy_of_group[grp]]
        lines.append(f"g {e} {grp} {deputy_orig}")
    lines.extend(f"zb {e}" for e in sorted(stripped))
    return "\n".join(lines) + "\n" if lines else ""
