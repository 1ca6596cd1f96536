"""Cut-space labels, the edge groups they define, and the one search over them.

Which edges does a monitor set M determine? Cut-space labels (Pritchard
& Thurimella, "Fast computation of small cuts via cycle space
sampling") answer it: each edge gets an exact GF(2) vector, and an edge
is in M or is a bridge of G - M iff its label lies in the span of M's
labels. Bridges have label 0, and two edges of a bridgeless graph form
a 2-cut iff their labels are equal. _label_forest builds the labels in
one pass over graph.search_forest's forest, and deputies groups them
into the one view of G that every 2-cut reader (reduce, solve_pipeline,
graph.is_c_edge_connected) takes. span_search is the one evaluator over
them: each sigma_greedy batch, exact and the hardness decision is one
search over label residuals folded incrementally, not a masked
traversal per candidate, and a branch and bound (Land & Doig, 1960)
whose answer is the one the full enumeration gives.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter, not_
from typing import NamedTuple, Sequence

from .graph import Graph, search_forest


def _label_forest(g: Graph) -> tuple[list[int], list[int], list[int], list[int]]:
    """search_forest's order and entry edges on g, the cut label of every
    edge (see cut_labels) and the ascending ids of the edges outside the
    forest, the i-th labelled 1 << i."""
    order, entry = search_forest(g)
    us, vs = g.us, g.vs
    m = len(us)
    in_forest = bytearray(m)
    for eid in entry:
        if eid >= 0:
            in_forest[eid] = 1
    nontree = list(compress(range(m), map(not_, in_forest)))
    labels = [0] * m
    acc = [0] * g.vertex_count
    bit = 1
    for eid in nontree:
        labels[eid] = bit
        acc[us[eid]] ^= bit
        acc[vs[eid]] ^= bit
        bit <<= 1
    for v in reversed(order):
        eid = entry[v]
        if eid >= 0:
            labels[eid] = acc[v]
            acc[us[eid] + vs[eid] - v] ^= acc[v]
    return order, entry, labels, nontree


def cut_labels(g: Graph) -> list[int]:
    """Exact cut-space label of every edge, a Python int over GF(2): a
    bit of its own for each edge outside the depth-first forest
    (self-loops included), and for a forest edge the XOR of the bits of
    the fundamental cycles through it. A set of edges is a cut of G
    exactly when its labels XOR to 0."""
    return _label_forest(g)[2]


class Deputies(NamedTuple):
    """G labelled and grouped once: the reduced graph's edges are `ids`
    (each group's highest id, ascending) with `weights` (group totals in
    millionths); `groups` are in order of their lowest id, and `stripped`
    are the bridges, the zero labels."""

    order: list[int]
    entry: list[int]
    labels: list[int]
    nontree: list[int]
    groups: list[list[int]]
    ids: list[int]
    weights: list[int]
    stripped: frozenset[int]


def deputies(g: Graph) -> Deputies:
    """The deputy view of g, off one _label_forest pass."""
    order, entry, labels, nontree = _label_forest(g)
    by_label: dict[int, list[int]] = {}
    for e, label in enumerate(labels):
        if label:
            by_label.setdefault(label, []).append(e)
    groups = list(by_label.values())
    by_deputy = sorted(groups, key=itemgetter(-1))
    w = g.weights_micros
    weights = [sum(map(w.__getitem__, cls)) if len(cls) > 1 else w[cls[0]] for cls in by_deputy]
    stripped = frozenset(compress(range(len(labels)), map(not_, labels)))
    ids = [cls[-1] for cls in by_deputy]
    return Deputies(order, entry, labels, nontree, groups, ids, weights, stripped)


def fold_residual(residuals: Sequence[int], r: int) -> list[int]:
    """The residuals taken modulo r as well, where r is reduced modulo the
    same span (one of the residuals, say).

    The top bit of r is the pivot: r is XORed into every residual with
    that bit set. Each residual then has every pivot bit clear, and two
    residuals are equal iff their difference lies in the span folded in
    so far, so they name cosets. A zero r changes nothing.
    """
    if not r:
        return list(residuals)
    b = r.bit_length() - 1
    return [x ^ r if x >> b & 1 else x for x in residuals]


def _caps(coset: dict[int, int], val: int, need: int, total: int) -> tuple[int, int, int]:
    """Upper bounds for a prefix worth val, with `need` picks to go,
    whose cosets outside its span weigh coset[...] (val plus their sum
    is total): the most any completion reaches, the most after a
    nonzero pick r less coset[r], and the most after a zero pick.

    need more picks bring at most 2^need - 1 cosets into the span, r's
    own among them for a nonzero r, and a zero pick leaves need - 1
    picks, so each bound is val plus the largest 2^need - 1, 2^need - 2
    or 2^(need-1) - 1 table weights. They are read off one sorted copy
    of the table's weights, a sort that stays in C; when even the
    smallest count covers the table, every bound is the total and
    nothing is sorted.
    """
    half = (1 << need - 1) - 1
    if half >= len(coset):
        return total, total, total
    top = sorted(coset.values(), reverse=True)[: 2 * half + 1]
    return val + sum(top), val + sum(top[: 2 * half]), val + sum(top[:half])


def span_search(
    residuals: Sequence[int], weights: Sequence[int], size: int, stop: int
) -> tuple[int, tuple[int, ...], list[int]]:
    """The best subset of `size` positions, first in combinations order.

    A subset is worth the total weight of the positions whose residual
    lies in the span of its own residuals. Returns the best value, the
    subset and the residuals folded modulo its span (the positions it
    collects read 0). The search ends at the first value that reaches
    `stop`; needs size <= len(residuals) and weights >= 0.

    Depth-first over prefixes with an explicit stack, so any size is
    fine. Each prefix keeps the residuals after its last position folded
    modulo its span, and a table of summed weight per residual outside
    the span: adding a pick r is worth table[r], and nothing if r is 0.
    The last two picks r, z are read off the table without folding: z
    adds table[z] + table[z ^ r] unless it is 0 or r, and the first
    maximum over z completes the prefix. A prefix that spans everything
    takes the next contiguous positions, since every completion is worth
    the same.

    Branch and bound: each prefix keeps two bounds from _caps, computed
    when it is pushed. A pick is skipped, with no fold and no pair read,
    when its bound is at most the best value so far (-1 until a subset
    completes, so no bound skips before); for the last two picks r, z
    that bound is value + table[r] + the two largest weights, or value +
    the largest if r is 0. A folded prefix is pushed only when its own
    bound beats the best value. The bounds hold because the weights are
    non-negative. A skipped subset is worth at most the best value, and
    only a strictly greater value replaces the best, so the value, the
    subset (still the first best in combinations order) and the stop are
    those of the full enumeration.

    Each prefix also tries each distinct residual once: a position whose
    residual (zero included) equals one an earlier position of the same
    prefix already tried is skipped with no bound check, fold or pair
    read. Swapping it for that earlier position q leaves the span alone,
    so every subset P + {p} + R is worth exactly P + {q} + R, which
    comes earlier in combinations order and was already read or skipped
    by a bound. The value, the subset and the stop are again those of
    the full enumeration.
    """
    n = len(residuals)
    coset: dict[int, int] = {}
    for x, wt in zip(residuals, weights):
        coset[x] = coset.get(x, 0) + wt
    val = coset.pop(0, 0)
    if size == 1 and coset:
        gains = [coset.get(x, 0) for x in residuals]
        top = max(gains)
        best, best_pick, frames = val + top, (gains.index(top),), []
    elif size < 2 or not coset:
        best, best_pick, frames = val, (*range(size),), []
    else:
        best, best_pick = -1, ()
        total = sum(weights)
        # frames[d]: a prefix of d picks, [value, table, tail, offset, bound
        # after a nonzero pick less its table weight, bound after a zero
        # pick, residuals tried]; the tail holds the last len(tail) positions
        _, pair, lone = _caps(coset, val, size, total)
        frames = [[val, coset, list(residuals), 0, pair, lone, set()]]
    picks: list[int] = []
    while frames:
        frame = frames[-1]
        val, coset, tail, off, pair, lone, tried = frame
        need = size - len(picks)
        j = n - len(tail) + off
        if j > n - need:
            frames.pop()
            if picks:
                picks.pop()
            continue
        frame[3] = off + 1
        r = tail[off]
        if r in tried:
            continue
        tried.add(r)
        if (pair + coset[r] if r else lone) <= best:
            continue
        if need == 2:
            if r:
                val += coset[r]
                gains = [
                    coset.get(z, 0) + coset.get(z ^ r, 0) if z and z != r else 0
                    for z in tail[off + 1:]
                ]
            else:
                gains = [coset.get(z, 0) for z in tail[off + 1:]]
            top = max(gains)
            if val + top <= best:
                continue
            best, best_pick = val + top, (*picks, j, j + 1 + gains.index(top))
        else:
            if r:
                b = r.bit_length() - 1
                folded: dict[int, int] = {}
                for y, wt in coset.items():
                    if y >> b & 1:
                        y ^= r
                    folded[y] = folded.get(y, 0) + wt
                coset = folded
                val += coset.pop(0)
            if coset:
                cap, pair, lone = _caps(coset, val, need - 1, total)
                if cap > best:
                    rest = fold_residual(tail[off + 1:], r) if r else tail[off + 1:]
                    picks.append(j)
                    frames.append([val, coset, rest, 0, pair, lone, set()])
                continue
            if val <= best:
                continue
            best, best_pick = val, (*picks, *range(j, j + need))
        if best >= stop:
            break
    folded_res = list(residuals)
    for j in best_pick:
        if folded_res[j]:
            folded_res = fold_residual(folded_res, folded_res[j])
    return best, best_pick, folded_res
