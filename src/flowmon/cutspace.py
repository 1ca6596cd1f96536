"""Cut-space labels, the edge groups they define, and the one search over them.

Which edges does a monitor set M determine? Cut-space labels (Pritchard
& Thurimella, "Fast computation of small cuts via cycle space
sampling") answer it: each edge gets an exact GF(2) vector, and an edge
is in M or is a bridge of G - M iff its label lies in the span of M's
labels. Bridges have label 0, and two edges of a bridgeless graph form
a 2-cut iff their labels are equal. _label_forest builds the labels in
one pass over graph.search_forest's forest, and deputies groups them
into the one view of G that every 2-cut reader (reduce, solve_pipeline,
graph.is_c_edge_connected) takes. Two evaluators read them, neither
with a masked traversal per candidate. span_search takes every batch
of two or more picks (sigma_greedy's, exact's and the hardness
decision's): one search over label residuals folded incrementally, a
branch and bound (Land & Doig, 1960) whose answer is the one the full
enumeration gives. A batch of two reads the classes of equal residuals
first (_best_pair): a pair is worth its two classes and their XOR's,
so its best value comes from the two heaviest classes and the
triangles, three classes that XOR to 0 (on the labels, the 3-edge cuts
of the live graph; see triangles), and only the rows of pairs that can
reach that value are read: _row, the one pair row, which the last two
picks of a larger batch read too. A run of single picks (every greedy1
step, the last step of greedy:<sigma> when k mod sigma is 1, exact and
the decision at k = 1) reads one class table instead, kept across its
steps: each step takes the heaviest class with one maximum and folds
only the classes that carry its pivot bit (class_table, take_class).
"""

from __future__ import annotations

from itertools import combinations, compress, starmap
from operator import itemgetter, not_, xor
from typing import NamedTuple, Sequence

from .errors import FlowmonError
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
    pivot = 1 << r.bit_length() - 1
    return [x ^ r if x & pivot else x for x in residuals]


def class_table(residuals: Sequence[int], weights: Sequence[int]) -> tuple[dict[int, list], int]:
    """The residuals' classes for a run of size-1 steps (see take_class):
    each distinct residual maps to [weight, -first, members, residual],
    its summed weight, its first position negated and its positions;
    the zero class weighs 0 here, its true weight returned beside the
    table."""
    table: dict[int, list] = {}
    for j, (x, wt) in enumerate(zip(residuals, weights)):
        cls = table.get(x)
        if cls is None:
            table[x] = [wt, -j, [j], x]
        else:
            cls[0] += wt
            cls[2].append(j)
    zero = table.get(0)
    if zero is None:
        return table, 0
    val, zero[0] = zero[0], 0
    return table, val


def take_class(table: dict[int, list], zero: int) -> tuple[int, int, list[int]]:
    """One size-1 step on a class_table whose zero class weighs `zero`:
    the first best single position, worth what span_search counts a
    subset worth. Returns its value, the position and the positions it
    collects, and leaves the table as class_table would build it from
    the residuals still live, folded modulo the pick's, at their
    original positions.

    The pick is the first position of the heaviest class, the table's
    one C-level maximum; its value is the class weight plus `zero`, as
    the zero class is collected with any pick. A zero class in the table
    (the first step only) ties at 0 with the other classes. The picked
    and zero classes leave, and only the keys with the pick's pivot bit
    set fold, each into a new key or merged into the class already
    there, the shorter member list into the longer.
    """
    cls = max(table.values())
    top, first, taken, r = cls
    del table[r]
    if r:
        rest = table.pop(0, None)
        if rest is not None:
            taken = taken + rest[2]
        pivot = 1 << r.bit_length() - 1
        for y in [y for y in table if y & pivot]:
            cls = table.pop(y)
            y ^= r
            into = table.get(y)
            if into is None:
                cls[3] = y
                table[y] = cls
                continue
            into[0] += cls[0]
            if cls[1] > into[1]:
                into[1] = cls[1]
            if len(cls[2]) > len(into[2]):
                into[2], cls[2] = cls[2], into[2]
            into[2] += cls[2]
    return top + zero, -first, taken


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


def triangles(table: dict[int, int]) -> list[tuple[int, int, int]]:
    """Every triangle of a table keyed by distinct nonzero residuals:
    three keys a, b, c = a ^ b, each triangle once, a and b the two keys
    with the triangle's lowest set bit.

    Three nonzero keys that XOR to 0 have that bit set in an even number
    of them, and in at least one, so in exactly two; both have it as
    their lowest set bit, and their XOR, the third key, has a higher
    one. So only keys with the same lowest set bit are paired, each pair
    is tested once by looking its XOR up, and no triangle is missed or
    found twice. On cut labels a triangle is a 3-edge cut of the live
    graph.
    """
    by_low: dict[int, list[int]] = {}
    for x in table:
        by_low.setdefault(x & -x, []).append(x)
    pairs: list[tuple[int, int]] = []
    for keys in by_low.values():
        if len(keys) > 1:
            hits = map(table.__contains__, starmap(xor, combinations(keys, 2)))
            pairs += compress(combinations(keys, 2), hits)
    return [(a, b, a ^ b) for a, b in pairs]


def _row(coset: dict[int, int], r: int, residuals: Sequence[int], start: int) -> tuple[int, int]:
    """The row of a pick r: the first maximum over z in residuals[start:]
    (not empty) of what z adds on the table coset, and its index there;
    z adds coset[z] + coset[z ^ r] if r is nonzero and z is neither 0
    nor r, coset[z] if r is 0 (no key of coset), else nothing."""
    later = residuals[start:]
    if r:
        gains = [coset.get(z, 0) + coset.get(z ^ r, 0) if z and z != r else 0 for z in later]
    else:
        gains = [coset.get(z, 0) for z in later]
    top = max(gains)
    return top, gains.index(top)


def _pair_bounds(
    coset: dict[int, int], val: int, stop: int
) -> tuple[int, int, int, dict[int, int]]:
    """What _best_pair reads off the classes: the value it must reach,
    min(V, stop), the two heaviest class weights (0 for a missing one)
    and, for each class r, the heaviest coset[z] + coset[z ^ r] over
    r's triangles, kept only for triangles worth the target."""
    heavy, second, *_ = sorted(coset.values(), reverse=True) + [0]
    found = triangles(coset)
    worth = [coset[a] + coset[b] + coset[c] for a, b, c in found]
    target = min(val + max(heavy + second, max(worth, default=0)), stop)
    through: dict[int, int] = {}
    for tri, total in zip(found, worth):
        if val + total >= target:
            for x in tri:
                if total - coset[x] > through.get(x, 0):
                    through[x] = total - coset[x]
    return target, heavy, second, through


def _best_pair(
    residuals: Sequence[int], coset: dict[int, int], val: int, stop: int
) -> tuple[int, tuple[int, int]]:
    """span_search at size 2 on a nonempty table `coset` of the nonzero
    residuals' summed weights, the zero residuals weighing val: the
    value and pair that one row per distinct residual returns, read off
    the classes, with a row read only where it can be the answer.

    The row of the first position j of a residual r pairs j with every
    later position (_row); its value is val, plus coset[r] for a nonzero
    r, plus the row's first maximum. Walking those rows in order, keeping a
    row worth strictly more than every earlier one and stopping at the
    first kept row that reaches stop, returns the first row whose value
    reaches min(V, stop), V the best pair value: every earlier row is
    worth less, so that row is kept, and either it reaches stop or it is
    worth V, which no later row beats. The row of the best pair's first
    position reaches V, so such a row exists.

    V is read off the classes (_pair_bounds). A pair of distinct nonzero
    classes A, B is worth val + coset[A] + coset[B] + coset[A ^ B], and
    A ^ B is a class exactly when A, B, A ^ B form a triangle (see
    triangles); any other pair is worth at most val plus one class. So
    V is val plus the larger of the two heaviest weights' sum (their
    XOR's weight, if a class, makes a triangle) and the heaviest
    triangle, and every class has a position, so V is reached. A row
    bounds by class too: r's row is worth at most val + coset[r] plus
    the heaviest other class or the heaviest pair completing a triangle
    with r, whichever is more, and the zero row at most val plus the
    heaviest class. A triangle worth less than the target lifts no row's
    bound to it, so only the others are kept. A row whose bound falls
    short of min(V, stop) cannot be the answer and is not read; the
    first row read that reaches it is.
    """
    target, heavy, second, through = _pair_bounds(coset, val, stop)
    tried = set()
    for j in range(len(residuals) - 1):
        r = residuals[j]
        if r in tried:
            continue
        tried.add(r)
        if r:
            row = val + coset[r]
            other = second if coset[r] == heavy else heavy
            pair = through.get(r, 0)
            if row + (pair if pair > other else other) < target:
                continue
        else:
            row = val
            if row + heavy < target:
                continue
        gain, z = _row(coset, r, residuals, j + 1)
        if row + gain >= target:
            return row + gain, (j, j + 1 + z)
    raise FlowmonError(f"no pair of {len(residuals)} residuals reaches {target}")


def span_search(
    residuals: Sequence[int], weights: Sequence[int], size: int, stop: int
) -> tuple[int, tuple[int, ...], list[int]]:
    """The best subset of `size` positions, first in combinations order.

    A subset is worth the total weight of the positions whose residual
    lies in the span of its own residuals. Returns the best value, the
    subset and the residuals folded modulo its span (the positions it
    collects read 0). The search ends at the first value that reaches
    `stop`; needs size <= len(residuals), size != 1 and weights >= 0: a
    size-1 step reads a class_table instead (take_class). Size 2 reads
    the table's classes and triangles, then only the rows of pairs that
    can reach the best value (_best_pair); the rest of this describes
    the larger sizes, whose last two picks still read a row each.

    Depth-first over prefixes with an explicit stack, so any size is
    fine. Each prefix keeps the residuals after its last position folded
    modulo its span, and a table of summed weight per residual outside
    the span: adding a pick r is worth table[r], and nothing if r is 0.
    The last two picks are read off the table without folding: the first
    maximum of the next-to-last pick's row (_row) completes the prefix.
    A prefix that spans everything takes the next contiguous positions,
    since every completion is worth the same.

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
    if not size or not coset:
        best, best_pick, frames = val, (*range(size),), []
    elif size == 2:
        best, best_pick = _best_pair(residuals, coset, val, stop)
        frames = []
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
            top, z = _row(coset, r, tail, off + 1)
            if val + top <= best:
                continue
            best, best_pick = val + top, (*picks, j, j + 1 + z)
        else:
            if r:
                pivot = 1 << r.bit_length() - 1
                folded: dict[int, int] = {}
                for y, wt in coset.items():
                    if y & pivot:
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
