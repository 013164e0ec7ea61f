"""Independent checks of an oriented labeling.

Everything here is recomputed from the arcs and labels alone; the construction
trace is consulted only for the class assignment and the path bookkeeping, so
a bug in the construction's own sums cannot hide itself.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import eq

from .construction import ConstructionTrace
from .graph_core import (
    Caterpillar,
    OrientedLabeling,
    VertexClass,
)


@dataclass
class VerificationReport:
    class_ranges: dict[str, tuple[int, int]]
    antimagic: bool
    violations: list[str] = field(default_factory=list)


def oriented_sums(ol: OrientedLabeling) -> list[int]:
    """Per-vertex sum of entering labels minus leaving labels, indexed by vertex."""
    sums = [0] * ol.n
    for (tail, head), lbl in zip(ol.arcs, ol.labels):
        sums[head] += lbl
        sums[tail] -= lbl
    return sums


def verify_antimagic(ol: OrientedLabeling) -> bool:
    """True iff all oriented vertex sums are pairwise distinct."""
    sums = oriented_sums(ol)
    return len(set(sums)) == len(sums)


def _sorted_distinct(values: list[int]) -> bool:
    """True iff no two neighbours of the sorted list are equal."""
    return not any(map(eq, values, islice(values, 1, None)))


def pairwise_distinct(values: Iterable[int]) -> bool:
    """True iff the values are pairwise distinct; tested on a sorted copy, 8 bytes a value, not on a set."""
    return _sorted_distinct(sorted(values))


def check_class_intervals(
    ol: OrientedLabeling,
    sums: Sequence[int],
    classes: Sequence[VertexClass],
    path: Sequence[int],
    k1: int,
    k2: int,
) -> tuple[list[str], dict[str, tuple[int, int]]]:
    """Validate the per-class weight intervals; return violations and observed ranges.

    `classes` holds one class per vertex, indexed by vertex.

    Light weights fill [0, k1-1]; degree-one weights fill [k1, k2+1]; heavy
    vertices without heavy edges land in [k2+2, m+k1], strictly decreasing
    along the path u_0..u_k; heavy vertices with heavy edges (arcs to a `leaf`
    vertex) exceed m+k1. u_0 weighs k1, and u_k weighs k2+1 when it is a
    path-end leaf. The observed ranges must not overlap and all weights must
    be pairwise distinct.
    """
    light, heavy, leaf = VertexClass.LIGHT, VertexClass.HEAVY, VertexClass.NON_PATH_LEAF
    next_to_leaf = bytearray(ol.n)
    for t, h in ol.arcs:
        if classes[h] is leaf:
            next_to_leaf[t] = 1
        if classes[t] is leaf:
            next_to_leaf[h] = 1
    m = ol.m
    bounds = {
        "light": (0, k1 - 1),
        "degree_one": (k1, k2 + 1),
        "heavy_no_heavy_edge": (k2 + 2, m + k1),
        "heavy_with_heavy_edge": (m + k1 + 1, None),
    }
    groups: dict[str, list[int]] = {name: [] for name in bounds}
    light_ws, degree_one_ws, plain_ws, heavy_edge_ws = groups.values()
    for c, s, by_leaf in zip(classes, sums, next_to_leaf):
        if c is light:
            light_ws.append(abs(s))
        elif c is not heavy:
            degree_one_ws.append(abs(s))
        elif by_leaf:
            heavy_edge_ws.append(abs(s))
        else:
            plain_ws.append(abs(s))

    violations: list[str] = []
    ranges: dict[str, tuple[int, int]] = {}
    groups_distinct = True
    for name, ws in groups.items():
        if not ws:
            continue
        ws.sort()  # in place: the weights are held once
        lo, hi = bounds[name]
        if not _sorted_distinct(ws):
            groups_distinct = False
            violations.append(f"{name}_not_distinct")
        if ws[0] < lo or (hi is not None and ws[-1] > hi):
            violations.append(f"{name}_range")
        ranges[name] = (ws[0], ws[-1])

    plain = [abs(sums[v]) for v in path if classes[v] is heavy and not next_to_leaf[v]]
    if any(a <= b for a, b in zip(plain, plain[1:])):
        violations.append("heavy_no_heavy_edge_not_decreasing")

    if abs(sums[path[0]]) != k1:
        violations.append("u0_weight")
    uk = path[-1]
    if classes[uk] is VertexClass.PATH_END_LEAF and abs(sums[uk]) != k2 + 1:
        violations.append("uk_weight")

    observed = sorted(ranges.values())
    overlap = any(a[1] >= b[0] for a, b in zip(observed, observed[1:]))
    if overlap:
        violations.append("class_ranges_overlap")
    # The groups partition the vertices: with disjoint ranges, weights distinct in each group are distinct overall.
    if not groups_distinct or (overlap and not pairwise_distinct(chain.from_iterable(groups.values()))):
        violations.append("all_weights_not_distinct")
    return violations, ranges


def check_weight_classes(ol: OrientedLabeling, trace: ConstructionTrace) -> VerificationReport:
    """`check_class_intervals` on the classes and path the construction recorded."""
    sums = oriented_sums(ol)
    p = trace.partition
    violations, ranges = check_class_intervals(
        ol, sums, trace.classes, trace.decomposition.path, p.k1, p.k2
    )
    return VerificationReport(
        class_ranges=ranges,
        antimagic=pairwise_distinct(sums),
        violations=violations,
    )


def check_claims(
    c: Caterpillar, ol: OrientedLabeling, trace: ConstructionTrace
) -> list[tuple[str, bool]]:
    """Numerically evaluate the three structural claims behind the construction.

    claim1: k1 + k2 = m.
    claim2: every light vertex's path weight is k2 or k2+1, with k2+1 exactly
            at even path indices and at the odd-case endpoint.
    claim3: the number of light vertices is at most k1 - 1.

    Path weights are recomputed from the final arcs restricted to path edges.
    """
    p = trace.partition
    d = trace.decomposition
    claim1 = p.k1 + p.k2 == c.m

    path_arcs = {*d.path_edges, *((v, u) for u, v in d.path_edges)}  # both orientations
    path_sums: dict[int, int] = {v: 0 for v in d.path}
    for arc, lbl in zip(ol.arcs, ol.labels):
        if arc in path_arcs:
            tail, head = arc
            path_sums[head] += lbl
            path_sums[tail] -= lbl

    path_index = {v: i for i, v in enumerate(d.path)}
    claim2 = True
    for v in trace.light_order:
        idx = path_index[v]
        w = abs(path_sums[v])
        expect_high = idx % 2 == 0 or (d.trimmed_tail is not None and idx == d.k)
        if w != (p.k2 + 1 if expect_high else p.k2):
            claim2 = False
    claim3 = trace.n_l <= p.k1 - 1

    return [("claim1", claim1), ("claim2", claim2), ("claim3", claim3)]
