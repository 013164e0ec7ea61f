"""Independent checks of an oriented labeling.

Everything here is recomputed from the arcs and labels alone; the construction
trace is consulted only for the class assignment and the path bookkeeping, so
a bug in the construction's own sums cannot hide itself.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain

from .construction import ConstructionTrace
from .graph_core import (
    Caterpillar,
    OrientedLabeling,
    Record,
    VertexClass,
)


class VerificationReport(Record):
    __match_args__ = ("class_ranges", "antimagic", "violations")

    def __init__(
        self, class_ranges: dict[str, tuple[int, int]], antimagic: bool, violations: list[str] | None = None
    ) -> None:
        violations = [] if violations is None else violations
        vars(self).update(class_ranges=class_ranges, antimagic=antimagic, violations=violations)


def oriented_sums(ol: OrientedLabeling) -> list[int]:
    """Per-vertex sum of entering labels minus leaving labels, indexed by vertex."""
    sums = [0] * ol.n
    for (tail, head), lbl in zip(ol.arcs, ol.labels):
        sums[head] += lbl
        sums[tail] -= lbl
    return sums


def verify_antimagic(ol: OrientedLabeling) -> bool:
    """True iff all oriented vertex sums are pairwise distinct."""
    return pairwise_distinct(oriented_sums(ol))


def pairwise_distinct(values: Sequence[int]) -> bool:
    """True iff no two of the values are equal."""
    return len(set(values)) == len(values)


def path_flows(ol: OrientedLabeling, path: Sequence[int]) -> list[int]:
    """For each step i of the path, the label of the arc path[i] -> path[i+1].

    The label is negated when the arc runs path[i+1] -> path[i], and is 0 when
    no arc joins the two; in a tree at most one arc does. The path's vertices
    must be distinct.
    """
    position = [-2] * ol.n  # -2 off the path, so that no off-path vertex is one step from a path vertex
    for i, v in enumerate(path):
        position[v] = i
    flows = [0] * (len(path) - 1)
    for (tail, head), lbl in zip(ol.arcs, ol.labels):
        i, j = position[tail], position[head]
        if j - i == 1:
            flows[i] = lbl
        elif i - j == 1:
            flows[j] = -lbl
    return flows


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
        lo, hi = bounds[name]
        if not pairwise_distinct(ws):
            groups_distinct = False
            violations.append(f"{name}_not_distinct")
        least, most = min(ws), max(ws)
        if least < lo or (hi is not None and most > hi):
            violations.append(f"{name}_range")
        ranges[name] = (least, most)

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
    if not groups_distinct or (overlap and not pairwise_distinct([*chain.from_iterable(groups.values())])):
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
            at even path indices. The path u_0..u_k has k even, so the
            odd-case endpoint u_k sits at the even index k.
    claim3: the number of light vertices is at most k1 - 1.

    Path weights are recomputed from the final arcs restricted to path edges.
    """
    p = trace.partition
    d = trace.decomposition
    claim1 = p.k1 + p.k2 == c.m

    # u_i's path weight is flows[i-1] - flows[i]; the 0 appended stands for the steps before u_0 and after u_k
    flows = [*path_flows(ol, d.path), 0]
    path_index = {v: i for i, v in enumerate(d.path)}
    claim2 = True
    for v in trace.light_order:
        idx = path_index[v]
        w = abs(flows[idx - 1] - flows[idx])
        expect_high = idx % 2 == 0
        if w != (p.k2 + 1 if expect_high else p.k2):
            claim2 = False
    claim3 = trace.n_l <= p.k1 - 1

    return [("claim1", claim1), ("claim2", claim2), ("claim3", claim3)]
