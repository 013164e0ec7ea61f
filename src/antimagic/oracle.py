"""Brute-force ground truth on small trees.

The search is deliberately dumb: every orientation is an edge-indexed bitmask,
every labeling a lexicographic permutation of [1, m], and the antimagic test
is a direct sum recount that shares no code with the verification module.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cache
from itertools import permutations
from typing import Optional

from . import verification
from .construction import construct
from .graph_core import Arc, Caterpillar, OrientedLabeling, ResourceLimitError, Tree

DEFAULT_CAP = 8
FULL_COUNT_MAX_M = 6  # exhaustive_search counts in full up to here even without count_all


@dataclass(frozen=True)
class OracleResult:
    m: int
    orientations_with_solution: int
    total_antimagic_pairs: int
    witness: Optional[OrientedLabeling]
    pairs_enumerated: int


def sums_distinct(n: int, edges: tuple, orientation: int, labeling: tuple) -> bool:
    """Antimagic test for one (orientation bitmask, label permutation) pair.

    Bit i set means edges[i] = (u, v) with u < v runs v -> u; clear means u -> v.
    labeling[i] is the label of edges[i].
    """
    sums = [0] * n
    for i, (u, v) in enumerate(edges):
        lbl = labeling[i]
        if orientation >> i & 1:
            sums[u] += lbl
            sums[v] -= lbl
        else:
            sums[v] += lbl
            sums[u] -= lbl
    return len(set(sums)) == n


def _check_cap(m: int, cap: int) -> None:
    if m > cap:
        raise ResourceLimitError(
            f"m={m} exceeds the oracle cap {cap}; raise --cap or ANTIMAGIC_ORACLE_CAP explicitly"
        )


def _arcs(edges: tuple, orientation: int) -> tuple[Arc, ...]:
    return tuple((v, u) if orientation >> i & 1 else (u, v) for i, (u, v) in enumerate(edges))


def exhaustive_search(t: Tree, cap: int = DEFAULT_CAP, count_all: bool = False) -> OracleResult:
    """Enumerate the 2^m orientations x m! labelings of a tree.

    Every orientation is searched. Its labelings are counted in full when
    count_all is set or m <= FULL_COUNT_MAX_M; otherwise the search moves on
    to the next orientation at its first antimagic labeling.
    """
    m = len(t.edges)
    _check_cap(m, cap)
    count_all = count_all or m <= FULL_COUNT_MAX_M
    edges = t.edges
    n = t.n
    witness = None
    good_orientations = 0
    total_pairs = 0
    enumerated = 0
    for orientation in range(1 << m):
        hit_here = 0
        for labeling in permutations(range(1, m + 1)):
            enumerated += 1
            if sums_distinct(n, edges, orientation, labeling):
                hit_here += 1
                if witness is None:
                    witness = OrientedLabeling(n=n, arcs=_arcs(edges, orientation), labels=labeling)
                if not count_all:
                    break
        if hit_here:
            good_orientations += 1
            total_pairs += hit_here
    return OracleResult(
        m=m,
        orientations_with_solution=good_orientations,
        total_antimagic_pairs=total_pairs,
        witness=witness,
        pairs_enumerated=enumerated,
    )


def confirm_construction(c: Caterpillar, seed: int = 0, cap: int = DEFAULT_CAP) -> bool:
    """True iff the constructed output is an orientation of c that the oracle accepts."""
    _check_cap(c.m, cap)
    ol, _ = construct(c, seed=seed)
    if ol.undirected_edges() != frozenset(c.tree.edges):
        return False
    label_of = dict(zip(ol.arcs, ol.labels))
    orientation = sum(1 << i for i, (u, v) in enumerate(c.tree.edges) if (v, u) in label_of)
    labeling = tuple(label_of.get((u, v)) or label_of[(v, u)] for u, v in c.tree.edges)
    accepted = sums_distinct(c.tree.n, c.tree.edges, orientation, labeling)
    return accepted and verification.verify_antimagic(ol)


def agreement_on_random_pairs(t: Tree, pairs: int, seed: int, cap: int = DEFAULT_CAP) -> int:
    """Count disagreements between the oracle test and the verifier on random pairs."""
    m = len(t.edges)
    _check_cap(m, cap)
    rng = random.Random(seed)
    base = list(range(1, m + 1))
    arcs = cache(lambda orientation: _arcs(t.edges, orientation))  # at most 2^m entries
    mismatches = 0
    for _ in range(pairs):
        orientation = rng.randrange(1 << m)
        labeling = tuple(rng.sample(base, m))
        a = sums_distinct(t.n, t.edges, orientation, labeling)
        b = verification.verify_antimagic(OrientedLabeling(n=t.n, arcs=arcs(orientation), labels=labeling))
        if a != b:
            mismatches += 1
    return mismatches


def agreement_on_all_pairs(t: Tree, cap: int = FULL_COUNT_MAX_M) -> tuple[int, int]:
    """(pairs checked, disagreements) over the full enumeration."""
    m = len(t.edges)
    _check_cap(m, cap)
    checked = 0
    mismatches = 0
    expected = (1 << m) * math.factorial(m)
    for orientation in range(1 << m):
        arcs = _arcs(t.edges, orientation)
        for labeling in permutations(range(1, m + 1)):
            checked += 1
            a = sums_distinct(t.n, t.edges, orientation, labeling)
            b = verification.verify_antimagic(OrientedLabeling(n=t.n, arcs=arcs, labels=labeling))
            if a != b:
                mismatches += 1
    assert checked == expected
    return checked, mismatches
