"""Brute-force ground truth on small trees.

The search is deliberately dumb: every orientation is an edge-indexed bitmask,
every labeling a lexicographic permutation of [1, m], and the antimagic test
is a direct sum recount that shares no code with the verification module.
Only `_arcs` reads an orientation's bits. The recount judges the arcs `_arcs`
decodes, or in confirm_construction the constructed arcs as they are.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Iterator
from itertools import permutations, product, repeat

from . import verification
from .construction import construct
from .graph_core import Arc, Caterpillar, OrientedLabeling, Record, ResourceLimitError, Tree

DEFAULT_CAP = 8
FULL_COUNT_MAX_M = 6  # exhaustive_search counts in full up to here even without count_all


class OracleResult(Record):
    # witness: the first antimagic labeling found, or None
    __match_args__ = ("m", "orientations_with_solution", "total_antimagic_pairs", "witness", "pairs_enumerated")


def sums_distinct(n: int, arcs: tuple[Arc, ...], labels: tuple[int, ...]) -> bool:
    """Antimagic test for one oriented labeling: labels[i] leaves arcs[i]'s tail and enters its head."""
    sums = [0] * n
    for (tail, head), lbl in zip(arcs, labels):
        sums[head] += lbl
        sums[tail] -= lbl
    return len(set(sums)) == n


def _check_cap(m: int, cap: int) -> None:
    if m > cap:
        raise ResourceLimitError(f"m={m} exceeds the oracle cap {cap}")


def _arcs(edges: tuple, orientation: int) -> tuple[Arc, ...]:
    """Bit i set means edges[i] = (u, v) with u < v runs v -> u; clear means u -> v."""
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
    n = t.n
    witness = None
    good_orientations = 0
    total_pairs = 0
    enumerated = 0
    for orientation in range(1 << m):
        arcs = _arcs(t.edges, orientation)
        hit_here = 0
        for labeling in permutations(range(1, m + 1)):
            enumerated += 1
            if sums_distinct(n, arcs, labeling):
                hit_here += 1
                if witness is None:
                    witness = OrientedLabeling(n=n, arcs=arcs, labels=labeling)
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


def confirm_construction(c: Caterpillar, seed: int = 0) -> bool:
    """True iff the constructed output is an orientation of c that the oracle accepts."""
    _check_cap(c.m, DEFAULT_CAP)
    ol, _ = construct(c, seed=seed)
    if {(u, v) if u < v else (v, u) for u, v in ol.arcs} != set(c.tree.edges):
        return False
    return sums_distinct(c.tree.n, ol.arcs, ol.labels) and verification.verify_antimagic(ol)


def _disagreements(t: Tree, pairs: Iterable[tuple[int, tuple[int, ...]]]) -> tuple[int, int]:
    """(pairs checked, disagreements) between the oracle test and the verifier.

    The first pair of each orientation builds a fully checked labeling; later
    pairs of that orientation reuse its checked arcs and check only their labels.
    """
    first: dict[int, OrientedLabeling] = {}  # at most 2^m entries
    checked = 0
    mismatches = 0
    for orientation, labeling in pairs:
        checked += 1
        ol = first.get(orientation)
        if ol is None:
            ol = first[orientation] = OrientedLabeling(n=t.n, arcs=_arcs(t.edges, orientation), labels=labeling)
        else:
            ol = ol.with_labels(labeling)
        if sums_distinct(t.n, ol.arcs, ol.labels) != verification.verify_antimagic(ol):
            mismatches += 1
    return checked, mismatches


def _pairs(m: int, indices: Iterable[int]) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Decode each index in range(2^m * m!) into an (orientation, labeling) pair.

    The low m bits are the orientation; the rest is the labeling's
    lexicographic rank among the permutations of [1, m], read as a Lehmer code.
    """
    low = (1 << m) - 1
    radices = [math.factorial(i) for i in reversed(range(m))]
    for r in indices:
        rank = r >> m
        rest = list(range(1, m + 1))
        labeling = []
        for f in radices:
            q, rank = divmod(rank, f)
            labeling.append(rest.pop(q))
        yield r & low, tuple(labeling)


def agreement_on_random_pairs(t: Tree, pairs: int, seed: int) -> int:
    """Count disagreements between the oracle test and the verifier on random pairs.

    Each pair is one uniform draw from all 2^m * m! pairs.
    """
    m = len(t.edges)
    _check_cap(m, DEFAULT_CAP)
    rng = random.Random(seed)
    return _disagreements(t, _pairs(m, map(rng.randrange, repeat((1 << m) * math.factorial(m), pairs))))[1]


def agreement_on_all_pairs(t: Tree) -> tuple[int, int]:
    """(pairs checked, disagreements) over the full enumeration."""
    m = len(t.edges)
    _check_cap(m, FULL_COUNT_MAX_M)
    checked, mismatches = _disagreements(t, product(range(1 << m), permutations(range(1, m + 1))))
    assert checked == (1 << m) * math.factorial(m)
    return checked, mismatches
