"""Seven-step construction of an antimagic orientation of a caterpillar.

Given a caterpillar with m edges and r leaves, the steps are:

  1. split the labels [1, m] at k1 = ceil((m-r+1)/2) and k2 = ceil((m+r)/2) - 1;
  2. label the even-length path with L1 and L3 alternating from the top;
  3. classify the interior path vertices as light or heavy;
  4. orient the path, keeping direction through light vertices and flipping
     at heavy ones;
  5. orient the off-path edges so light edges shrink and heavy edges grow
     the weight of their path vertex;
  6. give light edges the largest labels of L2, by nondecreasing path weight;
  7. spend the rest of L2 on heavy edges: a random draw for all but one edge
     per vertex, then the leftovers in nondecreasing partial-weight order.

The resulting oriented labeling has pairwise distinct vertex sums for every
caterpillar and every random draw in step 7.
"""

from __future__ import annotations

import random

from .graph_core import (
    Arc,
    Caterpillar,
    Edge,
    InputError,
    InvariantViolation,
    LabelPartition,
    OrientedLabeling,
    PathDecomposition,
    Record,
    VertexClass,
    longest_path_decomposition,
)

# The members as plain module names: on Python 3.11 each `VertexClass.LIGHT`
# read goes through the enum type's __getattr__, ten times the cost of a name.
LIGHT, HEAVY = VertexClass.LIGHT, VertexClass.HEAVY
PATH_END_LEAF, NON_PATH_LEAF = VertexClass.PATH_END_LEAF, VertexClass.NON_PATH_LEAF


class ConstructionTrace(Record):
    """What the construction decided that its labeling does not show: the split, the path and the classes."""

    __match_args__ = ("partition", "decomposition", "classes")  # classes is indexed by vertex

    @property
    def n_l(self) -> int:
        """The number of light vertices, all of which lie on the path."""
        return sum(self.classes[v] is LIGHT for v in self.decomposition.path)


def compute_label_partition(m: int, r: int) -> LabelPartition:
    """Step 1. k1 + k2 = m always holds (numerically retested elsewhere)."""
    if m < 2:
        raise InputError(f"need at least 2 edges, got m={m}")
    if not 2 <= r <= m:
        raise InputError(f"leaf count r={r} outside [2, m={m}]")
    k1 = -((m - r + 1) // -2)  # ceil((m-r+1)/2)
    k2 = -((m + r) // -2) - 1  # ceil((m+r)/2) - 1
    return LabelPartition(m=m, k1=k1, k2=k2)


def label_path_edges(d: PathDecomposition, p: LabelPartition) -> dict[Edge, int]:
    """Step 2: path edge i gets k1 - i/2 (even i) or m - (i-1)/2 (odd i)."""
    labels: dict[Edge, int] = {}
    for i, e in enumerate(d.path_edges):
        labels[e] = p.k1 - i // 2 if i % 2 == 0 else p.m - (i - 1) // 2
    if sorted(labels.values()) != [*p.L1, *p.L3]:
        raise InvariantViolation("path labels do not exhaust L1 and L3")
    return labels


def classify_vertices(
    c: Caterpillar, d: PathDecomposition, path_labels: dict[Edge, int]
) -> list[VertexClass]:
    """Step 3: interior path vertices split into light and heavy.

    A path vertex of degree >= 2 is light when its plain sum of incident path
    labels stays below m and exactly one neighbor lies off the path; otherwise
    it is heavy. Degree-one path vertices (u_0, and u_k in the even case) are
    path-end leaves; everything off the path is a plain leaf. The result is
    indexed by vertex.
    """
    m = c.m
    classes = [NON_PATH_LEAF] * (m + 1)
    labels = [0, *map(path_labels.__getitem__, d.path_edges), 0]  # labels[i]: path edge i-1
    for i, v in enumerate(d.path):
        if i == 0 or (i == d.k and d.trimmed_tail is None):
            classes[v] = PATH_END_LEAF
        elif labels[i] + labels[i + 1] < m and len(d.offpath_leaves[i]) == 1:
            classes[v] = LIGHT
        else:
            classes[v] = HEAVY
    return classes


def orient_path(d: PathDecomposition, classes: list[VertexClass]) -> tuple[bool, ...]:
    """Step 4. Direction flag per path edge; True means u_i -> u_{i+1}."""
    dirs = [True]  # u_0 -> u_1 always
    forward = True
    for v in d.path[1:d.k]:
        cls = classes[v]
        if cls is HEAVY:
            forward = not forward
        elif cls is not LIGHT:
            raise InvariantViolation(f"interior path vertex {v} is neither light nor heavy")
        dirs.append(forward)
    return tuple(dirs)


def _path_sums(
    d: PathDecomposition, dirs: tuple[bool, ...], path_labels: dict[Edge, int]
) -> list[int]:
    """Oriented sum of each path vertex u_0..u_k over the oriented path edges alone."""
    sums = [0] * (d.k + 1)
    for i, e in enumerate(d.path_edges):
        flow = path_labels[e] if dirs[i] else -path_labels[e]  # from u_i to u_{i+1}
        sums[i] -= flow
        sums[i + 1] += flow
    return sums


def orient_nonpath_edges(
    c: Caterpillar,
    d: PathDecomposition,
    classes: list[VertexClass],
    dirs: tuple[bool, ...],
    path_labels: dict[Edge, int],
) -> dict[Edge, Arc]:
    """Step 5: light edges point away from positive path sums, heavy edges into them."""
    arcs: dict[Edge, Arc] = {}
    for u, leaves, s in zip(d.path, d.offpath_leaves, _path_sums(d, dirs, path_labels)):
        if not leaves:
            continue
        if s == 0:
            raise InvariantViolation(f"zero oriented path sum at {u} with an off-path edge")
        if classes[u] is LIGHT:
            outward = s > 0
        elif classes[u] is HEAVY:
            outward = s < 0
        else:
            raise InvariantViolation(f"off-path edge at unclassified vertex {u}")
        # (u, w) is already an Edge, see PathDecomposition
        if outward:
            for w in leaves:
                e = u, w
                arcs[e] = e
        else:
            for w in leaves:
                arcs[u, w] = w, u
    return arcs


def label_light_edges(
    c: Caterpillar,
    d: PathDecomposition,
    p: LabelPartition,
    classes: list[VertexClass],
    dirs: tuple[bool, ...],
    path_labels: dict[Edge, int],
) -> tuple[dict[Edge, int], tuple[int, ...]]:
    """Step 6: the t-th light vertex (by path weight, ties by index) gets k2 - t + 1."""
    sums = _path_sums(d, dirs, path_labels)
    lights = sorted(
        (abs(sums[i]), i) for i, v in enumerate(d.path) if classes[v] is LIGHT
    )
    labels: dict[Edge, int] = {}
    for t, (_, i) in enumerate(lights, start=1):
        if len(d.offpath_leaves[i]) != 1:
            raise InvariantViolation(f"light vertex {d.path[i]} without a unique off-path edge")
        labels[d.path[i], d.offpath_leaves[i][0]] = p.k2 - t + 1
    return labels, tuple(d.path[i] for _, i in lights)


def label_heavy_edges(
    c: Caterpillar,
    d: PathDecomposition,
    p: LabelPartition,
    classes: list[VertexClass],
    dirs: tuple[bool, ...],
    path_labels: dict[Edge, int],
    nonpath_arcs: dict[Edge, Arc],
    light_labels: dict[Edge, int],
    rng: random.Random,
) -> tuple[dict[Edge, int], dict[Edge, int], tuple[int, ...], dict[int, int]]:
    """Step 7, in two phases over the pool [k1+1, k2 - n_l].

    Phase 1: every heavy vertex with two or more heavy edges labels all but one
    of them with random pool labels; the edge whose leaf has the largest vertex
    id is the one deferred. Phase 2: vertices left with a single unlabeled edge
    are ordered by nondecreasing partial weight (ties by path index) and the
    t-th one receives the t-th smallest remaining label.

    Returns all heavy labels, the phase-1 labels, the phase-2 vertex order and
    each of those vertices' partial weight.
    """
    pool = range(p.k1 + 1, p.k2 - len(light_labels) + 1)
    heavy = [
        i for i, (v, leaves) in enumerate(zip(d.path, d.offpath_leaves)) if leaves and classes[v] is HEAVY
    ]
    if sum(len(d.offpath_leaves[i]) for i in heavy) != len(pool):
        raise InvariantViolation("heavy-edge count disagrees with the unused label pool")

    shuffled = list(pool)
    rng.shuffle(shuffled)
    sums = _path_sums(d, dirs, path_labels)
    draw = shuffled.pop
    phase1: dict[Edge, int] = {}
    deferred = []  # (partial weight, path index, vertex, deferred edge)
    for i in heavy:
        u, leaves, s = d.path[i], d.offpath_leaves[i], sums[i]
        for w in leaves[:-1]:
            e = u, w
            phase1[e] = lbl = draw()
            s += lbl if nonpath_arcs[e][1] == u else -lbl
        deferred.append((abs(s), i, u, (u, leaves[-1])))
    deferred.sort()

    labels = dict(phase1)
    for (_, _, _, e), lbl in zip(deferred, sorted(shuffled)):
        labels[e] = lbl
    order = tuple(u for _, _, u, _ in deferred)
    return labels, phase1, order, {u: w for w, _, u, _ in deferred}


def construct(c: Caterpillar, seed: int = 0) -> tuple[OrientedLabeling, ConstructionTrace]:
    """Run all seven steps and return the oriented labeling with its trace."""
    p = compute_label_partition(c.m, c.r)
    d = longest_path_decomposition(c)
    path_labels = label_path_edges(d, p)
    classes = classify_vertices(c, d, path_labels)
    dirs = orient_path(d, classes)
    nonpath_arcs = orient_nonpath_edges(c, d, classes, dirs, path_labels)
    light_labels, _ = label_light_edges(c, d, p, classes, dirs, path_labels)
    rng = random.Random(seed)
    heavy_labels, *_ = label_heavy_edges(
        c, d, p, classes, dirs, path_labels, nonpath_arcs, light_labels, rng
    )

    # Path edges in path order, then off-path edges in sorted order: the order
    # in which step 5 inserted them.
    arcs = [(u, v) if forward else (v, u) for u, v, forward in zip(d.path, d.path[1:], dirs)]
    arcs += nonpath_arcs.values()
    labels = list(map(path_labels.__getitem__, d.path_edges))
    offpath_labels = light_labels | heavy_labels
    try:
        labels += map(offpath_labels.__getitem__, nonpath_arcs)
    except KeyError:
        raise InvariantViolation("an off-path edge was never labeled") from None

    ol = OrientedLabeling(n=c.m + 1, arcs=tuple(arcs), labels=tuple(labels))
    return ol, ConstructionTrace(partition=p, decomposition=d, classes=classes)
