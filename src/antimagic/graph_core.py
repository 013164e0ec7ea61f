"""Tree / caterpillar data model shared by construction, verification and search.

A caterpillar is kept in a canonical form: the spine vertices come first
(numbered left to right), then the leaves, grouped by the spine vertex they
attach to. All iteration orders derive from this numbering, so every run over
the same instance is reproducible.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from itertools import accumulate, chain, repeat

Edge = tuple[int, int]  # unordered pair, stored as (min, max)
Arc = tuple[int, int]   # ordered pair (tail, head)


class Record:
    """An immutable value, equal, hashed and shown by the fields `__match_args__` names.

    `__init__` binds each field, by position or by keyword, exactly once, and
    stores it in `vars(self)`; a subclass that validates or normalises its
    fields defines its own `__init__` and stores them the same way. Assigning
    or deleting an attribute afterwards raises AttributeError. The methods are
    written once, here, so defining a record generates no code at import.
    """

    __match_args__: tuple[str, ...] = ()

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self.__match_args__
        # zip drops surplus positional arguments and a keyword overrides its field: either leaves fewer fields
        fields = dict(zip(names, args), **kwargs) if args else kwargs
        if len(fields) != len(args) + len(kwargs) or fields.keys() != {*names}:
            surplus = len(args) > len(names)
            faults = [f"{len(args)} positional arguments for {len(names)} fields"] if surplus else []
            faults += [f"field {name!r} given twice" for name in names[: len(args)] if name in kwargs]
            faults += [f"unknown field {name!r}" for name in kwargs if name not in names]
            faults += [f"missing field {name!r}" for name in names if name not in fields]
            raise TypeError(f"{type(self).__qualname__}: {'; '.join(faults)}")
        vars(self).update(fields)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__match_args__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class InputError(ValueError):
    """Invalid caller-supplied input (malformed graph, labels, or flags)."""


class InvariantViolation(RuntimeError):
    """An internal guarantee of the construction was broken: implementation bug."""


class ResourceLimitError(RuntimeError):
    """Refusal of work whose size exceeds a cap: the oracle's search or an input line."""


def spans_tree(n: int, pairs: tuple[tuple[int, int], ...]) -> bool:
    """True iff the pairs, read as undirected edges, are the edges of a tree on 0..n-1.

    Nothing n-sized is built unless there are n - 1 pairs.
    """
    if n < 1 or len(pairs) != n - 1:
        return False
    # n - 1 pairs on n vertices form a tree iff none closes a cycle; a
    # self-loop or a repeated pair closes one.
    parent = list(range(n))
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            return False
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u == v:
            return False
        parent[v] = u
    return True


def _tree_fault(n: int, pairs: tuple[tuple[int, int], ...]) -> str | None:
    """None if `spans_tree(n, pairs)`; otherwise the first fault of the pairs, checked in this order."""
    if spans_tree(n, pairs):
        return None
    if n < 1:
        return "tree must have at least one vertex"
    for u, v in pairs:
        if u == v:
            return f"self-loop at vertex {u}"
    if len(pairs) != n - 1:
        return f"a tree on n={n} vertices needs {n - 1} edges, got {len(pairs)}"
    normalized = sorted([(u, v) if u < v else (v, u) for u, v in pairs])
    if len(set(normalized)) != len(normalized):
        return "parallel edges are not allowed"
    for u, v in normalized:
        if not (0 <= u < n and 0 <= v < n):
            return f"edge ({u},{v}) out of range for n={n}"
    # n - 1 distinct edges on n vertices that are no tree leave it disconnected.
    return "edge set is not connected"


class Tree(Record):
    """Undirected tree on vertices 0..n-1."""

    __match_args__ = ("n", "edges")

    def __init__(self, n: int, edges: tuple[Edge, ...]) -> None:
        fault = _tree_fault(n, edges)
        if fault is not None:
            raise InputError(fault)
        vars(self).update(n=n, edges=tuple(sorted([(u, v) if u < v else (v, u) for u, v in edges])))


class Caterpillar(Record):
    """Canonical caterpillar: spine vertices 0..s-1, then leaves in spine order.

    Only `parse_caterpillar` makes one. The construction and its checks need
    the leaf counts alone, so the tree is built, and validated in full by
    `Tree`, on first read.
    """

    # the leaf count of each spine vertex 0..s-1, the edge count, the leaf count
    __match_args__ = ("leaf_counts", "m", "r")

    @cached_property
    def tree(self) -> Tree:
        """The caterpillar as a `Tree` in canonical numbering."""
        s, n = len(self.leaf_counts), self.m + 1
        spine_edges = zip(range(s - 1), range(1, s))
        # Leaf ids s..n-1 in order, each with its spine vertex, whose id is lower:
        # every pair is already an Edge.
        leaf_edges = zip(chain.from_iterable(map(repeat, range(s), self.leaf_counts)), range(s, n))
        return Tree(n=n, edges=tuple(chain(spine_edges, leaf_edges)))


def parse_caterpillar(leaf_counts: list[int] | tuple[int, ...]) -> Caterpillar:
    """The canonical caterpillar for a leaf-count sequence, its tree not yet built.

    Spine vertices are numbered 0..s-1 left to right; leaf i of spine vertex j
    gets the next id after all leaves of spine vertices < j. Counts that pass
    the checks here always give a tree (a spine path with leaves hung on it),
    so building `Caterpillar.tree` later cannot fail.
    """
    counts = tuple(map(int, leaf_counts))
    if not counts:
        raise InputError("empty leaf-count sequence")
    if min(counts) < 0:
        raise InputError("leaf counts must be nonnegative")
    s = len(counts)
    if s == 1:
        if counts[0] < 2:
            raise InputError("non-canonical caterpillar: single spine vertex needs at least 2 leaves")
    else:
        if counts[0] < 1 or counts[-1] < 1:
            raise InputError("non-canonical caterpillar: end spine vertices need at least 1 leaf")
    r = sum(counts)
    return Caterpillar(leaf_counts=counts, m=s - 1 + r, r=r)


class PathDecomposition(Record):
    """Even-length initial segment of a longest path, plus the leftover edges.

    Every vertex off the path is a leaf of a path vertex, and in canonical
    numbering the off-path leaves of u_i are consecutive ids:
    `offpath_leaves[i]` (empty for the path's own leaves). Leaf ids exceed
    spine ids, so (u_i, w) is already an Edge for each such leaf w.
    """

    __match_args__ = (
        "path",            # u_0 .. u_k
        "k",               # number of path edges, always even
        "path_edges",      # in path order
        "offpath_leaves",  # per path index
        "trimmed_tail",    # the dropped endpoint when m - r is odd, else None
    )

    @property
    def nonpath_edges(self) -> frozenset[Edge]:
        return frozenset((u, w) for u, ws in zip(self.path, self.offpath_leaves) for w in ws)


def longest_path_decomposition(c: Caterpillar) -> PathDecomposition:
    """Pick a longest path (leaf, spine, leaf) and trim it to even length.

    When several longest paths exist the leaf with the smallest vertex id is
    taken at each end. If m - r is odd the last path edge is reclassified as a
    non-path edge and the dropped endpoint is recorded as trimmed_tail.
    """
    s = len(c.leaf_counts)
    bounds = tuple(accumulate(c.leaf_counts, initial=s))
    leaves = [range(a, b) for a, b in zip(bounds, bounds[1:])]  # per spine vertex
    # The end leaves are the first leaf of each end spine vertex, or the
    # first two of a lone one.
    full = (leaves[0][0], *range(s), leaves[-1][s == 1])
    if len(full) - 1 != c.m - c.r + 2:
        raise InvariantViolation("longest path length disagrees with m - r + 2")
    trimmed = full[-1] if (c.m - c.r) % 2 else None
    path = full if trimmed is None else full[:-1]
    k = len(path) - 1
    # u_i for 1 <= i <= s is spine vertex i-1; its off-path leaves are all
    # but the ones the path takes.
    leaves[0] = leaves[0][1:]
    if trimmed is None:
        leaves[-1] = leaves[-1][1:]
        leaves.append(range(0))
    return PathDecomposition(
        path=path,
        k=k,
        path_edges=tuple((u, v) if u < v else (v, u) for u, v in zip(path, path[1:])),
        offpath_leaves=(range(0), *leaves),
        trimmed_tail=trimmed,
    )


class LabelPartition(Record):
    """Split of the label set [1, m] into L1 = [1,k1], L2 = (k1,k2], L3 = (k2,m]."""

    __match_args__ = ("m", "k1", "k2")

    @property
    def L1(self) -> range:
        return range(1, self.k1 + 1)

    @property
    def L2(self) -> range:
        return range(self.k1 + 1, self.k2 + 1)

    @property
    def L3(self) -> range:
        return range(self.k2 + 1, self.m + 1)


class VertexClass(Enum):
    LIGHT = "light"
    HEAVY = "heavy"
    PATH_END_LEAF = "path_end_leaf"
    NON_PATH_LEAF = "leaf"


class OrientedLabeling(Record):
    """An orientation of a tree plus a bijection from its arcs to [1, m]."""

    __match_args__ = ("n", "arcs", "labels")

    def __init__(self, n: int, arcs: tuple[Arc, ...], labels: tuple[int, ...]) -> None:
        fault = _tree_fault(n, arcs)
        if fault is not None:
            raise InputError(f"arcs do not form a tree: {fault}")
        _check_labels(len(arcs), labels)
        vars(self).update(n=n, arcs=arcs, labels=labels)  # labels[i] belongs to arcs[i]

    @property
    def m(self) -> int:
        return len(self.arcs)

    def with_labels(self, labels: tuple[int, ...]) -> OrientedLabeling:
        """This labeling's n and arcs, already checked, with new labels; only the labels are checked."""
        _check_labels(len(self.arcs), labels)
        other = object.__new__(OrientedLabeling)  # no __init__, so no second arc check
        fields = vars(other)
        fields["n"], fields["arcs"], fields["labels"] = self.n, self.arcs, labels
        return other


def _check_labels(m: int, labels: tuple[int, ...]) -> None:
    if len(labels) != m:
        raise InputError("one label per arc required")
    if sorted(labels) != list(range(1, m + 1)):
        raise InputError("labels are not a bijection onto [1, m]")


def parse_leaf_counts(line: str) -> tuple[int, ...]:
    """Parse one line of the canonical text format: counts separated by spaces or tabs.

    Each count must read as `format_leaf_counts` writes it, so int()'s signs,
    leading zeros, digit separators and non-ASCII digits are refused.
    """
    spaced = line.replace("\t", " ")
    if spaced.isprintable():  # no whitespace but spaces is left
        tokens = spaced.split()
        try:
            counts = tuple(map(int, tokens))
        except ValueError:
            pass
        else:
            if " ".join(map(str, counts)) == " ".join(tokens):
                return counts
    raise InputError(f"bad leaf-count line {line!r}")


def format_leaf_counts(c: Caterpillar) -> str:
    return " ".join(str(x) for x in c.leaf_counts)
