import networkx as nx
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from antimagic.graph_core import (
    InputError,
    OrientedLabeling,
    Tree,
    format_leaf_counts,
    longest_path_decomposition,
    parse_caterpillar,
    parse_leaf_counts,
    spans_tree,
)

from conftest import caterpillars


@st.composite
def pair_lists(draw):
    """n and a short list of vertex pairs: a random tree on 0..n-1, then up to three random edits.

    Edits replace, insert or delete a pair, with vertices from -1 to n + 1, so
    the lists include self-loops, repeated pairs, out-of-range vertices,
    cycles and wrong counts.
    """
    n = draw(st.integers(0, 7))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    vertex = st.integers(-1, n + 1)
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "insert" or not pairs:
            pairs.insert(draw(st.integers(0, len(pairs))), (draw(vertex), draw(vertex)))
        elif edit == "replace":
            pairs[draw(st.integers(0, len(pairs) - 1))] = (draw(vertex), draw(vertex))
        else:
            del pairs[draw(st.integers(0, len(pairs) - 1))]
    pairs = [(v, u) if draw(st.booleans()) else (u, v) for u, v in draw(st.permutations(pairs))]
    return n, tuple(pairs)


def is_tree_reference(n, pairs):
    """networkx's verdict on the multigraph with vertices 0..n-1 and the given pairs."""
    if n < 1 or not all(0 <= x < n for pair in pairs for x in pair):
        return False
    g = nx.MultiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(pairs)
    return nx.is_tree(g)


class TestTree:
    def test_normalizes_and_sorts_edges(self):
        assert Tree(n=4, edges=((3, 1), (1, 0), (2, 0))).edges == ((0, 1), (0, 2), (1, 3))

    @pytest.mark.parametrize(
        "n, edges, message",
        [
            (0, (), "tree must have at least one vertex"),
            (3, ((0, 0), (1, 2)), "self-loop at vertex 0"),
            (4, ((0, 1), (2, 2), (1, 1)), "self-loop at vertex 2"),  # the first one given
            (5, ((3, 3),), "self-loop at vertex 3"),  # before the edge count
            (3, ((0, 1),), "a tree on n=3 vertices needs 2 edges, got 1"),
            (3, ((0, 1), (1, 2), (0, 2)), "a tree on n=3 vertices needs 2 edges, got 3"),
            (3, ((0, 1), (1, 0)), "parallel edges are not allowed"),
            (3, ((0, 5), (5, 0)), "parallel edges are not allowed"),  # before the range
            (3, ((-1, 0), (0, 1)), r"edge \(-1,0\) out of range for n=3"),
            (3, ((0, 1), (3, 1)), r"edge \(1,3\) out of range for n=3"),
            (4, ((1, 9), (0, -1), (0, 1)), r"edge \(-1,0\) out of range for n=4"),  # first in sorted order
            (4, ((0, 1), (1, 2), (0, 2)), "edge set is not connected"),  # a triangle and vertex 3
            (6, ((0, 1), (2, 3), (3, 4), (2, 4), (1, 5)), "edge set is not connected"),
        ],
    )
    def test_rejection_messages(self, n, edges, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            Tree(n=n, edges=edges)

    def test_single_vertex(self):
        assert Tree(n=1, edges=()).edges == ()


class TestOrientedLabeling:
    def test_accepts_any_orientation(self):
        ol = OrientedLabeling(n=3, arcs=((1, 0), (1, 2)), labels=(2, 1))
        assert ol.m == 2

    @pytest.mark.parametrize(
        "n, arcs, labels, message",
        [
            (3, ((0, 1), (1, 2)), (1,), "one label per arc required"),
            (3, ((0, 1), (1, 2)), (1, 1), r"labels are not a bijection onto \[1, m\]"),
            (3, ((0, 1), (1, 2)), (0, 1), r"labels are not a bijection onto \[1, m\]"),
            (3, ((0, 1), (1, 2)), (1, 3), r"labels are not a bijection onto \[1, m\]"),
            (3, ((0, 0), (0, 0)), (1, 1), "self-loop at vertex 0"),  # arcs before labels
            (3, ((0, 0), (1, 2)), (1, 2), "self-loop at vertex 0"),
            (4, ((0, 1), (1, 0), (2, 2)), (1, 2, 3), "self-loop at vertex 2"),  # before a repeated pair
            (3, ((0, 1), (1, 0)), (1, 2), "parallel edges are not allowed"),
            (3, ((0, 1), (0, 1)), (2, 1), "parallel edges are not allowed"),
            (3, ((0, 5), (5, 0)), (1, 2), "parallel edges are not allowed"),  # before the range
            (3, ((-1, 0), (0, 1)), (1, 2), r"edge \(-1,0\) out of range for n=3"),
            (3, ((0, 1), (3, 2)), (1, 2), r"edge \(2,3\) out of range for n=3"),
            (4, ((0, 1), (1, 9), (-2, 0)), (1, 2, 3), r"edge \(-2,0\) out of range for n=4"),  # first in sorted order
            (3, ((0, 1), (1, 2), (2, 0)), (1, 2, 3), "a tree on n=3 vertices needs 2 edges, got 3"),
            (4, ((0, 1), (1, 2), (2, 0)), (1, 2, 3), "edge set is not connected"),  # a triangle and vertex 3
        ],
    )
    def test_rejection_messages(self, n, arcs, labels, message):
        # A fault of the arcs is the one Tree names for the same pairs, behind one prefix.
        if not spans_tree(n, arcs):
            with pytest.raises(InputError, match=f"^{message}$"):
                Tree(n=n, edges=arcs)
            message = "arcs do not form a tree: " + message
        with pytest.raises(InputError, match=f"^{message}$"):
            OrientedLabeling(n=n, arcs=arcs, labels=labels)


@pytest.mark.parametrize(
    "build",
    [Tree, lambda n, pairs: OrientedLabeling(n=n, arcs=pairs, labels=tuple(range(1, len(pairs) + 1)))],
    ids=["Tree", "OrientedLabeling"],
)
@given(pair_lists())
@example((1, ()))
@example((3, ((0, 5), (5, 0))))
@example((2, ((1, 1),)))
@example((3, ((0, 5), (1, 2))))
@example((4, ((0, 1), (1, 2), (2, 0))))  # a triangle and vertex 3
def test_accepts_exactly_trees(build, case):
    n, pairs = case
    try:
        build(n, pairs)
    except InputError:
        accepted = False
    else:
        accepted = True
    assert accepted == is_tree_reference(n, pairs) == spans_tree(n, pairs)


class TestParseCaterpillar:
    def test_p3(self):
        c = parse_caterpillar([2])
        assert (c.m, c.r) == (2, 2)
        assert c.tree.n == 3

    def test_five_spine(self):
        c = parse_caterpillar([1, 0, 1, 0, 1])
        assert (c.m, c.r) == (7, 3)

    def test_rejects_bare_end(self):
        with pytest.raises(InputError, match="non-canonical"):
            parse_caterpillar([0, 1, 0])

    def test_rejects_lonely_spine(self):
        with pytest.raises(InputError, match="non-canonical"):
            parse_caterpillar([1])

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            parse_caterpillar([])

    @given(caterpillars().map(lambda c: c.leaf_counts))
    @example((2,))
    @example((5,))
    @example((1, 1))
    def test_tree_built_on_first_read(self, counts):
        # Reference edges: the spine path, then each spine vertex's leaves,
        # numbered on from s in spine order.
        s = len(counts)
        edges = [(i, i + 1) for i in range(s - 1)]
        leaf = s
        for j, count in enumerate(counts):
            for _ in range(count):
                edges.append((j, leaf))
                leaf += 1
        c = parse_caterpillar(counts)
        assert "tree" not in c.__dict__
        assert c.tree == Tree(n=leaf, edges=tuple(edges))
        assert c.tree is c.tree
        assert c.tree.n == c.m + 1


class TestLongestPathDecomposition:
    def test_p3(self):
        d = longest_path_decomposition(parse_caterpillar([2]))
        assert d.k == 2
        assert d.trimmed_tail is None
        assert not d.nonpath_edges

    def test_even_case(self):
        c = parse_caterpillar([1, 0, 1, 0, 1])
        d = longest_path_decomposition(c)
        assert d.k == 6
        assert len(d.nonpath_edges) == 1
        # the leftover edge is the middle spine vertex's leaf
        assert d.nonpath_edges == frozenset({(2, 6)})

    def test_odd_case_p6(self):
        c = parse_caterpillar([1, 0, 0, 1])  # the path P6
        assert (c.m, c.r) == (5, 2)
        d = longest_path_decomposition(c)
        assert d.k == 4
        assert d.trimmed_tail == 5
        assert len(d.nonpath_edges) == 1

    @given(caterpillars())
    def test_k_parity_and_count(self, c):
        d = longest_path_decomposition(c)
        assert d.k % 2 == 0
        expected = c.r - 2 if (c.m - c.r) % 2 == 0 else c.r - 1
        assert len(d.nonpath_edges) == expected
        assert list(nx.Graph(c.tree.edges)[d.path[0]]) == [d.path[1]]  # u0 is a leaf

    @given(caterpillars())
    def test_offpath_leaves_are_offpath_neighbors(self, c):
        d = longest_path_decomposition(c)
        assert len(d.offpath_leaves) == d.k + 1
        g = nx.Graph(c.tree.edges)
        on_path = set(d.path)
        for v, leaves in zip(d.path, d.offpath_leaves):
            assert list(leaves) == sorted(w for w in g[v] if w not in on_path)

    @given(caterpillars())
    def test_longest_path_matches_bfs_diameter(self, c):
        # independent double-BFS diameter oracle
        g = nx.Graph(c.tree.edges)

        def far(start):
            dist = {start: 0}
            frontier = [start]
            while frontier:
                nxt = []
                for v in frontier:
                    for w in g[v]:
                        if w not in dist:
                            dist[w] = dist[v] + 1
                            nxt.append(w)
                frontier = nxt
            best = max(dist.values())
            return next(v for v in dist if dist[v] == best), best

        a, _ = far(0)
        _, diameter = far(a)
        assert diameter == c.m - c.r + 2


class TestTextFormat:
    def test_parse_line(self):
        assert parse_leaf_counts("1 0 1 0 1") == (1, 0, 1, 0, 1)

    def test_parse_bad_token(self):
        with pytest.raises(InputError):
            parse_leaf_counts("1 x 1")

    @given(caterpillars())
    def test_round_trip(self, c):
        assert parse_leaf_counts(format_leaf_counts(c)) == c.leaf_counts
