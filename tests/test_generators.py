import itertools
import random

import networkx as nx
import pytest

from antimagic.graph_core import (
    InputError,
    Tree,
    format_leaf_counts,
    is_caterpillar,
    parse_caterpillar,
    parse_leaf_counts,
)
from antimagic.generators import (
    GeneratorConfig,
    enumerate_caterpillars,
    random_caterpillar,
)


class TestEnumerate:
    def test_order_3(self):
        assert [c.leaf_counts for c in enumerate_caterpillars(3)] == [(2,)]

    def test_order_4(self):
        assert [c.leaf_counts for c in enumerate_caterpillars(4)] == [(2,), (3,), (1, 1)]

    def test_rejects_tiny(self):
        with pytest.raises(InputError):
            list(enumerate_caterpillars(2))

    def test_no_reversal_duplicates(self):
        seen = set()
        for c in enumerate_caterpillars(10):
            key = min(c.leaf_counts, c.leaf_counts[::-1])
            assert key not in seen
            seen.add(key)

    def test_all_valid(self):
        for c in enumerate_caterpillars(9):
            assert is_caterpillar(c.tree) is not None

    @pytest.mark.parametrize("max_n", [10, 12])
    def test_count_matches_tree_filter(self, max_n):
        # independent count: filter all nonisomorphic trees through an
        # independent caterpillar predicate
        def nx_is_caterpillar(g):
            if g.number_of_nodes() < 3:
                return False
            inner = g.subgraph(v for v, d in g.degree() if d > 1)
            if inner.number_of_nodes() == 0:
                return False
            return nx.is_connected(inner) and all(d <= 2 for _, d in inner.degree())

        expected = sum(
            1
            for n in range(3, max_n + 1)
            for g in nx.nonisomorphic_trees(n)
            if nx_is_caterpillar(g)
        )
        assert sum(1 for _ in enumerate_caterpillars(max_n)) == expected

    def test_canonical_vs_networkx_isomorphism_spotcheck(self):
        # distinct canonical sequences of the same order must be nonisomorphic
        trees = [
            nx.Graph(c.tree.edges) for c in enumerate_caterpillars(8) if c.tree.n == 8
        ]
        for a, b in itertools.combinations(trees, 2):
            assert not nx.is_isomorphic(a, b)


class TestRandom:
    def test_deterministic(self):
        cfg = GeneratorConfig(spine_range=(2, 9), leaf_budget=7)
        first = random_caterpillar(cfg, random.Random(11))
        assert first.leaf_counts == random_caterpillar(cfg, random.Random(11)).leaf_counts

    def test_forced_star(self):
        cfg = GeneratorConfig(spine_range=(1, 1), leaf_budget=5)
        c = random_caterpillar(cfg, random.Random(0))
        assert c.leaf_counts == (5,)

    def test_bad_range(self):
        with pytest.raises(InputError):
            random_caterpillar(GeneratorConfig(spine_range=(3, 2), leaf_budget=5), random.Random(0))

    def test_stream_valid_and_reproducible(self):
        # one rng drawn from repeatedly, as `gen --random` does
        cfg = GeneratorConfig(spine_range=(1, 40), leaf_budget=60)
        rng = random.Random(3)
        first = [random_caterpillar(cfg, rng).leaf_counts for _ in range(200)]
        rng = random.Random(3)
        second = [random_caterpillar(cfg, rng).leaf_counts for _ in range(200)]
        assert first == second
        for counts in first:
            c = parse_caterpillar(counts)
            assert is_caterpillar(c.tree) is not None
            assert parse_leaf_counts(format_leaf_counts(c)) == c.leaf_counts
