import math
import random

import pytest

from antimagic import oracle
from antimagic.graph_core import ResourceLimitError, Tree, parse_caterpillar
from antimagic.oracle import (
    agreement_on_all_pairs,
    agreement_on_random_pairs,
    confirm_construction,
    exhaustive_search,
)
from antimagic.verification import verify_antimagic


class TestExhaustiveSearch:
    def test_p3_counts(self):
        res = exhaustive_search(parse_caterpillar([2]).tree)
        assert res.pairs_enumerated == 2**2 * math.factorial(2) == 8
        # only the two orientations with both arcs at the center work
        assert res.orientations_with_solution == 2
        assert res.total_antimagic_pairs == 4
        assert res.witness is not None
        assert verify_antimagic(res.witness)

    def test_single_edge(self):
        res = exhaustive_search(Tree(n=2, edges=((0, 1),)))
        assert res.witness is not None
        assert res.orientations_with_solution == 2  # sums are always {+1, -1}

    def test_cap_refusal(self):
        c = parse_caterpillar([1, 0, 0, 0, 1])  # m = 5
        with pytest.raises(ResourceLimitError):
            exhaustive_search(c.tree, cap=4)

    def test_enumeration_coverage_m4(self):
        res = exhaustive_search(parse_caterpillar([3]).tree)
        assert res.pairs_enumerated == 2**3 * math.factorial(3)


class TestConfirmConstruction:
    def test_five_edge(self):
        assert confirm_construction(parse_caterpillar([1, 1, 1]))

    def test_seven_edge(self):
        assert confirm_construction(parse_caterpillar([1, 0, 1, 0, 1]))

    def test_cap_propagates(self):
        with pytest.raises(ResourceLimitError, match="^m=10 exceeds the oracle cap 8$"):
            confirm_construction(parse_caterpillar([1, 0, 1, 0, 1, 0, 1]))


class TestAgreement:
    def test_full_enumeration_small(self):
        for counts in ([2], [3], [1, 1]):
            t = parse_caterpillar(counts).tree
            checked, mismatches = agreement_on_all_pairs(t)
            m = len(t.edges)
            assert checked == 2**m * math.factorial(m)
            assert mismatches == 0

    def test_random_pairs(self):
        t = parse_caterpillar([1, 0, 1, 0, 1]).tree
        assert agreement_on_random_pairs(t, pairs=2000, seed=5) == 0

    def test_random_pairs_are_the_seeded_draws(self, monkeypatch):
        seen = []
        real = oracle.sums_distinct

        def recorded(n, edges, orientation, labeling):
            seen.append((orientation, labeling))
            return real(n, edges, orientation, labeling)

        monkeypatch.setattr(oracle, "sums_distinct", recorded)
        t = parse_caterpillar([1, 0, 1, 0, 1]).tree  # m = 7
        assert agreement_on_random_pairs(t, 50, seed=5) == 0
        rng = random.Random(5)
        base = list(range(1, 8))
        assert seen == [(rng.randrange(1 << 7), tuple(rng.sample(base, 7))) for _ in range(50)]

    def test_every_disagreement_is_counted(self, monkeypatch):
        real = oracle.sums_distinct
        monkeypatch.setattr(oracle, "sums_distinct", lambda *args: not real(*args))
        assert agreement_on_random_pairs(parse_caterpillar([1, 0, 1, 0, 1]).tree, 50, seed=5) == 50
        assert agreement_on_all_pairs(parse_caterpillar([3]).tree) == (8 * 6, 8 * 6)

    def test_arcs_built_once_per_orientation(self, monkeypatch):
        built = []
        real = oracle._arcs

        def counted(edges, orientation):
            built.append(orientation)
            return real(edges, orientation)

        monkeypatch.setattr(oracle, "_arcs", counted)
        t = parse_caterpillar([1, 1, 1]).tree  # m = 5: 32 orientations
        assert agreement_on_random_pairs(t, pairs=2000, seed=5) == 0
        assert sorted(built) == sorted(set(built)) and len(built) <= 32
        built.clear()
        assert agreement_on_all_pairs(t) == (32 * 120, 0)
        assert built == list(range(32))
