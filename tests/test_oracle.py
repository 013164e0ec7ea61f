import math
import random
from itertools import islice, permutations, product

import pytest

from antimagic import oracle, verification
from antimagic.graph_core import InputError, OrientedLabeling, ResourceLimitError, Tree, parse_caterpillar
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

        def recorded(n, arcs, labeling):
            seen.append((arcs, labeling))
            return real(n, arcs, labeling)

        monkeypatch.setattr(oracle, "sums_distinct", recorded)
        t = parse_caterpillar([1, 0, 1, 0, 1]).tree  # m = 7
        assert agreement_on_random_pairs(t, 50, seed=5) == 0
        # One draw over all 2^7 * 7! pairs: the low 7 bits are the orientation,
        # the rest the labeling's rank in lexicographic order.
        rng = random.Random(5)
        draws = [rng.randrange(2**7 * math.factorial(7)) for _ in range(50)]
        ranked = lambda rank: next(islice(permutations(range(1, 8)), rank, None))
        assert seen == [(oracle._arcs(t.edges, r % 2**7), ranked(r // 2**7)) for r in draws]

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_every_index_decodes_to_a_distinct_pair(self, m):
        decoded = list(oracle._pairs(m, range(2**m * math.factorial(m))))
        assert sorted(decoded) == list(product(range(1 << m), permutations(range(1, m + 1))))

    def test_every_disagreement_is_counted(self, monkeypatch):
        real = oracle.sums_distinct
        monkeypatch.setattr(oracle, "sums_distinct", lambda *args: not real(*args))
        assert agreement_on_random_pairs(parse_caterpillar([1, 0, 1, 0, 1]).tree, 50, seed=5) == 50
        assert agreement_on_all_pairs(parse_caterpillar([3]).tree) == (8 * 6, 8 * 6)

    def test_arcs_built_once_per_orientation(self, monkeypatch):
        # Each orientation's arcs are built, and fully checked by the constructor, once.
        built, checked = [], []
        real_arcs, real_init = oracle._arcs, OrientedLabeling.__init__

        def counted_arcs(edges, orientation):
            built.append(orientation)
            return real_arcs(edges, orientation)

        def counted_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            checked.append(self.arcs)

        monkeypatch.setattr(oracle, "_arcs", counted_arcs)
        monkeypatch.setattr(OrientedLabeling, "__init__", counted_init)
        t = parse_caterpillar([1, 1, 1]).tree  # m = 5: 32 orientations
        assert agreement_on_random_pairs(t, pairs=2000, seed=5) == 0
        assert sorted(built) == sorted(set(built)) and len(built) <= 32
        assert checked == [real_arcs(t.edges, orientation) for orientation in built]
        built.clear()
        checked.clear()
        assert agreement_on_all_pairs(t) == (32 * 120, 0)
        assert built == list(range(32))
        assert checked == [real_arcs(t.edges, orientation) for orientation in range(32)]

    def test_the_verifier_judges_only_checked_labelings(self, monkeypatch):
        pairs, judged = [], []
        real_sums, real_verify = oracle.sums_distinct, verification.verify_antimagic

        def sums(n, arcs, labeling):
            pairs.append((arcs, labeling))
            return real_sums(n, arcs, labeling)

        def verify(ol):
            try:
                OrientedLabeling(n=ol.n, arcs=ol.arcs, labels=ol.labels)
            except InputError as exc:
                judged.append(exc)
            else:
                judged.append((ol.arcs, ol.labels))
            return real_verify(ol)

        monkeypatch.setattr(oracle, "sums_distinct", sums)
        monkeypatch.setattr(verification, "verify_antimagic", verify)
        t = parse_caterpillar([1, 1, 1]).tree
        assert agreement_on_random_pairs(t, pairs=2000, seed=5) == 0
        assert agreement_on_all_pairs(t) == (32 * 120, 0)
        # The oracle judges each draw, then each enumerated pair, in order; the
        # verifier judges the same checked arcs and labels.
        labelings = list(permutations(range(1, 6)))
        rng = random.Random(5)
        draws = [rng.randrange(2**5 * 120) for _ in range(2000)]
        expected = [(oracle._arcs(t.edges, r % 2**5), labelings[r // 2**5]) for r in draws]
        expected += [(oracle._arcs(t.edges, o), labeling) for o, labeling in product(range(32), labelings)]
        assert pairs == expected
        assert judged == pairs
