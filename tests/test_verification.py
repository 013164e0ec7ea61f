import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from antimagic.construction import ConstructionTrace, construct
from antimagic.graph_core import (
    InputError,
    LabelPartition,
    OrientedLabeling,
    VertexClass,
    parse_caterpillar,
    parse_leaf_counts,
)
from antimagic.verification import (
    check_claims,
    check_class_intervals,
    check_weight_classes,
    oriented_sums,
    pairwise_distinct,
    path_flows,
    verify_antimagic,
)

from conftest import caterpillars


@st.composite
def random_labelings(draw):
    """Arbitrary orientation and labeling of a caterpillar's edges."""
    c = draw(caterpillars())
    rng = random.Random(draw(st.integers(0, 2**32)))
    perm = list(range(1, c.m + 1))
    rng.shuffle(perm)
    arcs = tuple((v, u) if rng.random() < 0.5 else (u, v) for u, v in c.tree.edges)
    return OrientedLabeling(n=c.tree.n, arcs=arcs, labels=tuple(perm))


class TestOrientedSums:
    def test_p3_construction(self):
        ol, _ = construct(parse_caterpillar([2]))
        # path order: leaf 1, center 0, leaf 2
        assert oriented_sums(ol) == [3, -1, -2]

    def test_single_arc(self):
        ol = OrientedLabeling(n=2, arcs=((0, 1),), labels=(1,))
        assert oriented_sums(ol) == [-1, 1]

    def test_rejects_non_bijection(self):
        with pytest.raises(InputError):
            OrientedLabeling(n=3, arcs=((0, 1), (1, 2)), labels=(1, 1))

    @given(random_labelings())
    def test_total_is_zero(self, ol):
        assert sum(oriented_sums(ol)) == 0


class TestVerifyAntimagic:
    def test_path_through_p3_collides(self):
        ol = OrientedLabeling(n=3, arcs=((0, 1), (1, 2)), labels=(1, 2))
        assert oriented_sums(ol) == [-1, -1, 2]
        assert not verify_antimagic(ol)

    def test_constructed_p3(self):
        ol, _ = construct(parse_caterpillar([2]))
        assert verify_antimagic(ol)

    @given(random_labelings())
    def test_reversal_invariance(self, ol):
        reversed_ol = OrientedLabeling(
            n=ol.n, arcs=tuple((h, t) for t, h in ol.arcs), labels=ol.labels
        )
        assert verify_antimagic(ol) == verify_antimagic(reversed_ol)

    @given(st.lists(st.integers(-30, 30)))
    def test_pairwise_distinct_agrees_with_pairwise_comparison(self, values):
        assert pairwise_distinct(values) == all(a != b for a, b in itertools.combinations(values, 2))


class TestWeightClasses:
    def test_five_edge_ranges(self):
        ol, trace = construct(parse_caterpillar([1, 1, 1]))
        report = check_weight_classes(ol, trace)
        assert report.antimagic
        assert not report.violations
        assert report.class_ranges["degree_one"] == (2, 4)
        assert report.class_ranges["heavy_no_heavy_edge"] == (5, 7)
        assert report.class_ranges["heavy_with_heavy_edge"] == (9, 9)
        assert "light" not in report.class_ranges

    def test_seven_edge_ranges(self):
        ol, trace = construct(parse_caterpillar([1, 0, 1, 0, 1]))
        report = check_weight_classes(ol, trace)
        assert not report.violations
        assert report.class_ranges["degree_one"] == (3, 5)
        assert report.class_ranges["heavy_no_heavy_edge"] == (6, 10)

    def test_detects_corruption(self):
        ol, trace = construct(parse_caterpillar([1, 1, 1]))
        labels = list(ol.labels)
        labels[0], labels[1] = labels[1], labels[0]
        bad = OrientedLabeling(n=ol.n, arcs=ol.arcs, labels=tuple(labels))
        report = check_weight_classes(bad, trace)
        assert report.violations

    @pytest.mark.parametrize(
        "line, swap, violations",
        [
            (
                "1 0 0 0 1 1",
                (0, 4),
                [
                    "light_not_distinct",
                    "degree_one_range",
                    "heavy_no_heavy_edge_not_distinct",
                    "heavy_no_heavy_edge_not_decreasing",
                    "u0_weight",
                    "class_ranges_overlap",
                    "all_weights_not_distinct",
                ],
            ),
            (
                "1 0 1 1 1",
                (0, 4),
                [
                    "degree_one_range",
                    "heavy_no_heavy_edge_not_distinct",
                    "heavy_with_heavy_edge_not_distinct",
                    "heavy_no_heavy_edge_not_decreasing",
                    "u0_weight",
                    "all_weights_not_distinct",
                ],
            ),
            # two equal light weights, ranges disjoint: only the per-group distinctness check sees them
            ("1 0 0 0 1 1", (5, 7), ["light_not_distinct", "all_weights_not_distinct"]),
            # weights still pairwise distinct: ranges and order only
            ("1 1", (0, 2), ["heavy_no_heavy_edge_range", "heavy_with_heavy_edge_range", "u0_weight"]),
            # two plain heavy weights, distinct and in range, now increase along the path
            ("2 0 0 2", (1, 3), ["heavy_no_heavy_edge_not_decreasing"]),
            # sums 7 and -7: equal weights in two groups, distinct sums, so still antimagic
            (
                "1 2",
                (0, 2),
                ["heavy_no_heavy_edge_range", "u0_weight", "class_ranges_overlap", "all_weights_not_distinct"],
            ),
        ],
    )
    def test_violation_lists(self, line, swap, violations):
        # the whole list, in order, for labelings with two labels swapped (construction seed 0)
        ol, trace = construct(parse_caterpillar(parse_leaf_counts(line)))
        labels = list(ol.labels)
        i, j = swap
        labels[i], labels[j] = labels[j], labels[i]
        bad = OrientedLabeling(n=ol.n, arcs=ol.arcs, labels=tuple(labels))
        report = check_weight_classes(bad, trace)
        assert report.violations == violations
        assert report.antimagic == verify_antimagic(bad)

    @pytest.mark.parametrize(
        "group, bound, step",
        [
            ("light", lambda m, k1, k2: k1 - 1, 1),
            ("degree_one", lambda m, k1, k2: k1, -1),
            ("degree_one", lambda m, k1, k2: k2 + 1, 1),
            ("heavy_no_heavy_edge", lambda m, k1, k2: k2 + 2, -1),
            ("heavy_no_heavy_edge", lambda m, k1, k2: m + k1, 1),
            ("heavy_with_heavy_edge", lambda m, k1, k2: m + k1 + 1, -1),
        ],
        ids=["light<=k1-1", "degree_one>=k1", "degree_one<=k2+1", "plain>=k2+2", "plain<=m+k1", "heavy_edge>=m+k1+1"],
    )
    def test_each_interval_bound(self, group, bound, step):
        # one vertex of the group weighs the bound itself, then one step outside it
        c = parse_caterpillar([4, 0, 0, 2, 0, 1, 3])  # m=16, k1=4, k2=12: all four groups occur
        ol, trace = construct(c)
        p, path = trace.partition, trace.decomposition.path
        sums = oriented_sums(ol)
        least = check_weight_classes(ol, trace).class_ranges[group][0]
        v = next(v for v, s in enumerate(sums) if abs(s) == least)  # weights are distinct: v is in the group
        edge = bound(c.m, p.k1, p.k2)
        for weight, outside in ((edge, False), (edge + step, True)):
            sums[v] = weight
            violations, _ = check_class_intervals(ol, sums, trace.classes, path, p.k1, p.k2)
            assert (f"{group}_range" in violations) == outside

    def test_uk_weight_is_checked_only_at_a_path_end_leaf(self):
        # m - r odd trims the path: u_k is heavy ("1 1") or light ("1 0 0 0 1 1"), never k2 + 1
        for counts in ([1, 1], [1, 0, 0, 0, 1, 1]):
            ol, trace = construct(parse_caterpillar(counts))
            p, path = trace.partition, trace.decomposition.path
            sums = oriented_sums(ol)
            assert trace.decomposition.trimmed_tail is not None
            assert trace.classes[path[-1]] is not VertexClass.PATH_END_LEAF
            assert abs(sums[path[-1]]) != p.k2 + 1
            violations, _ = check_class_intervals(ol, sums, trace.classes, path, p.k1, p.k2)
            assert "uk_weight" not in violations
        # the worked example's path ends at a path-end leaf, which must weigh k2 + 1 = 13
        ol, trace = construct(parse_caterpillar([4, 0, 0, 2, 0, 1, 3]))
        p, path = trace.partition, trace.decomposition.path
        sums = oriented_sums(ol)
        assert trace.classes[path[-1]] is VertexClass.PATH_END_LEAF
        for weight, reported in ((p.k2 + 1, False), (p.k2, True), (p.k2 + 2, True)):
            sums[path[-1]] = weight
            violations, _ = check_class_intervals(ol, sums, trace.classes, path, p.k1, p.k2)
            assert ("uk_weight" in violations) == reported

    @given(caterpillars(), st.integers(0, 5))
    def test_class_intervals_nested(self, c, seed):
        ol, trace = construct(c, seed=seed)
        report = check_weight_classes(ol, trace)
        assert not report.violations
        ordered = sorted(report.class_ranges.values())
        for (_, hi), (lo, _) in zip(ordered, ordered[1:]):
            assert hi < lo


def test_path_flows():
    ol = OrientedLabeling(n=4, arcs=((0, 1), (2, 1), (2, 3)), labels=(3, 1, 2))
    assert path_flows(ol, [0, 1, 2, 3]) == [3, -1, 2]
    assert path_flows(ol, [3, 2, 1]) == [-2, 1]
    assert path_flows(ol, [0, 2, 3]) == [0, 2]  # no arc joins 0 and 2


class TestClaims:
    def test_worked_example_partition(self):
        c = parse_caterpillar([4, 0, 0, 2, 0, 1, 3])  # m=16, r=10
        ol, trace = construct(c)
        assert trace.partition.k1 + trace.partition.k2 == 16
        assert dict(check_claims(c, ol, trace)) == {
            "claim1": True,
            "claim2": True,
            "claim3": True,
        }

    def test_p3(self):
        c = parse_caterpillar([2])
        ol, trace = construct(c)
        assert all(ok for _, ok in check_claims(c, ol, trace))

    def test_swapped_path_labels_break_claim2(self):
        c = parse_caterpillar([4, 0, 0, 2, 0, 1, 3])  # m=16, k2=12
        ol, trace = construct(c)
        assert trace.classes[trace.decomposition.path[6]] is VertexClass.LIGHT and trace.n_l == 1
        assert ol.labels[4:7] == (2, 14, 1)  # path edges come first, in path order
        labels = list(ol.labels)
        labels[4], labels[5] = labels[5], labels[4]
        # the light vertex u_6's path weight |1 - 14| = 13 becomes |1 - 2| = 1, outside {k2, k2 + 1}
        assert check_claims(c, ol.with_labels(tuple(labels)), trace) == [
            ("claim1", True),
            ("claim2", False),
            ("claim3", True),
        ]

    def test_high_weight_at_an_odd_index_breaks_claim2(self):
        # The first instance a search of order <= 12 found where one label swap
        # leaves every light weight in {k2, k2 + 1} but puts k2 + 1 at an odd
        # path index: claim 2 must fail on the parity alone.
        c = parse_caterpillar([1, 0, 0, 0, 2])  # m=7, k2=4
        ol, trace = construct(c)
        assert trace.partition.k2 == 4
        assert trace.classes[trace.decomposition.path[5]] is VertexClass.LIGHT and trace.n_l == 1
        assert ol.labels[3:6] == (6, 1, 5)  # path edges 3, 4 and 5
        labels = list(ol.labels)
        labels[3], labels[5] = labels[5], labels[3]
        forged = ol.with_labels(tuple(labels))
        # u_5's path weight |1 - 5| = 4 = k2 becomes |1 - 6| = 5 = k2 + 1
        flows = path_flows(forged, trace.decomposition.path)
        assert (flows[4], flows[5]) == (1, 6)
        assert check_claims(c, forged, trace) == [
            ("claim1", True),
            ("claim2", False),
            ("claim3", True),
        ]

    def test_split_not_summing_to_m_breaks_claim1(self):
        c = parse_caterpillar([4, 0, 0, 2, 0, 1, 3])  # m=16, k1=4, k2=12
        ol, trace = construct(c)
        p = trace.partition
        # k1 one higher: claim 3's bound k1 - 1 only loosens and claim 2 reads k2 alone
        forged = ConstructionTrace(**{**vars(trace), "partition": LabelPartition(m=p.m, k1=p.k1 + 1, k2=p.k2)})
        assert check_claims(c, ol, forged) == [
            ("claim1", False),
            ("claim2", True),
            ("claim3", True),
        ]

    def test_claim3_bound_is_k1_minus_1(self):
        c = parse_caterpillar([2])  # m=2, k1=k2=1, no light vertex
        ol, trace = construct(c)
        p, path = trace.partition, trace.decomposition.path
        assert trace.n_l == p.k1 - 1
        assert check_claims(c, ol, trace) == [("claim1", True), ("claim2", True), ("claim3", True)]
        # u_k made light: its path weight, the last path label 2 = k2 + 1, sits at the even index k, so
        # claim 2 still holds while n_l becomes k1
        classes = list(trace.classes)
        classes[path[-1]] = VertexClass.LIGHT
        forged = ConstructionTrace(**{**vars(trace), "classes": classes})
        assert forged.n_l == p.k1
        assert check_claims(c, ol, forged) == [("claim1", True), ("claim2", True), ("claim3", False)]

    @given(caterpillars(), st.integers(0, 5))
    def test_all_claims_hold(self, c, seed):
        ol, trace = construct(c, seed=seed)
        assert all(ok for _, ok in check_claims(c, ol, trace))
