
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antimagic import construction
from antimagic.construction import (
    compute_label_partition,
    construct,
    label_path_edges,
)
from antimagic.graph_core import (
    InputError,
    InvariantViolation,
    VertexClass,
    parse_caterpillar,
    parse_leaf_counts,
)
from antimagic.verification import check_claims, check_weight_classes, oriented_sums, verify_antimagic

from conftest import caterpillars


class TestLabelPartition:
    def test_worked_example_scalars(self):
        p = compute_label_partition(16, 10)
        assert (p.k1, p.k2) == (4, 12)
        assert (list(p.L1), list(p.L2), list(p.L3)) == (
            list(range(1, 5)),
            list(range(5, 13)),
            list(range(13, 17)),
        )

    def test_p3(self):
        p = compute_label_partition(2, 2)
        assert (p.k1, p.k2) == (1, 1)
        assert list(p.L2) == []

    def test_seven_three(self):
        p = compute_label_partition(7, 3)
        assert (p.k1, p.k2) == (3, 4)

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            compute_label_partition(1, 2)
        with pytest.raises(InputError):
            compute_label_partition(5, 6)

    @given(st.integers(2, 2000), st.data())
    def test_split_identity(self, m, data):
        r = data.draw(st.integers(2, m))
        p = compute_label_partition(m, r)
        assert p.k1 + p.k2 == m
        assert len(p.L1) + len(p.L2) + len(p.L3) == m


def path_label_sequence(counts):
    from antimagic.graph_core import longest_path_decomposition

    c = parse_caterpillar(counts)
    p = compute_label_partition(c.m, c.r)
    d = longest_path_decomposition(c)
    labels = label_path_edges(d, p)
    return [labels[e] for e in d.path_edges]


class TestPathLabels:
    def test_k4(self):
        assert path_label_sequence([1, 1, 1]) == [2, 5, 1, 4]

    def test_p3(self):
        assert path_label_sequence([2]) == [1, 2]

    def test_k6(self):
        assert path_label_sequence([1, 0, 1, 0, 1]) == [3, 7, 2, 6, 1, 5]


def classes_by_path_position(counts):
    from antimagic.construction import classify_vertices
    from antimagic.graph_core import longest_path_decomposition

    c = parse_caterpillar(counts)
    p = compute_label_partition(c.m, c.r)
    d = longest_path_decomposition(c)
    cls = classify_vertices(c, d, label_path_edges(d, p))
    return [cls[v] for v in d.path], cls, d


class TestClassify:
    def test_p3_center_heavy(self):
        by_pos, _, _ = classes_by_path_position([2])
        assert by_pos == [
            VertexClass.PATH_END_LEAF,
            VertexClass.HEAVY,
            VertexClass.PATH_END_LEAF,
        ]

    def test_interior_all_heavy(self):
        # every interior vertex has path-label sum >= m, or no off-path neighbor
        by_pos, _, _ = classes_by_path_position([1, 0, 1, 0, 1])
        assert by_pos[1:-1] == [VertexClass.HEAVY] * 5

    def test_light_at_far_end(self):
        # the second-to-last path vertex has sum 1 + 5 = 6 < 7 and one off-path leaf
        by_pos, _, d = classes_by_path_position([1, 0, 0, 0, 2])
        assert by_pos[5] is VertexClass.LIGHT
        assert by_pos[1:5] == [VertexClass.HEAVY] * 4


def arcs_with_labels(ol):
    return sorted(zip(ol.arcs, ol.labels))


class TestConstructGoldens:
    """Hand-traced instances; each is re-checked by the independent verifier."""

    def test_p3(self):
        ol, _ = construct(parse_caterpillar([2]))
        assert arcs_with_labels(ol) == [((1, 0), 1), ((2, 0), 2)]
        assert oriented_sums(ol) == [3, -1, -2]

    def test_five_edge(self):
        # path 0..4 (vertices 3,0,1,2,5 in canonical ids) plus leaf 4 at the middle
        ol, trace = construct(parse_caterpillar([1, 1, 1]))
        assert arcs_with_labels(ol) == [
            ((1, 0), 5),
            ((1, 2), 1),
            ((1, 4), 3),
            ((3, 0), 2),
            ((5, 2), 4),
        ]
        assert oriented_sums(ol) == [7, -9, 5, -2, 3, -4]
        assert verify_antimagic(ol)
        assert not check_weight_classes(ol, trace).violations

    def test_two_leaf_tail(self):
        # one light vertex at the far spine end, weight 0 is legal and distinct
        c = parse_caterpillar([1, 0, 0, 0, 2])
        ol, trace = construct(c)
        assert arcs_with_labels(ol) == [
            ((1, 0), 7),
            ((1, 2), 2),
            ((3, 2), 6),
            ((3, 4), 1),
            ((4, 6), 5),
            ((5, 0), 3),
            ((7, 4), 4),
        ]
        sums = oriented_sums(ol)
        assert sums[4] == 0  # the light vertex
        assert verify_antimagic(ol)
        assert trace.light_order == (4,)
        assert not check_weight_classes(ol, trace).violations

    def test_seven_edge(self):
        c = parse_caterpillar([1, 0, 1, 0, 1])
        ol, trace = construct(c)
        assert arcs_with_labels(ol) == [
            ((1, 0), 7),
            ((1, 2), 2),
            ((3, 2), 6),
            ((3, 4), 1),
            ((5, 0), 3),
            ((6, 2), 4),
            ((7, 4), 5),
        ]
        assert oriented_sums(ol) == [10, -9, 12, -7, 6, -3, -4, -5]
        assert trace.light_order == ()
        assert not check_weight_classes(ol, trace).violations

    def test_star_all_seeds(self):
        # both possible random draws for the center's heavy edges must work
        c = parse_caterpillar([4])
        seen = set()
        for seed in range(8):
            ol, trace = construct(c, seed=seed)
            assert verify_antimagic(ol)
            assert not check_weight_classes(ol, trace).violations
            seen.add(ol.labels)
        assert len(seen) == 2


class _ScriptedShuffle:
    """Shuffle stub: forces the step-7 phase-1 draw order for the golden test."""

    def __init__(self, arrangement):
        self._arrangement = list(arrangement)

    def shuffle(self, x):
        assert sorted(x) == sorted(self._arrangement)
        x[:] = self._arrangement


class TestPaperExampleReconstruction:
    """16-edge, 10-leaf instance reconstructed from its published description.

    The adjacency is pinned down by the stated facts: an 8-edge longest path,
    a single light vertex at path index 6 with path sum 15, partial weights
    22/24/36 at path indices 4/7/1, and four phase-1 heavy labels. That forces
    leaf counts [4, 0, 0, 2, 0, 1, 3] along the spine.
    """

    COUNTS = (4, 0, 0, 2, 0, 1, 3)

    def test_shape(self):
        c = parse_caterpillar(self.COUNTS)
        assert (c.m, c.r) == (16, 10)

    def test_light_vertex(self):
        c = parse_caterpillar(self.COUNTS)
        ol, trace = construct(c)
        d = trace.decomposition
        assert trace.light_order == (d.path[6],)
        p = trace.partition
        assert (p.k1, p.k2) == (4, 12)
        # the light edge carries the top label of L2; the oriented path weight
        # at an even index is k2 + 1 = 13, so the final weight is |13 - 12| = 1
        weights = list(map(abs, oriented_sums(ol)))
        assert weights[d.path[6]] == 1
        assert weights[d.path[6]] <= p.k1 - 1

    def test_scripted_phase1_matches_published_partial_weights(self):
        c = parse_caterpillar(self.COUNTS)
        from antimagic.construction import (
            classify_vertices,
            label_heavy_edges,
            label_light_edges,
            label_path_edges,
            orient_nonpath_edges,
            orient_path,
        )
        from antimagic.graph_core import longest_path_decomposition

        p = compute_label_partition(c.m, c.r)
        d = longest_path_decomposition(c)
        path_labels = label_path_edges(d, p)
        classes = classify_vertices(c, d, path_labels)
        dirs = orient_path(d, classes)
        nonpath_arcs = orient_nonpath_edges(c, d, classes, dirs, path_labels)
        light_labels, light_order = label_light_edges(c, d, p, classes, dirs, path_labels)
        assert list(light_labels.values()) == [12]

        # phase 1 pops from the end: vertices at path indices 1, 4, 7 draw
        # 7 and 9, then 5, then 10
        rng = _ScriptedShuffle([6, 8, 11, 10, 5, 9, 7])
        labels, phase1, order, partial = label_heavy_edges(
            c, d, p, classes, dirs, path_labels, nonpath_arcs, light_labels, rng
        )
        index_of = {v: i for i, v in enumerate(d.path)}
        by_index = {index_of[v]: v for v in order}
        assert partial[by_index[4]] == 22
        assert partial[by_index[7]] == 24
        assert partial[by_index[1]] == 36
        assert order == (by_index[4], by_index[7], by_index[1])
        deferred_labels = [labels[e] for e in labels if e not in phase1]
        assert sorted(deferred_labels) == [6, 8, 11]


class TestConstructProperties:
    @settings(max_examples=150)
    @given(caterpillars(), st.integers(0, 10))
    def test_always_antimagic(self, c, seed):
        ol, trace = construct(c, seed=seed)
        assert sorted(ol.labels) == list(range(1, c.m + 1))
        assert verify_antimagic(ol)
        assert not check_weight_classes(ol, trace).violations
        assert all(ok for _, ok in check_claims(c, ol, trace))

    @given(caterpillars())
    def test_light_iff_codirected(self, c):
        ol, trace = construct(c)
        d = trace.decomposition
        dirs = trace.path_arc_directions
        for i in range(1, d.k):
            v = d.path[i]
            codirected = dirs[i - 1] == dirs[i]
            assert codirected == (trace.classes[v] is VertexClass.LIGHT)

    @given(caterpillars())
    def test_step7_pool(self, c):
        _, trace = construct(c)
        p = trace.partition
        n_heavy_edges = len(trace.decomposition.nonpath_edges) - trace.n_l
        assert (p.k2 - trace.n_l) - (p.k1 + 1) + 1 == n_heavy_edges

    @pytest.mark.parametrize("line", ["1 1 1", "1 3 0 2", "4"])
    def test_unlabeled_edge_is_an_invariant_violation(self, monkeypatch, line):
        label_heavy_edges = construction.label_heavy_edges

        def drops_a_label(*args):
            labels, *rest = label_heavy_edges(*args)
            labels.popitem()
            return labels, *rest

        monkeypatch.setattr(construction, "label_heavy_edges", drops_a_label)
        with pytest.raises(InvariantViolation, match="^an off-path edge was never labeled$"):
            construct(parse_caterpillar(parse_leaf_counts(line)))
