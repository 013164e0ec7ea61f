"""The package's value records: equality, hash, repr, immutability and pickling."""

import pickle

import pytest

from antimagic.cli import RunRecord
from antimagic.construction import compute_label_partition, construct
from antimagic.generators import GeneratorConfig
from antimagic.graph_core import (
    LabelPartition,
    OrientedLabeling,
    Tree,
    longest_path_decomposition,
    parse_caterpillar,
)
from antimagic.oracle import OracleResult, exhaustive_search
from antimagic.verification import VerificationReport, check_weight_classes


def build(name):
    """The named record, built from its inputs: two calls give equal records that are not the same object."""
    c = parse_caterpillar([1, 1, 1])
    if name == "Tree":
        return Tree(n=3, edges=((1, 0), (2, 1)))
    if name == "Caterpillar":
        return c
    if name == "PathDecomposition":
        return longest_path_decomposition(c)
    if name == "LabelPartition":
        return compute_label_partition(c.m, c.r)
    if name == "OrientedLabeling":
        return OrientedLabeling(n=3, arcs=((0, 1), (2, 1)), labels=(2, 1))
    if name == "ConstructionTrace":
        return construct(c)[1]
    if name == "GeneratorConfig":
        return GeneratorConfig(spine_range=(2, 3))
    if name == "OracleResult":
        return exhaustive_search(Tree(n=3, edges=((0, 1), (1, 2))))
    if name == "VerificationReport":
        return check_weight_classes(*construct(c))
    if name == "RunRecord":
        return RunRecord(line="1 1 1", m=5, seed=0, violations=["claim2"])
    raise AssertionError(name)


# name -> (field names in order, hashable); a record whose fields hold a list or dict has no hash
RECORDS = {
    "Tree": (("n", "edges"), True),
    "Caterpillar": (("leaf_counts", "m", "r"), True),
    "PathDecomposition": (("path", "k", "path_edges", "offpath_leaves", "trimmed_tail"), True),
    "LabelPartition": (("m", "k1", "k2"), True),
    "OrientedLabeling": (("n", "arcs", "labels"), True),
    "ConstructionTrace": (
        ("partition", "decomposition", "classes", "path_arc_directions", "light_order", "heavy_order"),
        False,
    ),
    "GeneratorConfig": (("spine_range", "leaf_budget"), True),
    "OracleResult": (("m", "orientations_with_solution", "total_antimagic_pairs", "witness", "pairs_enumerated"), True),
    "VerificationReport": (("class_ranges", "antimagic", "violations"), False),
    "RunRecord": (("line", "m", "seed", "violations", "wall_time"), False),
}


@pytest.mark.parametrize("name", RECORDS)
def test_equal_by_fields(name):
    a, b = build(name), build(name)
    assert a is not b
    assert a == b and not a != b
    assert type(a).__name__ == name
    assert a.__match_args__ == RECORDS[name][0]


@pytest.mark.parametrize("name", RECORDS)
def test_hash_where_fields_allow(name):
    a, b = build(name), build(name)
    if RECORDS[name][1]:
        assert hash(a) == hash(b)
        assert {a, b} == {a}
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("name", RECORDS)
def test_repr_names_each_field(name):
    a = build(name)
    fields = ", ".join(f"{field}={getattr(a, field)!r}" for field in RECORDS[name][0])
    assert repr(a) == f"{name}({fields})"


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned_or_deleted(name):
    a = build(name)
    field = RECORDS[name][0][0]
    before = getattr(a, field)
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert getattr(a, field) is before


@pytest.mark.parametrize("name", RECORDS)
def test_pickle_round_trip(name):
    a = build(name)
    copy = pickle.loads(pickle.dumps(a))
    assert type(copy) is type(a)
    assert copy == a


def test_small_reprs():
    assert repr(Tree(n=3, edges=((1, 0), (2, 1)))) == "Tree(n=3, edges=((0, 1), (1, 2)))"
    assert repr(parse_caterpillar([2])) == "Caterpillar(leaf_counts=(2,), m=2, r=2)"
    assert repr(LabelPartition(m=5, k1=2, k2=3)) == "LabelPartition(m=5, k1=2, k2=3)"
    assert repr(GeneratorConfig()) == "GeneratorConfig(spine_range=(1, 10), leaf_budget=10)"


def test_records_of_different_types_are_unequal():
    class Subclass(LabelPartition):
        pass

    assert LabelPartition(m=5, k1=2, k2=3) != Subclass(m=5, k1=2, k2=3)  # same fields and values, other class
    assert LabelPartition(m=5, k1=2, k2=3) != parse_caterpillar([1, 1, 1])
    assert LabelPartition(m=5, k1=2, k2=3) != (5, 2, 3)
    assert LabelPartition(m=5, k1=2, k2=3) != LabelPartition(m=5, k1=3, k2=2)


def test_defaults():
    assert GeneratorConfig() == GeneratorConfig(spine_range=(1, 10), leaf_budget=10)
    report, other = VerificationReport(class_ranges={}, antimagic=True), VerificationReport({}, True)
    assert report.violations == [] and report.violations is not other.violations  # a fresh list each
    record = RunRecord(line="2", m=2, seed=0)
    assert (record.violations, record.wall_time) == ([], 0.0)


def test_caterpillar_tree_is_cached_and_ignored_by_equality():
    built, fresh = parse_caterpillar([1, 2]), parse_caterpillar([1, 2])
    assert "tree" not in vars(built)
    assert built.tree is built.tree
    assert "tree" in vars(built)
    assert built == fresh and hash(built) == hash(fresh)
    assert repr(built) == repr(fresh)
    assert pickle.loads(pickle.dumps(built)).tree == fresh.tree


def test_with_labels_keeps_the_record_frozen():
    ol = OrientedLabeling(n=3, arcs=((0, 1), (2, 1)), labels=(2, 1))
    other = ol.with_labels((1, 2))
    assert other == OrientedLabeling(n=3, arcs=((0, 1), (2, 1)), labels=(1, 2))
    with pytest.raises(AttributeError):
        other.labels = (2, 1)
