"""Antimagic orientations of caterpillar trees: construction, verification, brute force."""

from .construction import ConstructionTrace, compute_label_partition, construct
from .graph_core import (
    Caterpillar,
    InputError,
    InvariantViolation,
    OrientedLabeling,
    ResourceLimitError,
    Tree,
    VertexClass,
    parse_caterpillar,
)
from .verification import check_claims, check_weight_classes, oriented_sums, verify_antimagic

__all__ = [
    "Caterpillar",
    "ConstructionTrace",
    "InputError",
    "InvariantViolation",
    "OrientedLabeling",
    "ResourceLimitError",
    "Tree",
    "VertexClass",
    "check_claims",
    "check_weight_classes",
    "compute_label_partition",
    "construct",
    "oriented_sums",
    "parse_caterpillar",
    "verify_antimagic",
]
