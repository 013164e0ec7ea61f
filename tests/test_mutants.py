"""One-line mutants of the seven construction steps must be caught by the checks.

Each mutant edits one line of one step function's source and is patched onto
`antimagic.construction`, so construct() runs it in place of the real step.
Every caterpillar of order up to 12 is then constructed with seed 0 and judged
as `stress` and the certifier judge it: an exception from construct(), or the
class check, the antimagic test and the three claims. For each mutant the test
pins the first instance that catches it (a one-line reproducer) and how many
instances each check catches, so a change to the checks that lets a mutant
through, or sees less of it, fails here.
"""

import inspect
import textwrap
from collections import Counter

import pytest

from antimagic import cli, construction
from antimagic.generators import enumerate_caterpillars
from antimagic.graph_core import InputError, InvariantViolation, format_leaf_counts

CORPUS = list(enumerate_caterpillars(12))

# name: (step function, line as written, line as mutated)
MUTANTS = {
    "step1_split_moved": (
        "compute_label_partition",
        "return LabelPartition(m=m, k1=k1, k2=k2)",
        "return LabelPartition(m=m, k1=k1 + 1, k2=k2 - 1)",
    ),
    "step2_pairs_swapped": (
        "label_path_edges",
        "labels[e] = p.k1 - i // 2 if i % 2 == 0 else p.m - (i - 1) // 2",
        "labels[e] = p.m - i // 2 if i % 2 == 0 else p.k1 - (i - 1) // 2",
    ),
    "step3_light_at_m": (
        "classify_vertices",
        "labels[i] + labels[i + 1] < m",
        "labels[i] + labels[i + 1] <= m",
    ),
    "step4_never_flips": (
        "orient_path",
        "forward = not forward",
        "forward = forward",
    ),
    "step5_light_reversed": (
        "orient_nonpath_edges",
        "outward = s > 0",
        "outward = s < 0",
    ),
    "step6_reversed": (
        "label_light_edges",
        "for t, (_, i) in enumerate(lights, start=1):",
        "for t, (_, i) in enumerate(reversed(lights), start=1):",
    ),
    "step7_phase2_reversed": (
        "label_heavy_edges",
        "zip(deferred, sorted(shuffled))",
        "zip(deferred, sorted(shuffled, reverse=True))",
    ),
}


def mutated(name: str, old: str, new: str):
    """The step function `name` with its one line `old` replaced by `new`."""
    source = textwrap.dedent(inspect.getsource(getattr(construction, name)))
    assert source.count(old) == 1, f"{name} no longer holds {old!r}"
    namespace = dict(vars(construction))  # the module's names, without writing into the module
    exec(compile(source.replace(old, new), construction.__file__, "exec"), namespace)
    return namespace[name]


def judge(c) -> list[str]:
    """What catches one instance: the exception construct() raised, or the name of each failed check."""
    try:
        ol, trace = construction.construct(c, seed=0)
    except (InputError, InvariantViolation) as exc:
        return [type(exc).__name__]
    return cli._violations(c, ol, trace)


def test_unmutated_construction_passes():
    assert [format_leaf_counts(c) for c in CORPUS if judge(c)] == []


@pytest.mark.parametrize(
    "mutant, first, first_violations, caught",
    [
        ("step1_split_moved", "2", ["InvariantViolation"], {"InvariantViolation": 558}),
        (
            "step2_pairs_swapped",
            "2",
            ["u0_weight", "uk_weight"],
            {
                "u0_weight": 558,
                "degree_one_range": 523,
                "class_ranges_overlap": 371,
                "all_weights_not_distinct": 310,
                "uk_weight": 287,
                "duplicate_sum": 171,
                "claim2": 94,
                "heavy_with_heavy_edge_range": 85,
                "light_range": 72,
                "light_not_distinct": 6,
                "claim3": 1,
            },
        ),
        (
            "step3_light_at_m",
            "1 1",
            ["light_range", "class_ranges_overlap", "all_weights_not_distinct", "duplicate_sum", "claim3"],
            {
                "light_range": 8,
                "class_ranges_overlap": 8,
                "all_weights_not_distinct": 8,
                "claim3": 8,
                "duplicate_sum": 6,
            },
        ),
        (
            "step4_never_flips",
            "2",
            ["heavy_no_heavy_edge_range", "class_ranges_overlap", "all_weights_not_distinct", "duplicate_sum"],
            {
                "heavy_no_heavy_edge_range": 501,
                "all_weights_not_distinct": 488,
                "class_ranges_overlap": 487,
                "duplicate_sum": 446,
                "heavy_no_heavy_edge_not_decreasing": 377,
                "heavy_no_heavy_edge_not_distinct": 318,
                "heavy_with_heavy_edge_range": 306,
            },
        ),
        (
            "step5_light_reversed",
            "1 0 0 1",
            ["light_range", "class_ranges_overlap", "all_weights_not_distinct"],
            {
                "light_range": 183,
                "class_ranges_overlap": 125,
                "all_weights_not_distinct": 102,
                "duplicate_sum": 47,
                "light_not_distinct": 26,
            },
        ),
        (
            "step6_reversed",
            "1 0 0 0 1 1",
            ["light_not_distinct", "all_weights_not_distinct"],
            {"light_not_distinct": 26, "all_weights_not_distinct": 26},
        ),
        (
            "step7_phase2_reversed",
            "2 2",
            ["heavy_with_heavy_edge_not_distinct", "all_weights_not_distinct"],
            {"heavy_with_heavy_edge_not_distinct": 95, "all_weights_not_distinct": 95, "duplicate_sum": 31},
        ),
    ],
    ids=list(MUTANTS),
)
def test_mutant_is_caught(monkeypatch, mutant, first, first_violations, caught):
    name, old, new = MUTANTS[mutant]
    monkeypatch.setattr(construction, name, mutated(name, old, new))
    verdicts = [(format_leaf_counts(c), judge(c)) for c in CORPUS]
    caught_at = [(line, violations) for line, violations in verdicts if violations]
    assert caught_at, f"{mutant} passes every check on every instance"
    assert caught_at[0] == (first, first_violations)
    # the instances each check catches; an instance can be caught by several
    assert Counter(v for _, violations in caught_at for v in violations) == caught
