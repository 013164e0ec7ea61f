"""Golden digests of construct()'s output and trace, and of the CLI's text formats.

The first digest pins the arcs, labels and every ordering the construction
decides, over every caterpillar of order at most 12 (three seeds each) and
300 seeded random instances with at most 1,000 edges. The others pin the
bytes `construct --format tsv` and `--format dot` print for every
caterpillar of order at most 10 at seed 4. A refactor must leave them
unchanged; a deliberate change of output must say why and record the new
digest.
"""

import contextlib
import hashlib
import io

import pytest

from antimagic.cli import main
from antimagic.construction import construct
from antimagic.generators import enumerate_caterpillars
from antimagic.graph_core import format_leaf_counts

from conftest import random_instance

GOLDEN_SHA256 = "41b49bc1861b5f86e7d4b0e365bde3ded35c0d99cd4ea012f771ead3db14f2a7"
FORMAT_SHA256 = {
    "tsv": "694ae62f34088868ba59a4c95eede32b2cdb5eb0fe6525ba739f9511ba7ae469",
    "dot": "fdf241687dea61f43acd9a976298db0006fd78731162dd42a9005409f287b1b5",
}


def construction_record(c, seed: int) -> tuple:
    ol, trace = construct(c, seed=seed)
    d = trace.decomposition
    return (
        c.leaf_counts,
        seed,
        ol.arcs,
        ol.labels,
        tuple(sorted((v, cls.value) for v, cls in enumerate(trace.classes))),
        d.path,
        d.path_edges,
        tuple(sorted(d.nonpath_edges)),
        d.trimmed_tail,
        trace.path_arc_directions,
        trace.light_order,
        trace.heavy_order,
    )


def test_construct_output_digest():
    cases = [(c, seed) for c in enumerate_caterpillars(12) for seed in range(3)]
    cases += [(random_instance(31, i, 1000), i) for i in range(300)]
    digest = hashlib.sha256()
    for c, seed in cases:
        assert c.m <= 1000
        digest.update(repr(construction_record(c, seed)).encode())
    assert digest.hexdigest() == GOLDEN_SHA256


@pytest.mark.parametrize("fmt", sorted(FORMAT_SHA256))
def test_text_format_digest(monkeypatch, fmt):
    lines = "".join(format_leaf_counts(c) + "\n" for c in enumerate_caterpillars(10))
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["construct", "-", "--format", fmt, "--seed", "4"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == FORMAT_SHA256[fmt]
