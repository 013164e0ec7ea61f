"""Golden digests of construct()'s output and trace, and of the CLI's text formats.

The first digest pins the arcs, labels and every ordering the construction
decides, over every caterpillar of order at most 12 (three seeds each) and
300 seeded random instances with at most 1,000 edges. The others pin the
bytes `construct --format tsv`, `--format dot` and `--format json` print for
every caterpillar of order at most 10 at seed 4, and `gen --random` prints
for the argument lists in GEN_RANDOM_SHA256. A refactor must leave them
unchanged; a deliberate change of output must say why and record the new
digest.
"""

import contextlib
import hashlib
import io
import json

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
    "json": "8f7f47907eebcff0c2a62fd1f6f49887a557ac00762b4a50b0aabfcdc9bef648",
}
# The same JSON lines each re-encoded by `json.dumps` with its default separators:
# the documents as they were written before construct dropped the spaces.
SPACED_JSON_SHA256 = "d2adeaace9ee04c4ee120cb166fd2eb6b2e3069d18bd28890feab1da04b1339b"
# `gen --random` stdout, keyed by the arguments after --random. One rng serves
# every line, so each digest pins the draws and the rng state between lines:
# the defaults; spine 1, where every leaf draw is one bit and half are drawn
# again; spines 1 to 3 mixed; a spine of 2^6 and of 2^6 + 1; `large`'s shape.
GEN_RANDOM_SHA256 = {
    "--count 50 --seed 1": "346ce68213741b56560b02599ffec8023c0df3f17a387dc04fa7d738f3e700f5",
    "--count 50 --seed 1 --spine-min 1 --spine-max 1 --leaf-budget 40": "0c1b3236f9e91fbfcd8209d6636479611a6bd5180b81d68198458679dbf6e9c8",
    "--count 50 --seed 1 --spine-min 1 --spine-max 3 --leaf-budget 40": "01c4dfb50563ba372214b69e5448334a3287e36fba1afa454ce6bcaa6cea918a",
    "--count 50 --seed 1 --spine-min 64 --spine-max 64 --leaf-budget 1000": "8ca909214527dc56a90c672c5958a66e779941e752572690a69c88062cc2bcf2",
    "--count 50 --seed 1 --spine-min 65 --spine-max 65 --leaf-budget 1000": "b2b2e336ee679dc058afeb95cc6304cd73abd81a155bcf7e6d77084d04ded217",
    "--count 1 --seed 1 --spine-min 33333 --spine-max 33333 --leaf-budget 66668": "9d7267907a8889b54fc6338e74e4d91771dc3fac746966e894a5c53321d10282",
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


def construct_output(monkeypatch, fmt: str) -> str:
    lines = "".join(format_leaf_counts(c) + "\n" for c in enumerate_caterpillars(10))
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["construct", "-", "--format", fmt, "--seed", "4"]) == 0
    return out.getvalue()


@pytest.mark.parametrize("fmt", sorted(FORMAT_SHA256))
def test_text_format_digest(monkeypatch, fmt):
    out = construct_output(monkeypatch, fmt)
    assert hashlib.sha256(out.encode()).hexdigest() == FORMAT_SHA256[fmt]


def test_json_differs_from_the_spaced_documents_only_in_whitespace(monkeypatch):
    lines = construct_output(monkeypatch, "json").splitlines()
    spaced = "".join(json.dumps(json.loads(line)) + "\n" for line in lines)
    assert hashlib.sha256(spaced.encode()).hexdigest() == SPACED_JSON_SHA256


@pytest.mark.parametrize("args", list(GEN_RANDOM_SHA256))
def test_gen_random_digest(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["gen", "--random", *args.split()]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == GEN_RANDOM_SHA256[args]
