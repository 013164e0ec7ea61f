"""Golden digests of construct()'s output and trace, and of the CLI's text formats.

The first digest pins the arcs, labels and every ordering the construction
decides, over every caterpillar of order at most 12 (three seeds each) and
300 seeded random instances with at most 1,000 edges. The others pin the
bytes `construct --format tsv`, `--format dot` and `--format json` print for
every caterpillar of order at most 10 at seed 4, `gen --random` prints
for the argument lists in GEN_RANDOM_SHA256, and `oracle -` prints for
every caterpillar of order at most 9. A refactor must leave them
unchanged; a deliberate change of output must say why and record the new
digest.
"""

import contextlib
import hashlib
import io
import json

import pytest

from antimagic import construction
from antimagic.cli import main
from antimagic.construction import construct
from antimagic.generators import enumerate_caterpillars
from antimagic.graph_core import VertexClass, format_leaf_counts

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
# `oracle -` stdout over the 78 lines of `gen --max-n 9`: lines with m <= 6 are
# counted in full, and lines with m = 7 or 8 stop each orientation at its first
# antimagic labeling, so `pairs_enumerated` pins the early exit too.
ORACLE_SHA256 = "ad846bf2a3620171558e40d35bc3e7f5b27d4888b4d23fb417246c2025c1703f"


def decided_orders(ol, trace) -> tuple:
    """The three orders construct() decides, read off its labeling.

    - Step 4's direction of path edge i: whether arc i runs u_i -> u_{i+1}.
    - Step 6's light order: the t-th light vertex's edge gets label k2 - t + 1,
      so the order is by descending light-edge label.
    - Step 7's phase-2 order: the t-th heavy vertex's deferred edge, the one to
      its last off-path leaf, gets the t-th smallest label left, so the order
      is by ascending deferred-edge label.
    """
    d = trace.decomposition
    label_of = {}
    for (tail, head), lbl in zip(ol.arcs, ol.labels):
        label_of[tail, head] = label_of[head, tail] = lbl
    directions = tuple(arc == step for arc, step in zip(ol.arcs, zip(d.path, d.path[1:])))
    light, heavy = [], []
    for u, leaves in zip(d.path, d.offpath_leaves):
        if leaves and trace.classes[u] is VertexClass.LIGHT:
            light.append((-label_of[u, leaves[0]], u))
        elif leaves and trace.classes[u] is VertexClass.HEAVY:
            heavy.append((label_of[u, leaves[-1]], u))
    return directions, tuple(u for _, u in sorted(light)), tuple(u for _, u in sorted(heavy))


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
        *decided_orders(ol, trace),
    )


def golden_cases() -> list:
    cases = [(c, seed) for c in enumerate_caterpillars(12) for seed in range(3)]
    return cases + [(random_instance(31, i, 1000), i) for i in range(300)]


def test_construct_output_digest():
    digest = hashlib.sha256()
    for c, seed in golden_cases():
        assert c.m <= 1000
        digest.update(repr(construction_record(c, seed)).encode())
    assert digest.hexdigest() == GOLDEN_SHA256


def test_decided_orders_are_the_orders_the_steps_return(monkeypatch):
    returned = []

    def recording(name, pick):
        step = getattr(construction, name)

        def wrapper(*args):
            result = step(*args)
            returned.append(pick(result))
            return result

        monkeypatch.setattr(construction, name, wrapper)

    recording("orient_path", lambda dirs: dirs)
    recording("label_light_edges", lambda result: result[1])
    recording("label_heavy_edges", lambda result: result[2])
    for c, seed in golden_cases():
        returned.clear()
        ol, trace = construct(c, seed=seed)
        assert decided_orders(ol, trace) == tuple(returned)


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


def test_oracle_digest(monkeypatch):
    lines = "".join(format_leaf_counts(c) + "\n" for c in enumerate_caterpillars(9))
    monkeypatch.setattr("sys.stdin", io.StringIO(lines))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["oracle", "-"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == ORACLE_SHA256
