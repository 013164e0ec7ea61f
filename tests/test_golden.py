"""Golden digest of construct()'s output and trace.

The digest pins the arcs, labels and every ordering the construction
decides, over every caterpillar of order at most 12 (three seeds each) and
300 seeded random instances with at most 1,000 edges. A refactor of the
construction must leave it unchanged; a deliberate change of output must
say why and record the new digest.
"""

import hashlib

from antimagic.construction import construct
from antimagic.generators import enumerate_caterpillars

from conftest import random_instance

GOLDEN_SHA256 = "41b49bc1861b5f86e7d4b0e365bde3ded35c0d99cd4ea012f771ead3db14f2a7"


def construction_record(c, seed: int) -> tuple:
    ol, trace = construct(c, seed=seed)
    d = trace.decomposition
    return (
        c.leaf_counts,
        seed,
        ol.arcs,
        ol.labels,
        tuple(sorted((v, cls.value) for v, cls in trace.classes.items())),
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
