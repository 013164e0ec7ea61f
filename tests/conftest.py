import random

import networkx as nx
from hypothesis import strategies as st

from antimagic.generators import GeneratorConfig, random_caterpillar
from antimagic.graph_core import Caterpillar, parse_caterpillar


@st.composite
def caterpillars(draw, max_spine: int = 8, max_leaves_per_vertex: int = 4) -> Caterpillar:
    s = draw(st.integers(1, max_spine))
    counts = [draw(st.integers(0, max_leaves_per_vertex)) for _ in range(s)]
    if s == 1:
        counts[0] = max(2, counts[0])
    else:
        counts[0] = max(1, counts[0])
        counts[-1] = max(1, counts[-1])
    return parse_caterpillar(counts)


def random_instance(master_seed: int, index: int, max_m: int) -> Caterpillar:
    """Instance `index` of a reproducible stream with m <= max_m."""
    rng = random.Random(hash((master_seed, index)))
    target_m = rng.randint(2, max_m - 10)  # the end-count bump adds at most two edges
    s = rng.randint(1, max(1, target_m // 2))
    budget = max(2, target_m - (s - 1))
    cfg = GeneratorConfig(spine_range=(s, s), leaf_budget=budget)
    return random_caterpillar(cfg, rng=rng)


def nx_is_caterpillar(g: nx.Graph) -> bool:
    """Caterpillar test independent of the package: order >= 3, and the non-leaves induce a path."""
    if g.number_of_nodes() < 3:
        return False
    inner = g.subgraph(v for v, d in g.degree() if d > 1)
    if inner.number_of_nodes() == 0:
        return False
    return nx.is_connected(inner) and all(d <= 2 for _, d in inner.degree())
