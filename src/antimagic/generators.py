"""Instance sources: exhaustive enumeration and seeded random caterpillars."""

from __future__ import annotations

import random
from typing import Iterator, NamedTuple

from .graph_core import Caterpillar, InputError, parse_caterpillar


class GeneratorConfig(NamedTuple):
    spine_range: tuple[int, int] = (1, 10)
    leaf_budget: int = 10


def _compositions(total: int, parts: int, lo: int) -> Iterator[tuple[int, ...]]:
    """All sequences of `parts` nonnegative ints summing to total, the two ends at least lo."""

    def rec(prefix: tuple[int, ...], remaining: int) -> Iterator[tuple[int, ...]]:
        pos = len(prefix)
        if pos == parts - 1:
            if remaining >= lo:
                yield prefix + (remaining,)
            return
        for c in range(lo if pos == 0 else 0, remaining - lo + 1):
            yield from rec(prefix + (c,), remaining - c)

    yield from rec((), total)


def enumerate_caterpillars(max_n: int) -> Iterator[Caterpillar]:
    """Every canonical caterpillar of order 3..max_n, exactly once.

    Emission order: by order n, then spine length, then lexicographic on the
    leaf-count sequence. A sequence and its reversal describe the same tree,
    so only the lexicographically smaller of the two is emitted.
    """
    if max_n < 3:
        raise InputError("max_n must be at least 3")
    for n in range(3, max_n + 1):
        for s in range(1, n):
            r = n - s
            if r < 2:
                continue  # a lone spine vertex needs 2 leaves, two ends need 1 each
            for counts in _compositions(r, s, 2 if s == 1 else 1):
                if counts <= counts[::-1]:
                    yield parse_caterpillar(counts)


def random_caterpillar(cfg: GeneratorConfig, rng: random.Random) -> Caterpillar:
    """Random caterpillar drawn from rng: uniform spine length, multinomial leaves.

    End counts are bumped afterwards to keep the sequence canonical, so the
    actual leaf count may exceed the budget by up to two.

    rng must be a `random.Random` whose draws come from `getrandbits`. Each
    leaf's spine vertex is drawn as `rng.randrange(s)` would draw it: words of
    s.bit_length() bits, drawn again until one is below s. So the instances,
    and the state rng is left in, equal those of a `randrange` per leaf.
    """
    lo, hi = cfg.spine_range
    if lo < 1 or hi < lo:
        raise InputError(f"bad spine range {cfg.spine_range}")
    if cfg.leaf_budget < 2:
        raise InputError("leaf budget must be at least 2")
    s = rng.randint(lo, hi)
    counts = [0] * s
    k = s.bit_length()
    getrandbits = rng.getrandbits
    for _ in range(cfg.leaf_budget):
        r = getrandbits(k)
        while r >= s:
            r = getrandbits(k)
        counts[r] += 1
    if s == 1:
        counts[0] = max(counts[0], 2)
    else:
        counts[0] = max(counts[0], 1)
        counts[-1] = max(counts[-1], 1)
    return parse_caterpillar(counts)

