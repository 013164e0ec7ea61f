"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. It takes 50–55 s on two
cores; the bulk is criterion 2's oracle cross-validation sampling (about
40 s). Criteria 1 and 2 run on a spawn process pool.
"""

import os
import random
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import pytest

from antimagic.construction import compute_label_partition, construct
from antimagic.generators import enumerate_caterpillars
from antimagic.graph_core import OrientedLabeling
from antimagic.oracle import (
    agreement_on_all_pairs,
    agreement_on_random_pairs,
    confirm_construction,
    sums_distinct,
)
from antimagic.verification import check_claims, check_weight_classes, verify_antimagic

from conftest import random_instance

RANDOM_INSTANCES = 10_000
RANDOM_MAX_M = 1_000
SAMPLED_PAIRS_PER_INSTANCE = 100_000


def suite_result(i, c):
    """Construct instance i with seed i and summarize every check on it."""
    ol, trace = construct(c, seed=i)
    return {
        "m": c.m,
        "antimagic": verify_antimagic(ol),
        "violations": check_weight_classes(ol, trace).violations,
        "claims": dict(check_claims(c, ol, trace)),
    }


@pytest.fixture(scope="module")
def suite_results():
    """Construct + all checks for every criterion-1 instance, summarized, in instance order."""
    instances = list(enumerate_caterpillars(12))
    assert len(instances) == 558
    instances += [
        random_instance(20240, i, RANDOM_MAX_M) for i in range(RANDOM_INSTANCES)
    ]
    assert all(c.m <= RANDOM_MAX_M for c in instances)
    workers = min(os.cpu_count() or 1, len(instances))
    with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn")) as pool:
        return list(pool.map(suite_result, range(len(instances)), instances, chunksize=250))


def test_criterion_1_theorem_scale_property_suite(suite_results):
    assert len(suite_results) == 558 + RANDOM_INSTANCES
    failures = [r for r in suite_results if not r["antimagic"]]
    assert failures == []
    print("\nACCEPTANCE C1 (construct verifies on 558 enumerated + 10000 random): PASS")


def oracle_checks(i, c):
    """Instance i's confirmation, all-pairs mismatches (None above m = 6) and random-pair mismatches."""
    confirmed = confirm_construction(c, seed=0)
    all_pairs = agreement_on_all_pairs(c.tree)[1] if c.m <= 6 else None
    return confirmed, all_pairs, agreement_on_random_pairs(c.tree, SAMPLED_PAIRS_PER_INSTANCE, seed=i)


def test_criterion_2_oracle_cross_validation():
    small = list(enumerate_caterpillars(9))  # every caterpillar with m <= 8
    workers = min(os.cpu_count() or 1, len(small))
    with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn")) as pool:
        results = list(pool.map(oracle_checks, range(len(small)), small))
    for c, (confirmed, all_pairs, random_mismatches) in zip(small, results):  # in instance order
        assert confirmed, c.leaf_counts
        assert all_pairs in (None, 0), c.leaf_counts
        assert random_mismatches == 0, c.leaf_counts
    print(f"\nACCEPTANCE C2 (oracle cross-validation, {len(small)} instances): PASS")


def test_criterion_3_claim_suite(suite_results):
    bad = [r for r in suite_results if not all(r["claims"].values())]
    assert bad == []
    print("\nACCEPTANCE C3 (claims 1-3 on every instance): PASS")


def test_criterion_4_weight_class_suite(suite_results):
    bad = [r for r in suite_results if r["violations"]]
    assert bad == []
    print("\nACCEPTANCE C4 (weight-class intervals on every instance): PASS")


def test_criterion_5_paper_scalar_reproduction():
    p = compute_label_partition(16, 10)
    assert (p.k1, p.k2) == (4, 12)
    assert list(p.L1) == list(range(1, 5))
    assert list(p.L2) == list(range(5, 13))
    assert list(p.L3) == list(range(13, 17))
    print("\nACCEPTANCE C5 (worked-example scalars k1=4, k2=12): PASS")


def test_criterion_6_seed_robustness():
    instances = [random_instance(606, i, 200) for i in range(100)]
    for c in instances:
        assert c.m <= 200
        for seed in range(100):
            ol, trace = construct(c, seed=seed)
            assert verify_antimagic(ol), (c.leaf_counts, seed)
            assert not check_weight_classes(ol, trace).violations
    print("\nACCEPTANCE C6 (100 seeds x 100 instances): PASS")


def test_criterion_7_mutation_sensitivity():
    instances = list(enumerate_caterpillars(12))
    rng = random.Random(7)
    checked_small = 0
    for trial in range(1000):
        c = instances[trial % len(instances)]
        ol, _ = construct(c, seed=trial)
        labels = list(ol.labels)
        i, j = rng.sample(range(c.m), 2)
        labels[i], labels[j] = labels[j], labels[i]
        mutated = OrientedLabeling(n=ol.n, arcs=ol.arcs, labels=tuple(labels))

        # independent recount, shared with nothing in the verifier
        sums = [0] * ol.n
        for (tail, head), lbl in zip(mutated.arcs, mutated.labels):
            sums[head] += lbl
            sums[tail] -= lbl
        truly_antimagic = len(set(sums)) == ol.n

        assert verify_antimagic(mutated) == truly_antimagic

        if c.m <= 8:
            checked_small += 1
            orientation = 0
            labeling = [0] * c.m
            for (tail, head), lbl in zip(mutated.arcs, mutated.labels):
                idx = c.tree.edges.index((min(tail, head), max(tail, head)))
                labeling[idx] = lbl
                if tail > head:
                    orientation |= 1 << idx
            oracle_verdict = sums_distinct(c.tree.n, c.tree.edges, orientation, tuple(labeling))
            assert oracle_verdict == verify_antimagic(mutated)
    assert checked_small > 0
    print(f"\nACCEPTANCE C7 (1000 mutations, {checked_small} oracle-checked): PASS")
