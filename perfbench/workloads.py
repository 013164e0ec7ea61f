"""The benchmark's workloads: the inputs each builds, the work it times, the checks it applies.

Every workload runs in passes of fixed work. A pass returns `PassStats`:
seconds spent inside the package, the caterpillars and edges it processed,
one wall time per caterpillar, and the gate's verdict on every output. The
gate's own checks run outside the timed regions.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from typing import Any

from antimagic import cli, generators, oracle, verification
from antimagic.graph_core import format_leaf_counts

# stress's --max-m: the size the acceptance suite and `stress` users run at.
STRESS_MAX_M = 1000

# Every measured time is CPU time of this (single-threaded) process: on a
# shared virtual machine it leaves out the time the hypervisor gives to other
# guests (steal), which wall time counts and which varies by tens of percent
# from minute to minute.
clock = time.process_time


@dataclass
class PassStats:
    seconds: float = 0.0  # inside the package, for the whole pass
    instances: int = 0
    edges: int = 0  # edges pushed through construct -> verify -> certify
    edge_seconds: float = 0.0  # the time those edges took
    instance_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)
    violations: int = 0  # violation strings reported by the package's checkers
    mismatches: int = 0  # oracle and verifier disagreeing, or the oracle rejecting a construction
    max_m: int = 0
    counts: Counter = field(default_factory=Counter)  # workload-specific counters
    output: Any = field(default_factory=hashlib.sha256)  # sha256 of what the package printed

    def check(self, failures: list[str]) -> None:
        """Gate one operation: it fails when any check failed."""
        self.attempted += 1
        if failures:
            self.failed += 1
            self.reasons.update(failures)


def run_cli(argv: list[str], stdin: str = "") -> tuple[int, str, str]:
    """Run the antimagic command line in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def certify(c, ol, trace) -> list[str]:
    """The per-instance certification `antimagic stress` applies."""
    report = verification.check_weight_classes(ol, trace)
    failures = list(report.violations)
    if not report.antimagic:
        failures.append("duplicate_sum")
    failures += [name for name, held in verification.check_claims(c, ol, trace) if not held]
    return failures


def verify_failures(code: int, report_text: str) -> tuple[list[str], int]:
    """Failures in the result of `antimagic verify`, and how many violations it named."""
    failures = [] if code == 0 else [f"verify_exit_{code}"]
    try:
        report = json.loads(report_text)
    except json.JSONDecodeError:
        return failures + ["verify_output_not_json"], 0
    violations = list(report.get("violations", ["verify_output_without_violations"]))
    if report.get("antimagic") is not True:
        failures.append("verify_not_antimagic")
    return failures + violations, len(violations)


def stress_failures(code: int, stdout: str, count: int) -> tuple[list[str], dict]:
    """Failures in the output of `antimagic stress --count count` (one per failed
    instance), and its summary line."""
    lines = stdout.splitlines()
    try:
        summary = json.loads(lines[-1])
        bad = [json.loads(line) for line in lines[:-1]]
    except (IndexError, json.JSONDecodeError):
        return [f"stress_output_unreadable_exit_{code}"], {}
    failures = [",".join(b.get("violations", ["unnamed"])) for b in bad]
    if summary.get("instances") != count:
        failures.append("stress_instance_count")
    if summary.get("violations") != 0 and not failures:
        failures.append("stress_summary_violations")
    if code != 0 and not failures:
        failures.append(f"stress_exit_{code}")
    return failures, summary


def _exception(exc: BaseException) -> list[str]:
    print(f"benchmark: {type(exc).__name__}: {exc}", file=sys.stderr)
    return [f"exception_{type(exc).__name__}"]


class Large:
    """Two caterpillars at m edges through construct -> verify -> certify, via the CLI."""

    name = "large"

    def __init__(self, m: int = 100_000) -> None:
        self.m = m

    def generate(self, seed: int) -> list[str]:
        rng = random.Random(f"large:{seed}")
        lines = []
        # spine m/3 with multinomial leaves (light vertices occur); spine m/1000 (bushy, none)
        for spine in (self.m // 3, max(1, self.m // 1000)):
            cfg = generators.GeneratorConfig(spine_range=(spine, spine), leaf_budget=self.m - (spine - 1))
            lines.append(format_leaf_counts(generators.random_caterpillar(cfg, rng=rng)))
        return lines

    def run_pass(self, lines: list[str], seed: int, index: int) -> PassStats:
        stats = PassStats()
        built = []
        construct = cli.construct

        def keep(c, seed=0):
            result = construct(c, seed=seed)
            built.append((c, *result))
            return result

        cli.construct = keep
        try:
            for line in lines:
                built.clear()
                try:
                    start = clock()
                    code, doc, _ = run_cli(["construct", "-", "--format", "json", "--seed", str(seed)], line)
                    vcode, report, _ = run_cli(["verify", "-"], doc)
                    (c, ol, trace), = built
                    certified = certify(c, ol, trace)
                    elapsed = clock() - start
                except Exception as exc:  # the gate counts it; the run goes on
                    stats.check(_exception(exc))
                    continue
                failures, named = verify_failures(vcode, report)
                if code != 0:
                    failures.append(f"construct_exit_{code}")
                stats.violations += named + len(certified)
                stats.check(failures + certified)
                stats.seconds += elapsed
                stats.edge_seconds += elapsed
                stats.instances += 1
                stats.edges += c.m
                stats.max_m = max(stats.max_m, c.m)
                stats.instance_ms.append(elapsed * 1e3)
                stats.counts["json_bytes"] += len(doc.encode())
                stats.output.update((doc + report).encode())
        finally:
            cli.construct = construct
        return stats


class StressSmall:
    """`antimagic stress --max-m 1000 --jobs 1` in chunks of `count` instances."""

    name = "stress_small"

    def __init__(self, count: int = 1000) -> None:
        self.count = count

    def generate(self, seed: int) -> None:
        """`stress` generates its own instances from its --seed."""
        return None

    def run_pass(self, _inputs: None, seed: int, index: int) -> PassStats:
        stats = PassStats()
        stress_one = cli._stress_one
        edges = []

        def timed(task):
            start = clock()
            record = stress_one(task)
            stats.instance_ms.append((clock() - start) * 1e3)
            edges.append(record.m)
            return record

        argv = ["stress", "--count", str(self.count), "--seed", str(seed * 1_000_003 + index),
                "--max-m", str(STRESS_MAX_M), "--jobs", "1"]
        cli._stress_one = timed
        out, summary = "", {}
        start = clock()
        try:
            code, out, _ = run_cli(argv)
            stats.seconds = clock() - start
            failures, summary = stress_failures(code, out, self.count)
        except Exception as exc:  # the gate counts it; the run goes on
            stats.seconds = clock() - start
            failures = _exception(exc)
        finally:
            cli._stress_one = stress_one
        if not summary:  # no verdict per instance: every one of them failed
            failures *= self.count
        for i in range(self.count):
            stats.check(failures[i:i + 1])
        stats.violations = summary.get("violations", 0)
        stats.instances = len(edges)
        stats.edges = sum(edges)
        stats.edge_seconds = stats.seconds
        stats.max_m = summary.get("max_m", 0)
        stats.output.update(out.encode())
        return stats


class OracleXval:
    """Every caterpillar of order <= max_n cross-validated against the brute-force oracle."""

    name = "oracle_xval"

    def __init__(self, max_n: int = 9, seeds: int = 20, pairs: int = 1000, search_m: int = 6) -> None:
        self.max_n = max_n
        self.seeds = seeds  # confirm_construction calls per caterpillar, one per construction seed
        self.pairs = pairs  # random (orientation, labeling) pairs per caterpillar
        self.search_m = search_m  # exhaustive_search(count_all=True) runs on every instance of this size

    def generate(self, seed: int) -> list:
        return list(generators.enumerate_caterpillars(self.max_n))

    def run_pass(self, cats: list, seed: int, index: int) -> PassStats:
        stats = PassStats()
        lines = []
        for j, c in enumerate(cats):
            base = ((seed * 1_000_003 + index) * 1000 + j) * self.seeds
            search = None
            try:
                t0 = clock()
                confirmed = [oracle.confirm_construction(c, seed=base + s) for s in range(self.seeds)]
                t1 = clock()
                mismatches = oracle.agreement_on_random_pairs(c.tree, self.pairs, seed=base)
                t2 = clock()
                if c.m == self.search_m:
                    search = oracle.exhaustive_search(c.tree, count_all=True)
                t3 = clock()
            except Exception as exc:  # the gate counts it; the run goes on
                stats.check(_exception(exc))
                continue
            failures = []
            if not all(confirmed):
                failures.append("oracle_rejects_construction")
            if mismatches:
                failures.append("oracle_verifier_mismatch")
            stats.mismatches += mismatches + confirmed.count(False)
            if search is not None:
                stats.counts["search_pairs"] += search.pairs_enumerated
                stats.counts["search_s"] += t3 - t2
                failures += self._search_failures(search)
            stats.check(failures)
            stats.seconds += t3 - t0
            stats.instances += 1
            stats.edges += self.seeds * c.m
            stats.edge_seconds += t1 - t0
            stats.max_m = max(stats.max_m, c.m)
            stats.instance_ms.append((t3 - t0) * 1e3)
            stats.counts["xval_pairs"] += self.pairs
            stats.counts["xval_s"] += t2 - t1
            lines.append(json.dumps({
                "leaf_counts": format_leaf_counts(c),
                "confirmed": confirmed,
                "mismatches": mismatches,
                "search": None if search is None else [
                    search.orientations_with_solution, search.total_antimagic_pairs, search.pairs_enumerated
                ],
            }))
        stats.output.update("\n".join(lines).encode())
        return stats

    @staticmethod
    def _search_failures(search) -> list[str]:
        failures = []
        if search.pairs_enumerated != (1 << search.m) * math.factorial(search.m):
            failures.append("search_incomplete")
        if search.witness is None or not verification.verify_antimagic(search.witness):
            failures.append("search_witness_rejected")
        if not 1 <= search.orientations_with_solution <= search.total_antimagic_pairs:
            failures.append("search_counts_inconsistent")
        return failures


WORKLOADS = {w.name: w for w in (Large, StressSmall, OracleXval)}

