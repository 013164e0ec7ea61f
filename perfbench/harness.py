"""Runs one workload for a time budget and turns its passes into metrics.

Untraced (`trace=False`): set up several times, then run passes
while another one fits in the budget, and report the end-to-end metrics.

Traced (`trace=True`): set up once untraced and once traced, then run pairs
of passes on the same inputs, one untraced and one traced, alternating which
goes first. The traced passes and the traced set-up give the per-layer
metrics; the pairs give the tracing overhead.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from tracing import ORIENTED_LABELING, JSON_DUMPS, STEPS, Tracer
from workloads import PassStats, clock

# At least SETUP_REPEATS set-ups, and more while they have taken less than
# SETUP_SECONDS of wall time: cheap set-ups are noisy, so they get more samples.
SETUP_REPEATS = 7
SETUP_SECONDS = 1.0

IMPORT_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.process_time()
import antimagic, antimagic.cli, antimagic.generators, antimagic.oracle
print(time.process_time() - start)
"""


@dataclass
class Result:
    metrics: dict[str, float]
    attempted: int
    failed: int
    reasons: Counter
    output_sha256: str
    notes: dict[str, str] = field(default_factory=dict)  # sample counts and other context


def import_seconds(src: Path) -> float:
    """CPU time to import the package in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(src)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip())


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, 0 < q <= 1."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kilobytes on Linux


def _measure(workload, inputs, seed: int, index: int) -> PassStats:
    gc.collect()  # each pass starts from the same heap state, outside the timed region
    return workload.run_pass(inputs, seed, index)


def run(workload, seed: int, seconds: float, trace: bool, src: Path) -> Result:
    if trace:
        return _traced(workload, workload.generate(seed), seed, seconds)
    setups = []
    began = time.perf_counter()
    while len(setups) < SETUP_REPEATS or time.perf_counter() - began < SETUP_SECONDS:
        imported = import_seconds(src)
        start = clock()
        inputs = workload.generate(seed)
        setups.append(imported + clock() - start)

    passes = _run_passes(seconds, lambda index: [_measure(workload, inputs, seed, index)])
    summary = [p for p in passes if p.instances]  # a pass whose every instance failed took no time
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "edges_per_s": statistics.median(p.edges / p.edge_seconds for p in summary),
        "instances_per_s": statistics.median(p.instances / p.seconds for p in summary),
        "instance_ms_p50": statistics.median(statistics.median(p.instance_ms) for p in summary),
        "instance_ms_p99": statistics.median(percentile(p.instance_ms, 0.99) for p in summary),
    }
    per_pass = len(passes[0].instance_ms)
    basis = f"median over {len(passes)} passes"
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "edges_per_s": basis,
        "instances_per_s": basis,
        "instance_ms_p50": f"{basis}, {per_pass} instances each",
        "instance_ms_p99": f"{basis}, {per_pass} instances each, {per_pass // 100} beyond",
        "max_m": str(max(p.max_m for p in passes)),
    }
    return _result(metrics, passes, notes)


def _run_passes(seconds: float, run_round) -> list[PassStats]:
    """Call run_round(index) while another round still fits in the budget; at least once.

    The budget is wall time: it bounds how long the run takes, not what it measures.
    """
    passes, durations = [], []
    start = time.perf_counter()
    while not durations or time.perf_counter() - start + statistics.median(durations) <= seconds:
        began = time.perf_counter()
        passes += run_round(len(durations))
        durations.append(time.perf_counter() - began)
    return passes


def _traced(workload, inputs, seed: int, seconds: float) -> Result:
    setup = Tracer()
    with setup.installed():
        workload.generate(seed)
    setup_busy, setup_calls = setup.busy, setup.calls
    tracer = Tracer()

    plain, traced = [], []

    def pair(index: int) -> list[PassStats]:
        for with_trace in (False, True) if index % 2 == 0 else (True, False):
            if with_trace:
                with tracer.installed():
                    traced.append(_measure(workload, inputs, seed, index))
                tracer.replay_pending()
            else:
                plain.append(_measure(workload, inputs, seed, index))
        return []

    _run_passes(seconds, pair)
    n = len(traced)

    def busy(name: str) -> float:
        return setup_busy[name] + tracer.busy[name] / n

    def calls(name: str) -> float:
        return setup_calls[name] + tracer.calls[name] / n

    def us_per_call(name: str) -> float:
        total = setup_calls[name] + tracer.calls[name]
        return (setup_busy[name] + tracer.busy[name]) / total * 1e6 if total else 0.0

    def per_pass(key: str) -> float:
        return sum(p.counts[key] for p in plain) / len(plain)

    def rate(count: str, secs: str) -> float:
        total = sum(p.counts[secs] for p in plain)
        return sum(p.counts[count] for p in plain) / total if total else 0.0

    everything = plain + traced
    attempted = sum(p.attempted for p in everything)
    metrics = {
        "construction.construct.s": busy("construction.construct"),
        "construction.replay_match": float(tracer.replay_mismatches == 0),
        "graph_core.parse_caterpillar.s": busy("graph_core.parse_caterpillar"),
        "graph_core.oriented_labeling.us_per_call": us_per_call(ORIENTED_LABELING),
        "graph_core.oriented_labeling.calls": calls(ORIENTED_LABELING),
        "verification.verify_antimagic.us_per_call": us_per_call("verification.verify_antimagic"),
        "verification.verify_antimagic.calls": calls("verification.verify_antimagic"),
        "verification.check_weight_classes.s": busy("verification.check_weight_classes"),
        "verification.check_claims.s": busy("verification.check_claims"),
        "cli.serialize.s": busy("cli.labeling_to_json") + busy(JSON_DUMPS),
        "cli.verify.s": busy("cli.verify"),
        "cli.json_bytes": per_pass("json_bytes"),
        "oracle.sums_distinct.us_per_call": us_per_call("oracle.sums_distinct"),
        "oracle.sums_distinct.calls": calls("oracle.sums_distinct"),
        "oracle.exhaustive_search.s": busy("oracle.exhaustive_search"),
        "oracle.pairs_enumerated": per_pass("search_pairs"),
        "oracle.confirm_construction.s": busy("oracle.confirm_construction"),
        "oracle.xval_pairs_per_s": rate("xval_pairs", "xval_s"),
        "oracle.search_pairs_per_s": rate("search_pairs", "search_s"),
        "oracle.mismatches": float(sum(p.mismatches for p in everything)),
        "oracle.antimagic_share": tracer.antimagic_pairs / tracer.pairs_checked if tracer.pairs_checked else 0.0,
        "generators.random_caterpillar.s": busy("generators.random_caterpillar"),
        "generators.enumerate_caterpillars.s": busy("generators.enumerate_caterpillars"),
        "generators.max_m": float(max(p.max_m for p in everything)),
        "verification.violations": float(sum(p.violations for p in everything)),
        "error_rate": sum(p.failed for p in everything) / attempted if attempted else 1.0,
        "trace.overhead_share": statistics.median(
            [t.seconds / p.seconds - 1 for p, t in zip(plain, traced) if p.seconds] or [0.0]),
    }
    if tracer.replay_mismatches == 0:
        steps = {f"{name}.s": busy(name) for name in STEPS}
        metrics.update(steps)
        metrics["construction.assemble.s"] = metrics["construction.construct.s"] - sum(steps.values())
    notes = {
        "per-layer .s": f"busy seconds in one set-up plus one pass (mean of {n} traced passes)",
        "construction.replay_match": f"{tracer.replays - tracer.replay_mismatches} of {tracer.replays} "
                                     "replays equal construct()",
        "trace.overhead_share": f"median of {n} untraced/traced pairs",
        "oracle.antimagic_share": f"oracle verdicts on {tracer.pairs_checked} random and exhaustive pairs"
                                  if tracer.pairs_checked else "no oracle pairs on this workload: reported as 0",
    }
    return _result(metrics, everything, notes)


def _result(metrics: dict[str, float], passes: list[PassStats], notes: dict[str, str]) -> Result:
    reasons = sum((p.reasons for p in passes), Counter())
    notes["nproc"] = str(len(os.sched_getaffinity(0)))
    return Result(
        metrics=metrics,
        attempted=sum(p.attempted for p in passes),
        failed=sum(p.failed for p in passes),
        reasons=reasons,
        output_sha256=passes[0].output.hexdigest(),
        notes=notes,
    )
