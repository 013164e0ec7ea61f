"""Tests of the benchmark itself: its contract, its construct() replay and its gate.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from antimagic import OrientedLabeling, cli, construct, oracle, parse_caterpillar  # noqa: E402
from antimagic.generators import GeneratorConfig, enumerate_caterpillars, random_caterpillar  # noqa: E402

SPEC = run.load_spec()

# The same workloads, shrunk so that one pass takes well under a second.
SMALL = {
    "large": lambda: workloads.Large(m=300),
    "stress_small": lambda: workloads.StressSmall(count=30),
    "oracle_xval": lambda: workloads.OracleXval(max_n=6, seeds=2, pairs=20, search_m=4),
}


def declared(kind: str) -> set[str]:
    return {m["name"] for m in SPEC[kind]}


def run_small(name: str, trace: bool, monkeypatch) -> harness.Result:
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    monkeypatch.setattr(harness, "SETUP_SECONDS", 0.0)
    return harness.run(SMALL[name](), seed=3, seconds=0.0, trace=trace, src=ROOT / "src")


def test_benchmark_json_follows_its_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"] and SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and name.fullmatch(w["name"])
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    for m in metrics:
        assert name.fullmatch(m["name"]) and unit.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    all_names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(all_names) == len(set(all_names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_every_workload_is_implemented():
    assert set(workloads.WORKLOADS) == {w["name"] for w in SPEC["workloads"]} == set(SMALL)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_metric_names_match_benchmark_json(name, trace, monkeypatch):
    result = run_small(name, trace, monkeypatch)
    metrics = run.build_metrics(SPEC, trace, result.metrics)
    assert set(metrics) == declared("per_layer" if trace else "end_to_end")
    assert result.attempted > 0 and result.failed == 0
    if trace:
        assert metrics["construction.replay_match"]["value"] == 1.0
        assert metrics["error_rate"]["value"] == 0.0
    else:
        assert all(m["value"] > 0 for m in metrics.values())


def test_build_metrics_refuses_undeclared_and_missing_names():
    values = {m["name"]: 1.0 for m in SPEC["end_to_end"]}
    with pytest.raises(RuntimeError):
        run.build_metrics(SPEC, False, {**values, "made_up": 1.0})
    del values["setup_s"]
    with pytest.raises(RuntimeError):
        run.build_metrics(SPEC, False, values)


def replay_cases():
    cats = list(enumerate_caterpillars(9))
    rng = random.Random(5)
    for spine, m in ((100, 300), (1, 300), (3, 300), (170, 500), (2, 40)):
        cats.append(random_caterpillar(GeneratorConfig(spine_range=(spine, spine), leaf_budget=m - spine + 1), rng))
    return cats


def test_replay_equals_construct():
    for c in replay_cases():
        for seed in (0, 1, 12345):
            ol, _ = construct(c, seed=seed)
            arcs, labels, seconds = tracing.replay_construct(c, seed)
            assert (arcs, labels) == (ol.arcs, ol.labels), c.leaf_counts
            assert set(seconds) == set(tracing.STEPS)


def test_traced_run_reports_replay_mismatch_and_drops_step_metrics(monkeypatch):
    real = tracing.replay_construct

    def off_by_one(c, seed):
        arcs, labels, seconds = real(c, seed)
        return arcs, labels[::-1], seconds

    monkeypatch.setattr(tracing, "replay_construct", off_by_one)
    result = run_small("oracle_xval", True, monkeypatch)
    metrics = run.build_metrics(SPEC, True, result.metrics)
    assert metrics["construction.replay_match"]["value"] == 0.0
    assert "construction.step7.s" not in metrics and "construction.assemble.s" not in metrics
    assert "construction.construct.s" in metrics


def test_traced_run_survives_a_replay_that_raises(monkeypatch):
    def changed_signature(c, d):  # as if label_light_edges had been rewritten
        raise AssertionError("not reached: the replay passes more arguments")

    steps = types.SimpleNamespace(**{**vars(tracing.construction), "label_light_edges": changed_signature})
    monkeypatch.setattr(tracing, "construction", steps)
    result = run_small("large", True, monkeypatch)
    metrics = run.build_metrics(SPEC, True, result.metrics)
    assert metrics["construction.replay_match"]["value"] == 0.0
    assert "construction.step1.s" not in metrics and "construction.assemble.s" not in metrics
    assert metrics["construction.construct.s"]["value"] > 0 and metrics["verification.check_claims.s"]["value"] > 0
    assert result.failed == 0


def test_antimagic_share_counts_only_oracle_pairs():
    tracer = tracing.Tracer()
    c = parse_caterpillar([1, 0, 2])
    with tracer.installed():
        assert oracle.confirm_construction(c, seed=1)  # not a pair check
        assert oracle.agreement_on_random_pairs(c.tree, 50, seed=2) == 0
        search = oracle.exhaustive_search(c.tree, count_all=True)
    assert tracer.pairs_checked == 50 + search.pairs_enumerated
    in_search = search.total_antimagic_pairs
    assert in_search <= tracer.antimagic_pairs <= in_search + 50
    assert tracer.calls[tracing.SUMS_DISTINCT] == tracer.pairs_checked + 1


def test_tracer_restores_every_binding():
    def bindings():
        found = {(m.__name__, a): v for m in tracing.MODULES for a, v in vars(m).items()}
        found["OrientedLabeling.__init__"] = OrientedLabeling.__init__
        return found

    before = bindings()
    with tracing.Tracer().installed():
        assert cli.construct is not before[("antimagic.cli", "construct")]
        assert oracle.sums_distinct is not before[("antimagic.oracle", "sums_distinct")]
    assert bindings() == before


def test_tracer_times_calls_made_through_any_module():
    tracer = tracing.Tracer()
    c = parse_caterpillar([1, 0, 2, 1])
    with tracer.installed():
        assert oracle.confirm_construction(c, seed=4)
        code, _, _ = workloads.run_cli(["construct", "-", "--format", "json"], "1 0 2 1")
    tracer.replay_pending()
    assert code == 0
    assert tracer.calls["construction.construct"] == 2  # via oracle and via cli
    assert tracer.calls["verification.verify_antimagic"] == 2
    assert tracer.calls["cli.labeling_to_json"] == tracer.calls[tracing.JSON_DUMPS] == 1
    assert tracer.replays == 2 and tracer.replay_mismatches == 0


def test_one_label_swap_trips_the_verify_gate():
    code, doc, _ = workloads.run_cli(["construct", "-", "--format", "json", "--seed", "2"], "1 0 2 0 1 3 1")
    assert code == 0
    vcode, report, _ = workloads.run_cli(["verify", "-"], doc)
    assert workloads.verify_failures(vcode, report) == ([], 0)

    parsed = json.loads(doc)
    arcs = parsed["arcs"]
    arcs[0]["label"], arcs[-1]["label"] = arcs[-1]["label"], arcs[0]["label"]
    vcode, report, _ = workloads.run_cli(["verify", "-"], json.dumps(parsed))
    failures, named = workloads.verify_failures(vcode, report)
    assert failures and named
    stats = workloads.PassStats()
    stats.check(failures)
    assert (stats.attempted, stats.failed) == (1, 1)


def test_one_label_swap_trips_certification():
    c = parse_caterpillar([2, 0, 1, 3, 1])
    ol, trace = construct(c, seed=1)
    assert workloads.certify(c, ol, trace) == []
    labels = list(ol.labels)
    labels[0], labels[1] = labels[1], labels[0]  # moves u_0 off its weight k1
    swapped = OrientedLabeling(n=ol.n, arcs=ol.arcs, labels=tuple(labels))
    assert "u0_weight" in workloads.certify(c, swapped, trace)


def test_swapped_labels_in_cli_output_make_error_rate_nonzero(monkeypatch):
    real = cli.labeling_to_json

    def swapped(ol, trace):
        doc = real(ol, trace)
        arcs = doc["arcs"]
        arcs[0]["label"], arcs[1]["label"] = arcs[1]["label"], arcs[0]["label"]
        return doc

    monkeypatch.setattr(cli, "labeling_to_json", swapped)
    result = run_small("large", True, monkeypatch)
    assert result.failed == result.attempted > 0
    assert result.metrics["error_rate"] == 1.0
    assert result.metrics["verification.violations"] > 0


def test_stress_gate_counts_each_bad_instance():
    bad = '{"line": "2", "seed": 0, "violations": ["light_range"]}'
    summary = '{"instances": 3, "max_m": 2, "violations": 1}'
    assert workloads.stress_failures(1, f"{bad}\n{summary}\n", 3) == (["light_range"], json.loads(summary))
    failures, _ = workloads.stress_failures(0, '{"instances": 2, "max_m": 2, "violations": 0}\n', 3)
    assert failures == ["stress_instance_count"]
    assert workloads.stress_failures(0, "", 3)[0] == ["stress_output_unreadable_exit_0"]


def test_crashed_stress_pass_fails_every_instance(monkeypatch):
    def crash(task):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_stress_one", crash)
    stats = workloads.StressSmall(count=7).run_pass(None, seed=0, index=0)
    assert stats.failed == stats.attempted == 7


def test_oracle_disagreement_fails_every_instance(monkeypatch):
    real = oracle.sums_distinct
    monkeypatch.setattr(oracle, "sums_distinct", lambda *args: not real(*args))
    w = workloads.OracleXval(max_n=5, seeds=1, pairs=10, search_m=3)
    stats = w.run_pass(w.generate(0), seed=0, index=0)
    assert stats.failed == stats.attempted == 6
    assert stats.mismatches > 0


def test_inputs_depend_only_on_the_seed():
    w = workloads.Large(m=3000)
    assert w.generate(4) == w.generate(4) != w.generate(5)
    first = w.run_pass(w.generate(4), seed=4, index=0)
    again = w.run_pass(w.generate(4), seed=4, index=0)
    assert first.output.hexdigest() == again.output.hexdigest() and first.failed == 0


def test_percentile_is_nearest_rank():
    assert harness.percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert harness.percentile(list(range(1, 101)), 0.99) == 99
    assert harness.percentile([5.0], 0.99) == 5.0


def test_without_the_package_source_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stress_small", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_unknown_workload_is_refused():
    with pytest.raises(SystemExit):
        run.main(["--workload", "no_such_workload"])
