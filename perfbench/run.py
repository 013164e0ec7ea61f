#!/usr/bin/env python3
"""Benchmark of the antimagic package, run from outside it on its own source tree.

    python3 perfbench/run.py                                  # every workload, seed 0
    python3 perfbench/run.py --workload large --seed 3 --seconds 40 --trace 0

Each workload runs in a process of its own. It prints one line per metric
(name, value, unit, sample count), the Python version, commit and number of
usable CPUs, the sha256 of the package's output in its first pass, and last
a JSON line: {"correct", "attempted", "failed", "metrics"}. `--trace 0`
reports the end-to-end metrics of BENCHMARK.json, `--trace 1` the per-layer
ones. Exit code 0 when the run completed; the JSON says whether every
output was correct.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"


def load_spec() -> dict:
    with open(SPEC, encoding="utf-8") as f:
        return json.load(f)


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or "unknown"


def build_metrics(spec: dict, trace: bool, values: dict[str, float]) -> dict:
    """Attach BENCHMARK.json's units; refuse names it does not declare.

    Only the replayed construction steps may be missing, and only from a
    traced run whose replay did not match construct().
    """
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    unknown = set(values) - set(declared)
    missing = set(declared) - set(values)
    if trace and values.get("construction.replay_match") == 0.0:
        missing = {name for name in missing if not _is_replayed(name)}
    if unknown or missing:
        raise RuntimeError(f"metrics disagree with BENCHMARK.json: unknown {sorted(unknown)}, "
                           f"missing {sorted(missing)}")
    return {name: {"value": values[name], "unit": declared[name]} for name in declared if name in values}


def _is_replayed(name: str) -> bool:
    from tracing import STEPS

    return name in {f"{step}.s" for step in STEPS} or name == "construction.assemble.s"


def run_one(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "antimagic" / "__init__.py").is_file():
        print(f"benchmark: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import antimagic

    if Path(antimagic.__file__).resolve().parent != SRC / "antimagic":
        print(f"benchmark: imported {antimagic.__file__}, not the source tree", file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS

    result = harness.run(WORKLOADS[workload](), seed, seconds, trace, SRC)
    metrics = build_metrics(spec, trace, result.metrics)
    notes = result.notes
    print(f"# workload={workload} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print(f"# python={platform.python_version()} commit={commit()} nproc={notes.pop('nproc')}")
    print(f"# output_sha256={result.output_sha256}")
    if "max_m" in notes:
        print(f"# max_m observed={notes.pop('max_m')}")
    for name, metric in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"# {name} = {metric['value']:.6g} {metric['unit']}{note}")
    for name, note in notes.items():
        if name not in metrics:
            print(f"# {name}: {note}")
    print(f"# gate: {result.failed} of {result.attempted} operations failed {dict(result.reasons) or ''}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(spec: dict, seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in a fresh process so that memory and set-up are its own."""
    worst = 0
    for w in spec["workloads"]:
        done = subprocess.run([sys.executable, __file__, "--workload", w["name"], "--seed", str(seed),
                               "--seconds", f"{seconds:g}", "--trace", str(int(trace))])
        worst = max(worst, done.returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="one workload (default: every one)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(spec, args.seed, args.seconds, bool(args.trace))
    return run_one(spec, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
