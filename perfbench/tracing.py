"""Per-layer spans, recorded from outside the package.

A `Tracer` replaces the package's public functions with timing wrappers at
every module that binds them, for as long as `installed()` is active, and
puts the originals back afterwards. Spans are inclusive: a span's busy time
contains the spans of the functions it calls.

construct() is not split from inside. Each traced construct() call is
recorded (leaf counts, seed, a hash of its arcs and labels), and
`replay_pending()` then runs construct()'s public step functions on the same
instance and seed, in construct()'s order, timing each step. A replay counts
only when its arcs and labels hash as construct()'s did; one that raises is a
mismatch too.

The oracle's verdicts inside `agreement_on_random_pairs` and
`exhaustive_search` are counted as well (`pairs_checked`, `antimagic_pairs`):
one `sums_distinct` call per (orientation, labeling) pair.
"""

from __future__ import annotations

import inspect
import json
import random
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import antimagic
from antimagic import cli, construction, generators, graph_core, oracle, verification

MODULES = (antimagic, cli, construction, generators, graph_core, oracle, verification)

# span name -> (module, function) whose every call the span times
SPANS = {
    "construction.construct": (construction, "construct"),
    "graph_core.parse_caterpillar": (graph_core, "parse_caterpillar"),
    "verification.verify_antimagic": (verification, "verify_antimagic"),
    "verification.check_weight_classes": (verification, "check_weight_classes"),
    "verification.check_claims": (verification, "check_claims"),
    "cli.labeling_to_json": (cli, "labeling_to_json"),
    "cli.verify": (cli, "cmd_verify"),
    "oracle.sums_distinct": (oracle, "sums_distinct"),
    "oracle.exhaustive_search": (oracle, "exhaustive_search"),
    "oracle.agreement_on_random_pairs": (oracle, "agreement_on_random_pairs"),
    "oracle.confirm_construction": (oracle, "confirm_construction"),
    "generators.random_caterpillar": (generators, "random_caterpillar"),
    "generators.enumerate_caterpillars": (generators, "enumerate_caterpillars"),
}
ORIENTED_LABELING = "graph_core.oriented_labeling"  # OrientedLabeling.__init__, validation included
JSON_DUMPS = "cli.json_dumps"  # json.dumps of a labeling document inside the cli module
SUMS_DISTINCT = "oracle.sums_distinct"
PAIR_CHECKS = ("oracle.exhaustive_search", "oracle.agreement_on_random_pairs")  # one sums_distinct per pair

# The replayed steps, in construct()'s order.
STEPS = (
    "construction.step1",
    "graph_core.longest_path_decomposition",
    "construction.step2",
    "construction.step3",
    "construction.step4",
    "construction.step5",
    "construction.step6",
    "construction.step7",
)


def replay_construct(c: graph_core.Caterpillar, seed: int):
    """Run construct()'s steps on c; return (arcs, labels, seconds per step name)."""
    clock = time.perf_counter
    marks = [clock()]
    p = construction.compute_label_partition(c.m, c.r)
    marks.append(clock())
    d = graph_core.longest_path_decomposition(c)
    marks.append(clock())
    path_labels = construction.label_path_edges(d, p)
    marks.append(clock())
    classes = construction.classify_vertices(c, d, path_labels)
    marks.append(clock())
    dirs = construction.orient_path(d, classes)
    marks.append(clock())
    nonpath_arcs = construction.orient_nonpath_edges(c, d, classes, dirs, path_labels)
    marks.append(clock())
    light_labels, _ = construction.label_light_edges(c, d, p, classes, dirs, path_labels)
    marks.append(clock())
    heavy_labels, *_ = construction.label_heavy_edges(
        c, d, p, classes, dirs, path_labels, nonpath_arcs, light_labels, random.Random(seed)
    )
    marks.append(clock())

    # construct()'s assembly, untimed: its cost stays in construction.assemble.
    arcs, labels = [], []
    for i, e in enumerate(d.path_edges):
        u, v = d.path[i], d.path[i + 1]
        arcs.append((u, v) if dirs[i] else (v, u))
        labels.append(path_labels[e])
    for e in sorted(d.nonpath_edges):
        arcs.append(nonpath_arcs[e])
        labels.append(light_labels.get(e, heavy_labels.get(e, 0)))
    seconds = {name: b - a for name, a, b in zip(STEPS, marks, marks[1:])}
    return tuple(arcs), tuple(labels), seconds


class _JsonProxy:
    """Stands in for the json module inside cli, with a timed dumps."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    """Busy seconds and call counts per span name, plus construct() replays."""

    def __init__(self) -> None:
        self.busy: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.true_results: dict[str, int] = defaultdict(int)
        self.replays = 0
        self.replay_mismatches = 0
        self.pairs_checked = 0
        self.antimagic_pairs = 0
        # (leaf counts, seed, adjacency cached before, hash of arcs and labels) per construct() call;
        # the pass's caterpillars themselves are not kept alive.
        self._pending: list = []

    def _timed(self, name: str, fn):
        busy, calls, true_results = self.busy, self.calls, self.true_results
        clock = time.perf_counter
        if inspect.isgeneratorfunction(fn):

            def timed_generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                calls[name] += 1
                while True:
                    start = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        busy[name] += clock() - start
                        return
                    busy[name] += clock() - start
                    yield item

            return timed_generator

        def timed(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            busy[name] += clock() - start
            calls[name] += 1
            if result is True:
                true_results[name] += 1
            return result

        return timed

    def _timed_construct(self, fn):
        timed = self._timed("construction.construct", fn)
        pending = self._pending

        def construct(c, seed=0):
            cached = "adjacency" in c.tree.__dict__
            ol, trace = timed(c, seed=seed)
            pending.append((c.leaf_counts, seed, cached, hash((ol.arcs, ol.labels))))
            return ol, trace

        return construct

    def _counting_pairs(self, name: str, fn):
        timed = self._timed(name, fn)
        calls, true_results = self.calls, self.true_results

        def counted(*args, **kwargs):
            checked, antimagic = calls[SUMS_DISTINCT], true_results[SUMS_DISTINCT]
            result = timed(*args, **kwargs)
            self.pairs_checked += calls[SUMS_DISTINCT] - checked
            self.antimagic_pairs += true_results[SUMS_DISTINCT] - antimagic
            return result

        return counted

    def _timed_dumps(self):
        timed = self._timed(JSON_DUMPS, json.dumps)

        def dumps(obj, *args, **kwargs):
            if isinstance(obj, dict) and "arcs" in obj:
                return timed(obj, *args, **kwargs)
            return json.dumps(obj, *args, **kwargs)

        return dumps

    @contextmanager
    def installed(self):
        """Swap the timing wrappers in; restore every original on exit."""
        saved = []

        def replace(original, wrapper):
            for mod in MODULES:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        saved.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

        try:
            for name, (mod, attr) in SPANS.items():
                original = getattr(mod, attr)
                if name == "construction.construct":
                    replace(original, self._timed_construct(original))
                elif name in PAIR_CHECKS:
                    replace(original, self._counting_pairs(name, original))
                else:
                    replace(original, self._timed(name, original))
            cls = graph_core.OrientedLabeling
            saved.append((cls, "__init__", cls.__init__))
            cls.__init__ = self._timed(ORIENTED_LABELING, cls.__init__)
            saved.append((cli, "json", cli.json))
            cli.json = _JsonProxy(self._timed_dumps())
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def replay_pending(self) -> None:
        """Replay every construct() call recorded since the last replay."""
        for leaf_counts, seed, cached, output in self._pending:
            self.replays += 1
            try:
                c = graph_core.parse_caterpillar(leaf_counts)
                if cached:
                    c.tree.adjacency  # construct() found it built; so does the replay
                arcs, labels, seconds = replay_construct(c, seed)
            except Exception as exc:  # a step function changed: no step timings, the run goes on
                if not self.replay_mismatches:
                    print(f"benchmark: construct() replay raised {type(exc).__name__}: {exc}", file=sys.stderr)
                self.replay_mismatches += 1
                continue
            if hash((arcs, labels)) != output:
                self.replay_mismatches += 1
            for name, s in seconds.items():
                self.busy[name] += s
                self.calls[name] += 1
        self._pending.clear()
