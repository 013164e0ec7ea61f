"""Command-line front door: construct, verify, oracle, gen, stress.

Exit code contract: 0 success, 1 verification failure, 2 input or schema
error, 3 internal invariant violation (an implementation bug, never a legal
input), 4 resource refusal (oracle cap, input size cap).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from collections import Counter
from collections.abc import Collection
from itertools import chain
from operator import itemgetter

from . import oracle as oracle_mod
from .construction import ConstructionTrace, construct
from .generators import GeneratorConfig, enumerate_caterpillars, random_caterpillar
from .graph_core import (
    Caterpillar,
    InputError,
    InvariantViolation,
    OrientedLabeling,
    Record,
    ResourceLimitError,
    VertexClass,
    format_leaf_counts,
    parse_caterpillar,
    parse_leaf_counts,
)
from .verification import check_claims, check_class_intervals, check_weight_classes
from .verification import oriented_sums, pairwise_distinct, path_flows, verify_antimagic

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_REFUSED = 4

# construct and oracle refuse an input line with more edges than this, stress
# a --max-m above it, gen --random a largest m above it. At m = 10^6 (spine
# m/3; Python 3.11, 2 vCPUs, stdout to a file), construct --format json writes
# a 59.7 MB document in 6-8 s of CPU and peaks at ~560 MB resident (15 MB more
# than with spaces: glibc's mmap threshold, not a larger live set), and verify
# of it, read from a file, ~4.5 s and ~355 MB.
MAX_EDGES = 2_000_000

# gen refuses a --max-n above this. There are 2^(n-4) + 2^((n-4)//2)
# caterpillars of order n, so up to order 24 gen prints about 2.1 million
# lines: ~40 s at the ~19 us a line it takes up to order 20 (Python 3.11,
# 2 vCPUs).
MAX_ORDER = 24

CLASS_OF = {c.value: c for c in VertexClass}


class RunRecord(Record):
    __match_args__ = ("line", "m", "seed", "violations", "wall_time")

    def __init__(
        self, line: str, m: int, seed: int, violations: list[str] | None = None, wall_time: float = 0.0
    ) -> None:
        violations = [] if violations is None else violations
        vars(self).update(line=line, m=m, seed=seed, violations=violations, wall_time=wall_time)


def _read_text(path: str | None) -> str:
    """The whole of the named file, or of stdin for None or "-"."""
    try:
        if path in (None, "-"):
            return sys.stdin.read()
        with open(path, encoding="utf-8", newline="") as f:  # as stdin: no newline translation
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _within_cap(name: str, m: int) -> None:
    """Refuse work that can reach m edges when m exceeds MAX_EDGES."""
    if m > MAX_EDGES:
        raise ResourceLimitError(f"{name}={m} exceeds the input cap of {MAX_EDGES} edges")


def _read_instances(path: str | None) -> list[Caterpillar]:
    out = []
    # Lines end at "\n" alone (a CRLF line keeps its "\r" until stripped);
    # str.splitlines() would also split at form feeds and ASCII separators.
    for lineno, line in enumerate(_read_text(path).split("\n"), start=1):
        stripped = line.removesuffix("\r").strip(" \t")
        if not stripped or stripped.startswith("#"):
            continue
        try:
            counts = parse_leaf_counts(stripped)
            _within_cap(f"line {lineno}: m", len(counts) - 1 + sum(counts))
            out.append(parse_caterpillar(counts))
        except InputError as exc:
            raise InputError(f"line {lineno}: {exc}") from exc
    return out


# An arc in a JSON document is an object with exactly these keys, written in this order.
ARC_KEYS = ("from", "to", "label")


def _arc_objects(ol: OrientedLabeling) -> list[dict]:
    """The arcs of ol as a document writes them."""
    return [{"from": tail, "to": head, "label": lbl} for (tail, head), lbl in zip(ol.arcs, ol.labels)]


def labeling_to_json(ol: OrientedLabeling, trace: ConstructionTrace) -> dict:
    return {
        "n": ol.n,
        "arcs": _arc_objects(ol),
        "sums": oriented_sums(ol),
        "classes": [c._value_ for c in trace.classes],
        "path": list(trace.decomposition.path),
        "k1": trace.partition.k1,
        "k2": trace.partition.k2,
    }


def _render_dot(ol: OrientedLabeling, trace: ConstructionTrace) -> str:
    sums = oriented_sums(ol)
    light = VertexClass.LIGHT
    lines = ["digraph antimagic {"]
    for v, cls in enumerate(trace.classes):
        style = ', style=filled, fillcolor="lightgrey"' if cls is light else ""
        lines.append(f'  v{v} [label="{v}\\ns={sums[v]}"{style}];')
    for (tail, head), lbl in zip(ol.arcs, ol.labels):
        lines.append(f'  v{tail} -> v{head} [label="{lbl}"];')
    lines.append("}")
    return "\n".join(lines)


def _render_tsv(ol: OrientedLabeling, trace: ConstructionTrace) -> str:
    sums = oriented_sums(ol)
    rows = [f"arc\t{tail}\t{head}\t{lbl}" for (tail, head), lbl in zip(ol.arcs, ol.labels)]
    rows += [f"sum\t{v}\t{sums[v]}" for v in range(ol.n)]
    rows += [f"class\t{v}\t{cls._value_}" for v, cls in enumerate(trace.classes)]
    return "\n".join(rows)


def cmd_construct(args: argparse.Namespace) -> int:
    instances = _read_instances(args.input)
    all_ok = True
    for c in instances:
        ol, trace = construct(c, seed=args.seed)
        all_ok &= verify_antimagic(ol)
        if args.format == "json":
            doc = labeling_to_json(ol, trace)
            del ol, trace  # not kept alive while the document is encoded
            # a tree of fresh objects, written without spaces
            print(json.dumps(doc, check_circular=False, separators=(",", ":")))
        elif args.format == "dot":
            print(_render_dot(ol, trace))
        else:
            print(_render_tsv(ol, trace))
    return EXIT_OK if all_ok else EXIT_VERIFY_FAIL


def _type_name(value: object) -> str:
    """The JSON value's Python type name; an arc-shaped object, which `_object` decodes as a triple, is a dict."""
    return "dict" if type(value) is tuple else type(value).__name__


def _int(value: object) -> int:
    """A JSON integer as it is; TypeError for anything else, floats and booleans included."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {_type_name(value)}")
    return value


def _ints(values: Collection[object]) -> None:
    """`_int` on every value, called only when some value is not an integer."""
    if not set(map(type, values)) <= {int}:
        for value in values:
            _int(value)


def _object(pairs: list[tuple[str, object]]) -> dict | tuple:
    """A decoded JSON object; InputError if a key repeats, since the last one would silently win.

    An object whose keys are exactly from, to and label, in any order, is
    returned as the triple (from, to, label). In the order documents are
    written in, no dict is built for it.
    """
    if len(pairs) == 3:
        (a, x), (b, y), (c, z) = pairs
        if (a, b, c) == ARC_KEYS:
            return x, y, z
    obj = dict(pairs)
    if len(obj) != len(pairs):
        key = next(key for key, count in Counter(key for key, _ in pairs).items() if count > 1)
        raise InputError(f"duplicate key {key!r}")
    if obj.keys() == {*ARC_KEYS}:
        return obj["from"], obj["to"], obj["label"]
    return obj


def _labeling_from_json(doc: dict) -> OrientedLabeling:
    """The labeling in doc; takes doc's arcs out of it, so they are not kept alive through validation."""
    try:
        n = _int(doc["n"])
        raw = doc.pop("arcs")
        # `_object` decoded each well-formed arc as a triple; an arc-shaped
        # object in place of the array would iterate as its three values.
        if type(raw) is not list or not set(map(type, raw)) <= {tuple}:
            raise TypeError("arcs must be an array of objects whose keys are exactly from, to and label")
        if not set(map(type, chain.from_iterable(raw))) <= {int}:
            # the fault named is the first one found when every endpoint is checked before any label
            _ints([v for tail, head, _ in raw for v in (tail, head)])
            _ints([lbl for *_, lbl in raw])
    except KeyError as exc:
        raise InputError(f"bad labeling JSON: missing key {exc}") from exc
    except TypeError as exc:
        raise InputError(f"bad labeling JSON: {exc}") from exc
    labels = tuple(map(itemgetter(2), raw))
    for i, (tail, head, _) in enumerate(raw):
        raw[i] = tail, head  # each triple is freed as its arc is made, so the two are never all alive
    arcs = tuple(raw)
    del raw
    return OrientedLabeling(n=n, arcs=arcs, labels=labels)


def _class_args_from_json(doc: dict, ol: OrientedLabeling) -> tuple | None:
    """classes, path, k1, k2 for `check_class_intervals`; None if the document has none of them.

    classes gives the VertexClass of each of the n vertices in vertex order;
    path is a path of the tree, and holds every light and heavy vertex.
    """
    keys = ("classes", "path", "k1", "k2")
    missing = [key for key in keys if key not in doc]
    if len(missing) == len(keys):
        return None
    if missing:
        raise InputError(f"{', '.join(keys)} come together; missing {', '.join(missing)}")
    if ol.m < 2:
        raise InputError(f"classes, path, k1 and k2 need the split of [1, m], defined for m >= 2; got m={ol.m}")
    n, classes, path = ol.n, doc["classes"], doc["path"]
    if not isinstance(classes, list) or len(classes) != n or not isinstance(path, list) or not path:
        raise InputError(f"classes must be a list of n={n} class names, and path a non-empty list")
    try:
        _ints(path)
        k1, k2 = _int(doc["k1"]), _int(doc["k2"])
    except TypeError as exc:
        raise InputError(f"bad classes, path, k1 or k2: {exc}") from exc
    # The paper's split for this tree: k1 = ceil((m-r+1)/2), k2 = ceil((m+r)/2) - 1,
    # r the vertices of degree one; any other pair would move the class intervals.
    degree = [0] * n
    for u, v in ol.arcs:
        degree[u] += 1
        degree[v] += 1
    m, r = ol.m, degree.count(1)
    split = ((m - r + 2) // 2, (m + r + 1) // 2 - 1)
    if (k1, k2) != split:
        raise InputError(f"k1, k2 must be {split[0]}, {split[1]} for m={m} and r={r}, got {k1}, {k2}")
    if min(path) < 0 or max(path) >= n:
        outside = next(v for v in path if not 0 <= v < n)
        raise InputError(f"vertex {outside} out of range for n={n}")
    if not pairwise_distinct(path):
        repeated = next(v for v, count in Counter(path).items() if count > 1)
        raise InputError(f"path: vertex {repeated} repeats")
    flows = path_flows(ol, path)
    if 0 in flows:
        i = flows.index(0)
        raise InputError(f"path: vertices {path[i]} and {path[i + 1]} are not joined by an arc")
    light, heavy = VertexClass.LIGHT, VertexClass.HEAVY
    path_classes = list(map(classes.__getitem__, path))
    if path_classes.count(light) + path_classes.count(heavy) != classes.count(light) + classes.count(heavy):
        on_path = set(path)
        v, c = next((v, c) for v, c in enumerate(classes) if (c is light or c is heavy) and v not in on_path)
        raise InputError(f"classes: {c.value} vertex {v} is not on the path")
    return classes, path, k1, k2


def cmd_verify(args: argparse.Namespace) -> int:
    text = _read_text(args.input)
    try:
        doc = json.loads(text, object_pairs_hook=_object)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"bad JSON: {exc}") from exc
    del text  # not kept alive next to the document
    if type(doc) is tuple:  # an arc-shaped object, decoded as an arc triple: read it as the object it is
        doc = dict(zip(ARC_KEYS, doc))
    if type(doc) is not dict:
        raise InputError(f"the document must be a JSON object, got {type(doc).__name__}")
    # The class names are checked, and freed, before the labeling is validated.
    names = doc.get("classes")
    if type(names) is list:
        try:
            doc["classes"] = [CLASS_OF[c] for c in names]
        except (KeyError, TypeError) as exc:
            name = next(c for c in names if type(c) is not str or c not in CLASS_OF)
            if type(name) is not str:
                raise InputError(f"bad classes: expected a class name, got {_type_name(name)}") from exc
            raise InputError(f"classes: unknown class {name!r}") from exc
    del names
    # Each part of the document is dropped once read: arcs, classes, sums.
    ol = _labeling_from_json(doc)
    class_args = _class_args_from_json(doc, ol)
    doc.pop("classes", None)
    sums = oriented_sums(ol)
    violations = []
    if "sums" in doc:
        declared = doc.pop("sums")
        if not isinstance(declared, list) or len(declared) != ol.n:
            raise InputError(f"sums must be a list of n={ol.n} integers")
        try:
            _ints(declared)
        except TypeError as exc:
            raise InputError(f"bad sums: {exc}") from exc
        if declared != sums:
            violations.append("declared_sums_mismatch")
        del declared
    if class_args is not None:
        violations += check_class_intervals(ol, sums, *class_args)[0]
    del ol, class_args  # the report needs only the sums
    if not pairwise_distinct(sums):
        violations.insert(0, "duplicate_sum")
    report = {"sums": sums, "antimagic": "duplicate_sum" not in violations, "violations": violations}
    print(json.dumps(report))
    return EXIT_OK if not violations else EXIT_VERIFY_FAIL


def _at_least(name: str, value: int, lo: int) -> int:
    if value < lo:
        raise InputError(f"{name} must be at least {lo}, got {value}")
    return value


def cmd_oracle(args: argparse.Namespace) -> int:
    cap = _at_least("the oracle cap", args.cap, 0)
    instances = _read_instances(args.input)
    for c in instances:  # every line is refused or accepted before any result is printed
        if c.m > cap:
            raise ResourceLimitError(f"m={c.m} exceeds the oracle cap {cap}; raise --cap explicitly")
    all_found = True
    for c in instances:
        res = oracle_mod.exhaustive_search(c.tree, cap=cap, count_all=args.count_all)
        all_found &= res.witness is not None
        doc = {
            "input": format_leaf_counts(c),
            "m": res.m,
            "orientations_with_solution": res.orientations_with_solution,
            "total_antimagic_pairs": res.total_antimagic_pairs,
            "pairs_enumerated": res.pairs_enumerated,
            "witness": None if res.witness is None else _arc_objects(res.witness),
        }
        print(json.dumps(doc))
    return EXIT_OK if all_found else EXIT_VERIFY_FAIL


def cmd_gen(args: argparse.Namespace) -> int:
    if args.random:
        _at_least("--count", args.count, 0)
        # the largest m: the end-count bump adds up to two leaves to the budget
        _within_cap("--spine-max + --leaf-budget + 1", args.spine_max + args.leaf_budget + 1)
        rng = random.Random(args.seed)
        cfg = GeneratorConfig(spine_range=(args.spine_min, args.spine_max), leaf_budget=args.leaf_budget)
        for _ in range(args.count):
            print(format_leaf_counts(random_caterpillar(cfg, rng)))
    else:
        if args.max_n > MAX_ORDER:
            raise ResourceLimitError(f"--max-n={args.max_n} exceeds the order cap of {MAX_ORDER}")
        for c in enumerate_caterpillars(args.max_n):
            print(format_leaf_counts(c))
    return EXIT_OK


def _violations(c: Caterpillar, ol: OrientedLabeling, trace: ConstructionTrace) -> list[str]:
    """The name of each check a constructed instance fails: class checks, duplicate_sum, then claims."""
    report = check_weight_classes(ol, trace)
    violations = list(report.violations)
    if not report.antimagic:
        violations.append("duplicate_sum")
    return violations + [name for name, passed in check_claims(c, ol, trace) if not passed]


def _stress_one(task: tuple[int, int, int]) -> RunRecord:
    index, master_seed, max_m = task
    rng = random.Random(hash((master_seed, index)))
    while True:
        target_m = rng.randint(2, max_m)
        s = rng.randint(1, max(1, target_m // 2))
        budget = max(2, target_m - (s - 1))
        c = random_caterpillar(GeneratorConfig(spine_range=(s, s), leaf_budget=budget), rng)
        # The end-count bump can add two edges; only such an instance is drawn again.
        if c.m <= max_m:
            break
    start = time.perf_counter()
    ol, trace = construct(c, seed=master_seed + index)
    return RunRecord(
        line=format_leaf_counts(c),
        m=c.m,
        seed=master_seed + index,
        violations=_violations(c, ol, trace),
        wall_time=time.perf_counter() - start,
    )


def cmd_stress(args: argparse.Namespace) -> int:
    _at_least("--count", args.count, 0)
    _at_least("--max-m", args.max_m, 2)
    if args.jobs != 1:
        raise InputError(f"--jobs must be 1, got {args.jobs}: instances run one after another")
    _within_cap("--max-m", args.max_m)
    tasks = ((i, args.seed, args.max_m) for i in range(args.count))
    summary = {"instances": 0, "max_m": 0, "violations": 0}
    wall_time = 0.0
    slowest = None
    for r in map(_stress_one, tasks):  # each record is read as it arrives and dropped, but the slowest
        if r.violations:
            print(json.dumps({"line": r.line, "seed": r.seed, "violations": r.violations}))
        summary["instances"] += 1
        summary["max_m"] = max(summary["max_m"], r.m)
        summary["violations"] += len(r.violations)
        wall_time += r.wall_time
        if slowest is None or r.wall_time > slowest.wall_time:
            slowest = r
    print(json.dumps(summary))
    # timing goes to stderr so stdout stays byte-identical across repeat runs
    mean = wall_time / summary["instances"] if summary["instances"] else 0.0
    print(f"mean wall time per instance: {mean:.6f}s", file=sys.stderr)
    if slowest is not None:
        print(
            f'slowest instance: {slowest.wall_time:.6f}s, m={slowest.m}: '
            f'echo "{slowest.line}" | antimagic construct - --seed {slowest.seed}',
            file=sys.stderr,
        )
    return EXIT_VERIFY_FAIL if summary["violations"] else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antimagic",
        description="Antimagic orientations of caterpillars: construct, verify, brute-force.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="construct and verify an antimagic orientation")
    p.add_argument("input", nargs="?", help="file of leaf-count lines, or - for stdin")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["json", "dot", "tsv"], default="tsv")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="verify a labeling given as JSON")
    p.add_argument("input", nargs="?", help="JSON file, or - for stdin")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="brute-force search over orientations and labelings")
    p.add_argument("input", nargs="?", help="file of leaf-count lines, or - for stdin")
    p.add_argument("--cap", type=int, default=oracle_mod.DEFAULT_CAP)
    p.add_argument("--count-all", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="emit caterpillars in the canonical text format")
    p.add_argument("--max-n", type=int, default=10)
    p.add_argument("--random", action="store_true")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--spine-min", type=int, default=1)
    p.add_argument("--spine-max", type=int, default=10)
    p.add_argument("--leaf-budget", type=int, default=10)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("stress", help="generate, construct and verify many instances")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-m", type=int, default=100)
    p.add_argument("--jobs", type=int, default=1, help="accepted only as 1: instances run one after another")
    p.set_defaults(func=cmd_stress)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here rather than at interpreter exit
        return code
    except BrokenPipeError:
        # The reader stopped early (`gen | head`): end quietly. Python flushes
        # stdout once more at exit, so that flush goes to the null device.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceLimitError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except InvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # any other failure is a bug too: one line that says where, not a traceback
        import traceback  # only here: no correct run needs it

        where = traceback.extract_tb(exc.__traceback__)[-1]
        print(
            f"internal error: {type(exc).__name__}: {exc} "
            f"(at {os.path.basename(where.filename)}:{where.lineno} in {where.name})",
            file=sys.stderr,
        )
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
