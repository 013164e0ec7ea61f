#!/usr/bin/env python3
"""Enumerate every caterpillar up to a given order, construct, and verify.

Prints one summary row per order, the CPU seconds the run took (process time:
wall time on a shared machine also counts time other processes hold the CPU)
with their mean per construction and its checks, and a final verdict. A
failure is printed as FAIL and the record `antimagic stress` prints for one:
the leaf-count line, the seed and the names of the failed checks, so
`echo "<line>" | antimagic construct - --seed <seed>` replays it. Exit 1 on
any failure, 2 for a --seeds below 1 or a --max-n below 3, and 4 for a
--max-n above the CLI's order cap, as `antimagic gen` does.
"""

import argparse
import json
import sys
import time
from collections import defaultdict

from antimagic.cli import EXIT_INPUT, EXIT_REFUSED, MAX_ORDER, _violations
from antimagic.construction import construct
from antimagic.generators import enumerate_caterpillars
from antimagic.graph_core import format_leaf_counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=12)
    parser.add_argument("--seeds", type=int, default=3, help="seeds tried per instance")
    args = parser.parse_args()
    if args.seeds < 1:
        print(f"input error: --seeds must be at least 1, got {args.seeds}", file=sys.stderr)
        return EXIT_INPUT
    if args.max_n < 3:
        print(f"input error: --max-n must be at least 3, got {args.max_n}", file=sys.stderr)
        return EXIT_INPUT
    if args.max_n > MAX_ORDER:
        print(f"refused: --max-n={args.max_n} exceeds the order cap of {MAX_ORDER}", file=sys.stderr)
        return EXIT_REFUSED

    per_order = defaultdict(lambda: [0, 0])  # order -> [instances, failures]
    start = time.process_time()
    for c in enumerate_caterpillars(args.max_n):
        row = per_order[c.m + 1]
        row[0] += 1
        for seed in range(args.seeds):
            violations = _violations(c, *construct(c, seed=seed))
            if violations:
                row[1] += 1
                record = {"line": format_leaf_counts(c), "seed": seed, "violations": violations}
                print(f"FAIL {json.dumps(record)}")
    cpu_seconds = time.process_time() - start

    print(f"{'order':>6} {'instances':>10} {'failures':>9}")
    for n in sorted(per_order):
        inst, fails = per_order[n]
        print(f"{n:>6} {inst:>10} {fails:>9}")
    total_fails = sum(f for _, f in per_order.values())
    total = sum(i for i, _ in per_order.values())
    us_each = cpu_seconds / (total * args.seeds) * 1e6
    print(f"checked {total} instances x {args.seeds} seeds in {cpu_seconds:.1f} s CPU, {us_each:.0f} us each")
    print("all antimagic" if total_fails == 0 else f"{total_fails} FAILURES")
    return 0 if total_fails == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
