#!/usr/bin/env python3
"""Write small-graph corpora as graph6 files for the file-based sources.

Example: emit every connected graph on 2..6 vertices, or every dense graph
(2*delta > n) on 3..5 vertices, one graph6 string per line.
"""

import argparse
import sys

from tensorcut.catalog import all_graphs, connected_graphs, require_enumerable
from tensorcut.dense import dense_precondition
from tensorcut.graph6 import emit_graph6


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-order", type=int, default=2)
    parser.add_argument("--max-order", type=int, default=5)
    parser.add_argument("--kind", choices=("connected", "dense", "all"),
                        default="connected")
    parser.add_argument("--output", "-o", default=None)
    args = parser.parse_args()

    try:
        orders = range(args.min_order, args.max_order + 1)
        for n in orders:  # before enumerating anything
            require_enumerable(n)
        pools = [connected_graphs(n) if args.kind == "connected" else all_graphs(n)
                 for n in orders]
        lines = [emit_graph6(g) + "\n" for pool in pools for g in pool
                 if args.kind != "dense" or dense_precondition(g)]
        if args.output:
            with open(args.output, "w", encoding="ascii") as out:
                out.writelines(lines)
        else:
            sys.stdout.writelines(lines)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output:
        print(f"{len(lines)} graphs -> {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
