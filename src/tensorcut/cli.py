"""Command-line front end.

Subcommands: product, kappa, classify, super, family, verify.  Graphs come
in as graph6 text, one per line, from files or standard input ("-").
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Iterator, Optional

from .dense import (
    CutClassificationError,
    ExcludedCaseError,
    classify_min_cut,
    exceptional_member,
    is_super_edge_connected_kn,
)
from .graph6 import emit_graph6, read_graph6
from .graphs import Graph, complete_graph
from .harness import (
    CHECK_NAMES,
    EXIT_CODES,
    CampaignConfig,
    load_config,
    parse_checks,
    run_campaign,
    run_check,
    write_csv,
    write_jsonl,
)
from .mincut import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    edge_connectivity,
    edge_connectivity_subset,
    format_cut,
)
from .product import direct_product, parse_product_cut


class _GraphReader:
    """Resolve graph arguments; '-' consumes successive stdin lines."""

    def __init__(self) -> None:
        self._stdin: Optional[Iterator[Graph]] = None

    def read(self, arg: str) -> Graph:
        if arg == "-":
            if self._stdin is None:
                self._stdin = read_graph6(sys.stdin)
            g = next(self._stdin, None)
            if g is None:
                raise ValueError("not enough graph6 lines on standard input")
            return g
        with open(arg, encoding="ascii") as fh:
            g = next(read_graph6(fh), None)
        if g is None:
            raise ValueError(f"no graph6 line found in {arg}")
        return g


def _emit(payload: dict) -> None:
    print(json.dumps(payload))


def _emit_record(rec: dict) -> int:
    """Print a check's record and exit by its status."""
    _emit(rec)
    return EXIT_CODES[rec["status"]]


def _cmd_product(args, reader: _GraphReader) -> int:
    g = reader.read(args.g)
    h = reader.read(args.h)
    print(emit_graph6(direct_product(g, h)))
    return 0


def _check_budget(budget: int) -> None:
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")


def _cmd_kappa(args, reader: _GraphReader) -> int:
    _check_budget(args.budget)
    if args.factors is not None:
        g = reader.read(args.factors[0])
        h = reader.read(args.factors[1])
        return _emit_record(run_check("theorem1", g, h, args.oracle, args.budget))
    graph = reader.read(args.graph)
    try:
        res = (edge_connectivity(graph) if args.oracle == "maxflow"
               else edge_connectivity_subset(graph, args.budget))
    except BudgetExceeded:
        _emit({"oracle": "subset", "kappa": None, "witness": None})
        return EXIT_CODES["inconclusive"]
    _emit({"oracle": args.oracle, "kappa": res.value, "witness": format_cut(res.witness)})
    return 0


def _cmd_classify(args, reader: _GraphReader) -> int:
    g = reader.read(args.g)
    h = reader.read(args.h)
    with open(args.cut, encoding="ascii") as fh:
        cut = parse_product_cut(fh.read(), g.n, h.n)
    try:
        verdict = classify_min_cut(g, h, cut)
    except CutClassificationError as exc:
        _emit({"verdict": "unclassifiable", "counterexample": True,
               "g": emit_graph6(exc.g), "h": emit_graph6(exc.h)})
        return 1
    payload: dict = {"verdict": verdict.verdict.value}
    if verdict.star_center is not None:
        payload["star_center"] = f"{verdict.star_center.x},{verdict.star_center.u}"
    if verdict.factor_cut is not None:
        payload["factor_cut"] = format_cut(verdict.factor_cut)
    _emit(payload)
    return 0


def _cmd_super(args, reader: _GraphReader) -> int:
    _check_budget(args.budget)
    g = reader.read(args.g)
    if args.brute:
        return _emit_record(run_check("corollary2", g, complete_graph(args.n),
                                      "subset", args.budget))
    payload: dict = {"n": args.n}
    try:
        payload["super"] = is_super_edge_connected_kn(g, args.n)
    except ExcludedCaseError as exc:
        payload.update(excluded=True, bruteforce_answer=exc.bruteforce_answer,
                       reason=str(exc))
    _emit(payload)
    return 0


def _cmd_family(args, reader: _GraphReader) -> int:
    print(emit_graph6(exceptional_member(args.l)))
    return 0


def _cmd_verify(args, reader: _GraphReader) -> int:
    config = load_config(args.config) if args.config else CampaignConfig()
    overrides: dict = {}
    if args.budget is not None:
        overrides["enumeration_budget"] = args.budget
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.checks is not None:
        overrides["checks"] = parse_checks(args.checks)
    if args.oracle is not None:
        overrides["oracle"] = args.oracle
    if overrides:
        config = replace(config, **overrides)
    report = run_campaign(config)
    writer = write_csv if args.format == "csv" else write_jsonl
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            writer(report, fh)
    else:
        writer(report, sys.stdout)
    return report.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensorcut",
        description="Edge connectivity and minimum-cut structure of direct products.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", help="emit the direct product as graph6")
    p.add_argument("g", help="graph6 file or '-'")
    p.add_argument("h", help="graph6 file or '-'")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("kappa", help="edge connectivity: oracle, or the theorem1 check")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--graph", help="single graph: oracle kappa'")
    mode.add_argument("--factors", nargs=2, metavar=("G", "H"),
                      help="two factors: the theorem1 record of the pair")
    p.add_argument("--oracle", choices=("maxflow", "subset"), default="maxflow")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="most 64-bit words one subset-oracle scan may touch")
    p.set_defaults(func=_cmd_kappa)

    p = sub.add_parser("classify", help="classify a minimum cut of a product")
    p.add_argument("g")
    p.add_argument("h")
    p.add_argument("cut", help="cut file: one edge per line as 'x,u y,v'")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("super", help="super-edge-connectivity criterion for G x K_n")
    p.add_argument("g")
    p.add_argument("n", type=int)
    p.add_argument("--brute", action="store_true",
                   help="print the corollary2 record of (G, K_n) by the subset "
                        "oracle: exit 1 on a mismatch, 2 when over budget")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="most 64-bit words the --brute scan may touch")
    p.set_defaults(func=_cmd_super)

    p = sub.add_parser("family", help="emit exceptional family member l as graph6")
    p.add_argument("l", type=int)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("verify", help="run a verification campaign")
    p.add_argument("config", nargs="?", help="flat key=value config file")
    p.add_argument("--budget", type=int, default=None,
                   help="most 64-bit words one subset-oracle scan may touch per "
                        "pair; only --oracle subset can run out of it "
                        "(exit 2)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--checks", default=None,
                   help=f"comma list from {','.join(CHECK_NAMES)}")
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p.add_argument("--oracle", choices=("maxflow", "subset"), default=None)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, _GraphReader())
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
