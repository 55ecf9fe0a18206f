"""Command-line front end.

Subcommands: product, kappa, classify, super, family, verify.  Graphs come
in as graph6 text, one per line, from files or standard input ("-").
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Optional

from .dense import (
    CutClassificationError,
    ExcludedCaseError,
    classify_min_cut,
    exceptional_member,
    is_super_edge_connected_kn,
    kappa_formula,
)
from .graph6 import emit_graph6, parse_graph6
from .graphs import Graph, complete_graph
from .harness import (
    CHECK_NAMES,
    CampaignConfig,
    load_config,
    parse_checks,
    run_campaign,
    write_csv,
    write_jsonl,
)
from .mincut import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    edge_connectivity,
    edge_connectivity_subset,
    format_cut,
    is_super_edge_connected,
)
from .product import direct_product, parse_product_cut


class _GraphReader:
    """Resolve graph arguments; '-' consumes successive stdin lines."""

    def __init__(self) -> None:
        self._stdin: Optional[list[str]] = None
        self._used = 0

    def read(self, arg: str) -> Graph:
        if arg == "-":
            if self._stdin is None:
                self._stdin = [l for l in sys.stdin.read().splitlines() if l.strip()]
            if self._used >= len(self._stdin):
                raise ValueError("not enough graph6 lines on standard input")
            line = self._stdin[self._used]
            self._used += 1
            return parse_graph6(line)
        with open(arg, encoding="ascii") as fh:
            for line in fh:
                if line.strip():
                    return parse_graph6(line)
        raise ValueError(f"no graph6 line found in {arg}")


def _emit(payload: dict) -> None:
    print(json.dumps(payload))


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

    def oracle_value(graph: Graph) -> dict:
        if args.oracle == "subset":
            res = edge_connectivity_subset(graph, args.budget)
        else:
            res = edge_connectivity(graph)
        return {"kappa": res.value, "witness": format_cut(res.witness)}

    if args.graph is not None:
        payload = {"oracle": args.oracle, **oracle_value(reader.read(args.graph))}
        _emit(payload)
        return 0

    g = reader.read(args.factors[0])
    h = reader.read(args.factors[1])
    res = kappa_formula(g, h)
    oracle = oracle_value(direct_product(g, h))
    _emit({
        "formula": res.value,
        "branch": res.branch.value,
        "factor_cut_bound": res.factor_cut_bound,
        "degree_bound": res.degree_bound,
        "oracle": oracle["kappa"],
        "match": res.value == oracle["kappa"],
    })
    return 0 if res.value == oracle["kappa"] else 1


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
    payload: dict = {"n": args.n}
    try:
        expected = payload["super"] = is_super_edge_connected_kn(g, args.n)
    except ExcludedCaseError as exc:
        expected = exc.bruteforce_answer
        payload.update(excluded=True, bruteforce_answer=expected, reason=str(exc))
    code = 0
    if args.brute:
        try:
            brute = is_super_edge_connected(
                direct_product(g, complete_graph(args.n)), args.budget
            )
        except BudgetExceeded:
            brute = None
        payload["bruteforce"] = brute
        code = 2 if brute is None else int(brute != expected)
    _emit(payload)
    return code


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

    p = sub.add_parser("kappa", help="edge connectivity: closed form and/or oracle")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--graph", help="single graph: oracle kappa'")
    mode.add_argument("--factors", nargs=2, metavar=("G", "H"),
                      help="two factors: closed form vs oracle on the product")
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
                   help="also run the exhaustive definitional check: exit 1 "
                        "when it disagrees, 2 when over budget")
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
    except BudgetExceeded as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
