"""Verification campaigns: corpora, per-pair checks, reports, certificates.

A campaign crosses a corpus of first factors with a corpus of dense second
factors and runs the selected checks on every pair.  The oracle chooses each
pair's kappa' and its list of minimum cuts: max-flow and Picard-Queyranne
enumeration (``oracle = maxflow``), or the budgeted subset scan (``oracle =
subset``).  Every check ends in one verdict rule, ``_settle``: an observation
of None, which only the subset oracle's budget gives, is inconclusive; one
equal to the expectation is ok; anything else is a mismatch with a replayable
counterexample certificate, never an exception.

``theorem2`` first compares the closed form's value with kappa', the size of
the listed cuts, and then checks an equality of cut sets: the listed minimum
cuts of G x H must be exactly the ones Theorem 2 predicts, the stars of the
minimum-degree product vertices and the lifts of G's minimum cuts, each
where its bound attains the minimum.  Each listed cut reads its class off
one table of the predicted cuts; only an extra cut on an exceptional pair
(K_2, H_l) is handed to ``classify_min_cut``, and it must come back
exceptional.
"""

from __future__ import annotations

import json
import random
import sys
import time
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, Optional, TextIO

from . import __version__
from .catalog import all_graphs
from .dense import (
    CutClassificationError,
    CutVerdict,
    ExcludedCaseError,
    FormulaResult,
    _kappa_per_campaign,
    classify_min_cut,
    dense_precondition,
    exceptional_cut,
    is_exceptional_member,
    is_super_edge_connected_kn,
    kappa_formula,
    kappa_formula_kn,
)
from .graph6 import emit_graph6, load_graph6_file, parse_graph6
from .graphs import Edge, Graph, boundary, complete_graph
from .mincut import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    edge_connectivity,
    enumerate_min_cuts,
    enumerate_min_cuts_subset,
    is_vertex_star,
    min_st_cut,
)
from .product import (
    direct_product,
    fiber,
    format_product_cut,
    induced_cut,
    parse_product_cut,
    product_connected,
    vertex_id,
)

CHECK_NAMES = ("theorem1", "corollary1", "theorem2", "corollary2", "weichsel", "lemma2")


@dataclass(frozen=True)
class CampaignConfig:
    """What to verify and over which corpus.

    Sources are "enumerate" (internal non-isomorphic generation), a
    "random:COUNT[:MINDEG]" draw (COUNT >= 1), or a path to a graph6 file.
    ``enumeration_budget`` is the most 64-bit words that one subset-oracle
    scan may touch per pair; only ``oracle = subset`` reads it.
    """

    g_source: str = "enumerate"
    h_source: str = "enumerate"
    max_g_order: int = 5
    max_h_order: int = 5
    enumeration_budget: int = DEFAULT_BUDGET
    seed: int = 0
    checks: tuple[str, ...] = ("theorem1",)
    oracle: str = "maxflow"

    def __post_init__(self) -> None:
        if self.max_g_order < 2:
            raise ValueError("max_g_order must be >= 2")
        if self.max_h_order < 3:
            raise ValueError("max_h_order must be >= 3")
        if self.enumeration_budget < 0:
            raise ValueError("enumeration_budget must be >= 0")
        if not self.checks:
            raise ValueError("at least one check must be selected")
        unknown = set(self.checks) - set(CHECK_NAMES)
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
        if self.oracle not in ("maxflow", "subset"):
            raise ValueError("oracle must be 'maxflow' or 'subset'")
        _parse_source(self.g_source)
        _parse_source(self.h_source)
        ordered = tuple(c for c in CHECK_NAMES if c in self.checks)
        object.__setattr__(self, "checks", ordered)


def parse_checks(text: str) -> tuple[str, ...]:
    """A comma list of check names, blanks and empty items dropped."""
    return tuple(c.strip() for c in text.split(",") if c.strip())


def parse_config(text: str) -> CampaignConfig:
    """Flat key=value config text; '#' lines are comments, and a key may be
    set once, to a nonempty value.  The keys are the fields of
    ``CampaignConfig``, each parsed by the type of its default: int, str, or
    a comma list for ``checks``."""
    kinds = {f.name: type(f.default) for f in fields(CampaignConfig)}
    values: dict[str, object] = {}
    set_on: dict[str, int] = {}  # per key, the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno} is not key=value: {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in set_on:
            raise ValueError(f"config lines {set_on[key]} and {lineno} both set {key}")
        set_on[key] = lineno
        if key not in kinds:
            raise ValueError(f"unknown config key {key!r}")
        if not val:
            raise ValueError(f"config line {lineno}: {key} is empty")
        if kinds[key] is int:
            try:
                values[key] = int(val)
            except ValueError:
                raise ValueError(
                    f"config line {lineno}: {key} must be an integer, got {val!r}"
                ) from None
        elif kinds[key] is str:
            values[key] = val
        else:
            values[key] = parse_checks(val)
    return CampaignConfig(**values)


def load_config(path: str) -> CampaignConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())


# ---------------------------------------------------------------------------
# Corpus generation.

_SAMPLING_TRIES = 200_000


def random_graph_with_min_degree(
    n: int, min_degree: int, rng: random.Random,
    keep: Callable[[Graph], bool] = lambda g: True,
) -> Graph:
    """Rejection-sample a random graph that meets a degree floor and that
    ``keep`` accepts; ValueError when no draw does.  Edges have probability
    1/2, or under a floor (floor + n - 1) / (2(n - 1)), for an expected degree
    midway between the floor and n - 1."""
    if min_degree > n - 1:
        raise ValueError(f"infeasible degree constraint: {min_degree} on {n} vertices")
    p = (min_degree + n - 1) / (2 * (n - 1)) if min_degree else 0.5
    for _ in range(_SAMPLING_TRIES):
        edges = {
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < p
        }
        g = Graph(n, edges)
        if (n == 0 or g.min_degree() >= min_degree) and keep(g):
            return g
    raise ValueError(f"rejection sampling found no graph on {n} vertices with minimum "
                     f"degree >= {min_degree} that the corpus accepts in "
                     f"{_SAMPLING_TRIES} draws")


def _parse_source(src: str) -> tuple:
    if src == "enumerate":
        return ("enumerate",)
    if src.startswith("random:"):
        parts = src.split(":")[1:]
        if len(parts) > 2 or not all(p.isdecimal() for p in parts) or int(parts[0]) < 1:
            raise ValueError(
                f"bad random source {src!r}: expected random:COUNT[:MINDEG], COUNT >= 1")
        return ("random", int(parts[0]), int(parts[1]) if len(parts) == 2 else None)
    return ("file", src)


def _corpus(source: str, orders: range, keep: Callable[[Graph], bool],
            seed: int, floor: Callable[[int], int] = lambda n: 0) -> list[Graph]:
    """The graphs of ``source`` whose order is in ``orders`` and that ``keep``
    accepts, order by order; a random source draws ``seed``'s stream, with a
    degree floor of MINDEG or ``floor(n)``, whichever is larger."""
    kind, *args = _parse_source(source)
    if kind == "enumerate":
        return [g for n in orders for g in all_graphs(n) if keep(g)]
    if kind == "random":
        count, mindeg = args
        rng = random.Random(seed)
        return [random_graph_with_min_degree(n, max(mindeg or 0, floor(n)), rng, keep)
                for n in orders for _ in range(count)]
    return [g for g in load_graph6_file(args[0]) if g.n in orders and keep(g)]


def _g_corpus(config: CampaignConfig) -> list[Graph]:
    return _corpus(config.g_source, range(2, config.max_g_order + 1),
                   Graph.is_connected, config.seed)


def _h_corpus(config: CampaignConfig, dense_only: bool = True) -> list[Graph]:
    return _corpus(config.h_source, range(3, config.max_h_order + 1),
                   dense_precondition if dense_only else lambda h: True,
                   config.seed + 1, lambda n: n // 2 + 1 if dense_only else 0)


# ---------------------------------------------------------------------------
# Per-pair context and checks.  Each check takes the pair's context and
# returns a record dict with at least "status".

@dataclass
class _Pair:
    """One (G, H) pair and what its checks share, each computed once on use:
    the product, and kappa' and the minimum cuts by the configured oracle."""

    g: Graph
    h: Graph
    config: CampaignConfig

    @cached_property
    def product(self) -> Graph:
        return direct_product(self.g, self.h)

    @cached_property
    def oracle_kappa(self) -> Optional[int]:
        """kappa'(G x H) by the configured oracle; None when over budget.

        The subset oracle reads it off the cut list, so a pair runs one
        brute-force search whatever its checks.
        """
        if self.config.oracle == "maxflow":
            return edge_connectivity(self.product).value
        if not self.product.is_connected():
            return 0  # the empty cut; a cut list needs a connected product
        cuts = _cached_enumeration(self)
        return None if cuts is None else min(map(len, cuts), default=0)

    @cached_property
    def cuts(self) -> Optional[tuple[frozenset[Edge], ...]]:
        """The minimum cuts of G x H by the configured oracle; None when over
        budget."""
        if self.config.oracle == "maxflow":
            return enumerate_min_cuts(self.product).cuts
        try:
            return enumerate_min_cuts_subset(
                self.product, self.config.enumeration_budget).cuts
        except BudgetExceeded:
            return None


def _cached_enumeration(pair: _Pair) -> Optional[tuple[frozenset[Edge], ...]]:
    """The pair's minimum cuts, enumerated by the first check that asks.  The
    checks, and the subset oracle's kappa', read them only here, so a
    profiler can wrap this one function."""
    return pair.cuts


def _settle(rec: dict, pair: _Pair, check: str, expected, observed, **cuts: str) -> dict:
    """The verdict of every check: rec is inconclusive when the oracle gave
    no answer (observed is None), ok when observed equals expected, and
    otherwise a mismatch with a replayable certificate, to which ``cuts``
    adds product cuts in the text format."""
    if observed is None:
        rec["status"] = "inconclusive"
    elif observed == expected:
        rec["status"] = "ok"
    else:
        rec.update(status="mismatch", certificate={
            "check": check,
            "g": emit_graph6(pair.g),
            "h": emit_graph6(pair.h),
            "oracle": pair.config.oracle,
            "expected": expected,
            "observed": observed,
            **cuts,
        })
    return rec


def _check_theorem1(pair: _Pair) -> dict:
    res = kappa_formula(pair.g, pair.h)
    oracle = pair.oracle_kappa
    rec = {
        "formula": res.value,
        "branch": res.branch.value,
        "oracle": oracle,
    }
    return _settle(rec, pair, "theorem1", res.value, oracle)


def _check_corollary1(pair: _Pair) -> dict:
    """The complete-factor form must equal both the general form and the
    oracle."""
    n = pair.h.n
    kn = kappa_formula_kn(pair.g, n)
    general = kappa_formula(pair.g, pair.h)
    oracle = pair.oracle_kappa
    rec = {"n": n, "kn_value": kn.value, "formula": general.value, "oracle": oracle}
    observed = None if oracle is None else {"formula": general.value, "oracle": oracle}
    return _settle(rec, pair, "corollary1",
                   dict.fromkeys(("formula", "oracle"), kn.value), observed)


def _predicted_cuts(pair: _Pair, res: FormulaResult) -> dict[frozenset[Edge], CutVerdict]:
    """Theorem 2's minimum cuts of G x H outside (K_2, H_l), each keyed to
    its class.

    The lifts of G's minimum cuts when 2 kappa'(G) e(H) attains the minimum,
    and the stars of every (x, u) with deg x = delta(G) and deg u = delta(H)
    when delta(G)delta(H) does; both on a tie.  Stars go in last, so a cut
    that is both reads as a star.
    """
    g, h = pair.g, pair.h
    predicted: dict[frozenset[Edge], CutVerdict] = {}
    if res.factor_cut_bound == res.value:
        predicted.update({induced_cut(s, g, h): CutVerdict.INDUCED_BY_FACTOR_CUT
                          for s in enumerate_min_cuts(g).cuts})
    if res.degree_bound == res.value:
        dg, dh = g.min_degree(), h.min_degree()
        predicted.update({boundary(pair.product, 1 << vertex_id(x, u, h.n)):
                          CutVerdict.VERTEX_STAR
                          for x in range(g.n) if g.degree(x) == dg
                          for u in range(h.n) if h.degree(u) == dh})
    return predicted


def _unpredicted(pair: _Pair, cut: frozenset[Edge], exceptional_pair: bool) -> Optional[str]:
    """Why an enumerated cut outside the predicted set fails theorem2, or
    None when it is an exceptional cut, which only (K_2, H_l) may have.

    ``classify_min_cut`` raises ValueError on an edge set that is not a
    minimum cut, and that non-cut is certified.
    """
    if not exceptional_pair:
        return "unpredicted"
    try:
        verdict = classify_min_cut(pair.g, pair.h, cut).verdict
    except CutClassificationError:
        return "unclassifiable"
    except ValueError:
        return "not a minimum cut"
    return None if verdict is CutVerdict.EXCEPTIONAL else f"unpredicted {verdict.value}"


def _cut_set_failure(pair: _Pair, res: FormulaResult, cuts, rec: dict
                     ) -> Optional[tuple[object, object, dict[str, str]]]:
    """The first way the listed cuts differ from Theorem 2's, as (expected,
    observed, certificate cuts), or None; rec gets the verdict counts."""
    h, exceptional_pair = pair.h, rec["exceptional_pair"]
    predicted = _predicted_cuts(pair, res)
    counts = rec["verdicts"] = {v.value: 0 for v in CutVerdict}
    for cut in cuts:
        verdict = predicted.get(cut)
        if verdict is None:
            observed = _unpredicted(pair, cut, exceptional_pair)
            if observed is not None:
                return ("predicted or exceptional", observed,
                        {"cut": format_product_cut(cut, h.n)})
            verdict = CutVerdict.EXCEPTIONAL
        counts[verdict.value] += 1
    missing = predicted.keys() - cuts
    if missing:
        return ("every predicted cut", f"{len(missing)} missing",
                {"missing": format_product_cut(min(missing, key=sorted), h.n)})
    if exceptional_pair:
        product, canonical = exceptional_cut(is_exceptional_member(h))
        if product == pair.product:
            rec["canonical_cut_seen"] = canonical in cuts
        if counts[CutVerdict.EXCEPTIONAL.value] == 0:
            return "at least one exceptional cut", counts, {}
    return None


def _check_theorem2(pair: _Pair) -> dict:
    g, h = pair.g, pair.h
    cuts = _cached_enumeration(pair)
    if cuts is None:
        return _settle({"kappa": None}, pair, "theorem2", None, None)
    # an empty list, which only a faulty engine gives, reads as kappa' 0
    kappa = min(map(len, cuts), default=0)
    rec: dict = {"kappa": kappa, "cuts": len(cuts),
                 "exceptional_pair": g == complete_graph(2)
                 and is_exceptional_member(h) is not None}
    # the closed form comes first: classify_min_cut measures cuts against it
    res = kappa_formula(g, h)
    failure = _cut_set_failure(pair, res, cuts, rec) if res.value == kappa else None
    expected, observed, where = failure or (res.value, kappa, {})
    return _settle(rec, pair, "theorem2", expected, observed, **where)


def _check_corollary2(pair: _Pair) -> dict:
    n = pair.h.n
    cuts = _cached_enumeration(pair)
    brute = None if cuts is None else all(
        is_vertex_star(pair.product, c) is not None for c in cuts)
    rec: dict = {"n": n, "bruteforce": brute}
    try:
        predicted = expected = is_super_edge_connected_kn(pair.g, n)
    except ExcludedCaseError as exc:
        rec["excluded"], predicted, expected = True, None, exc.bruteforce_answer
    rec["predicted"] = predicted
    return _settle(rec, pair, "corollary2", expected, brute)


def _check_weichsel(pair: _Pair) -> dict:
    predicted = product_connected(pair.g, pair.h)
    actual = pair.product.is_connected()
    return _settle({"predicted": predicted, "traversal": actual},
                   pair, "weichsel", predicted, actual)


def _check_lemma2(pair: _Pair) -> dict:
    """Lemma 2, exactly: no cut of fewer than b = delta(G)delta(H) edges splits
    an H-fiber.  By Menger's theorem that holds when each vertex of a fiber
    has local edge connectivity at least b to the fiber's first vertex, since
    lambda(a, c) >= min(lambda(a, s), lambda(s, c)).  A cut below b is the
    certificate.  ``flows`` counts the max-flows run: |G|(|H|-1) when no
    fiber splits, fewer when one does."""
    g, h = pair.g, pair.h
    bound = g.min_degree() * h.min_degree()
    rec: dict = {"bound": bound, "flows": 0}
    for x in range(g.n):
        s, *rest = fiber(x, h.n)
        for t in rest:
            rec["flows"] += 1
            cut = min_st_cut(pair.product, s, t, limit=bound)
            if cut is not None:
                return _settle(rec, pair, "lemma2", "fibers contained", "fiber split",
                               cut=format_product_cut(cut.witness, h.n))
    return _settle(rec, pair, "lemma2", "fibers contained", "fibers contained")


_CHECK_FUNCS = {
    "theorem1": _check_theorem1,
    "corollary1": _check_corollary1,
    "theorem2": _check_theorem2,
    "corollary2": _check_corollary2,
    "weichsel": _check_weichsel,
    "lemma2": _check_lemma2,
}


# ---------------------------------------------------------------------------
# Campaign runner and reports.

@dataclass
class VerificationReport:
    records: list[dict]
    summary: dict

    @property
    def exit_code(self) -> int:
        if self.summary["mismatches"] > 0:
            return 1
        if self.summary["inconclusive"] > 0:
            return 2
        return 0


# The second factors of each check, drawn from the h_source on 3..max_h_order.
_SECOND_FACTOR = {"theorem1": "dense graph", "corollary1": "complete graph",
                  "theorem2": "dense graph", "corollary2": "complete graph",
                  "weichsel": "graph", "lemma2": "dense graph"}


def run_campaign(config: CampaignConfig) -> VerificationReport:
    """Records come check by check, each check numbering its pairs G-major.

    The loop runs G outermost, so the checks share each pair's context and
    it lives only while its G is current.  kappa' of each G is computed once
    for the campaign (``dense._kappa_per_campaign``).  A campaign in which
    some check would get no pair is bad input: ValueError names the check
    and the source that left it without a factor.
    """
    g_list = _g_corpus(config)
    if not g_list:
        raise ValueError(f"no first factor for {', '.join(config.checks)}: g_source "
                         f"{config.g_source!r} holds no connected graph on "
                         f"2..{config.max_g_order} vertices")
    h_dense = _h_corpus(config, dense_only=True)
    by_kind = {
        "dense graph": h_dense,
        "complete graph": [h for h in h_dense if h == complete_graph(h.n)],
        "graph": _h_corpus(config, dense_only=False) if "weichsel" in config.checks else [],
    }
    second_factors = {check: by_kind[_SECOND_FACTOR[check]] for check in config.checks}
    for check, hs in second_factors.items():
        if not hs:
            raise ValueError(f"no second factor for {check}: h_source "
                             f"{config.h_source!r} holds no {_SECOND_FACTOR[check]} on "
                             f"3..{config.max_h_order} vertices")
    per_check: dict[str, list[dict]] = {check: [] for check in config.checks}
    with _kappa_per_campaign():
        for g in g_list:
            pairs: dict[Graph, _Pair] = {}
            for check, hs in second_factors.items():
                out = per_check[check]
                for h in hs:
                    pair = pairs.setdefault(h, _Pair(g, h, config))
                    t0 = time.perf_counter()
                    rec = _CHECK_FUNCS[check](pair)
                    rec["ms"] = int(round((time.perf_counter() - t0) * 1000))
                    rec.update(record="instance", check=check, pair=len(out),
                               g=emit_graph6(g), h=emit_graph6(h))
                    out.append(rec)
    records = [rec for recs in per_check.values() for rec in recs]
    summary = {
        "record": "summary",
        "instances": len(records),
        "checks": list(config.checks),
        "mismatches": sum(rec["status"] == "mismatch" for rec in records),
        "inconclusive": sum(rec["status"] == "inconclusive" for rec in records),
        "exceptional_sightings": sum(
            rec.get("verdicts", {}).get(CutVerdict.EXCEPTIONAL.value, 0)
            for rec in per_check.get("theorem2", [])
        ),
        "seed": config.seed,
        "budget": config.enumeration_budget,
        "max_g_order": config.max_g_order,
        "max_h_order": config.max_h_order,
        "oracle": config.oracle,
        "g_source": config.g_source,
        "h_source": config.h_source,
        "tensorcut_version": __version__,
        "python_version": sys.version.split()[0],
    }
    return VerificationReport(records, summary)


_CSV_COLUMNS = ("record", "check", "pair", "g", "h", "status", "ms", "details")
_CSV_SKIP = set(_CSV_COLUMNS) - {"details"}


# json.dumps with separators would build an encoder per record
_COMPACT_JSON = json.JSONEncoder(separators=(",", ":"))


def write_jsonl(report: VerificationReport, stream: TextIO) -> None:
    """One compact JSON object per line, without spaces after separators:
    the records, then the summary."""
    for rec in report.records + [report.summary]:
        stream.write(_COMPACT_JSON.encode(rec) + "\n")


def write_csv(report: VerificationReport, stream: TextIO) -> None:
    import csv

    writer = csv.DictWriter(stream, fieldnames=_CSV_COLUMNS)
    writer.writeheader()
    for rec in report.records + [report.summary]:
        row = {k: rec.get(k, "") for k in _CSV_COLUMNS if k != "details"}
        details = {k: v for k, v in rec.items() if k not in _CSV_SKIP}
        row["details"] = json.dumps(details, sort_keys=True)
        writer.writerow(row)


def replay_certificate(cert: dict, budget: int = DEFAULT_BUDGET) -> dict:
    """Re-run the check a certificate came from, with its "oracle" (default
    max-flow), on its own graph6 payloads.

    Returns the fresh observations plus a "reproduced" flag that is True when
    the check fails again.  A recorded theorem2 ``cut`` is also classified
    anew by ``classify_min_cut``, and its "verdict" is reported next to the
    re-run.  Raises BudgetExceeded when the re-run does not fit the budget.
    """
    check = cert["check"]
    config = CampaignConfig(checks=(check,), oracle=cert.get("oracle", "maxflow"),
                            enumeration_budget=budget)
    pair = _Pair(parse_graph6(cert["g"]), parse_graph6(cert["h"]), config)
    rec = _CHECK_FUNCS[check](pair)
    if rec["status"] == "inconclusive":
        raise BudgetExceeded(f"replaying {check} does not fit the budget {budget}")
    out = {"check": check, **rec, "reproduced": rec["status"] == "mismatch"}
    if check == "theorem2" and "cut" in cert:
        try:
            cut = parse_product_cut(cert["cut"], pair.g.n, pair.h.n)
            out["verdict"] = classify_min_cut(pair.g, pair.h, cut).verdict.value
        except CutClassificationError:
            out["verdict"] = "unclassifiable"
        except ValueError as exc:
            out["verdict"] = str(exc)
    return out
