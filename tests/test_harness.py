import csv
import dataclasses
import io
import json
import platform
import time
from collections import Counter

import pytest

import tensorcut
from tensorcut import cli, dense, harness, mincut
from tensorcut.catalog import is_isomorphic
from tensorcut.dense import (
    CutClassificationError,
    CutVerdict,
    classify_min_cut,
    dense_precondition,
    exceptional_cut,
    exceptional_member,
    kappa_formula,
)
from tensorcut.graph6 import emit_graph6, parse_graph6
from tensorcut.graphs import complete_graph, cycle_graph, disjoint_union, path_graph, remove_edges
from tensorcut.harness import (
    CHECK_NAMES,
    CampaignConfig,
    VerificationReport,
    _g_corpus,
    _h_corpus,
    load_config,
    parse_config,
    random_graph_with_min_degree,
    replay_certificate,
    run_campaign,
    run_check,
    write_csv,
    write_jsonl,
)
from tensorcut.mincut import BudgetExceeded
from tensorcut.product import (
    direct_product,
    fibers_contained,
    format_product_cut,
    parse_product_cut,
)
from test_dense import bridged
from test_mincut import over_budget


def strip_ms(records):
    return [{k: v for k, v in r.items() if k != "ms"} for r in records]


def test_config_defaults_and_validation():
    cfg = CampaignConfig()
    assert cfg.max_g_order == 5 and cfg.max_h_order == 5
    assert cfg.enumeration_budget == 5_000_000
    with pytest.raises(ValueError):
        CampaignConfig(max_g_order=1)
    with pytest.raises(ValueError):
        CampaignConfig(max_h_order=2)
    with pytest.raises(ValueError):
        CampaignConfig(checks=())
    with pytest.raises(ValueError):
        CampaignConfig(checks=("bogus",))
    with pytest.raises(ValueError):
        CampaignConfig(enumeration_budget=-1)
    with pytest.raises(ValueError):
        CampaignConfig(oracle="magic")


def test_config_rejects_a_bare_check_string():
    # a string is a sequence of letters, and would be read as one check each
    with pytest.raises(ValueError, match="^checks must be a sequence of check names, "
                                         "not the string 'theorem1'$"):
        CampaignConfig(checks="theorem1")


def test_config_checks_are_canonically_ordered():
    cfg = CampaignConfig(checks=("weichsel", "theorem1"))
    assert cfg.checks == ("theorem1", "weichsel")


def test_parse_config():
    text = """
    # a comment
    max_g_order = 3
    max_h_order = 4
    checks = theorem2, weichsel
    seed = 11
    enumeration_budget = 1000
    """
    cfg = parse_config(text)
    assert cfg.max_g_order == 3
    assert cfg.checks == ("theorem2", "weichsel")
    assert cfg.seed == 11
    assert cfg.enumeration_budget == 1000
    with pytest.raises(ValueError):
        parse_config("not a config line")
    with pytest.raises(ValueError):
        parse_config("unknown_key = 3")


def test_every_config_field_is_a_config_key():
    # one non-default value per field of CampaignConfig, so a new field
    # needs a row here; each set by one line parses to the same config
    values = {"g_source": "random:3", "h_source": "random:2:1", "max_g_order": 4,
              "max_h_order": 6, "enumeration_budget": 1000, "seed": 7,
              "checks": ("lemma2", "theorem2"), "oracle": "subset"}
    assert list(values) == [f.name for f in dataclasses.fields(CampaignConfig)]
    for key, value in values.items():
        text = ", ".join(value) if isinstance(value, tuple) else str(value)
        cfg = parse_config(f"{key} = {text}\n")
        assert cfg == CampaignConfig(**{key: value}) != CampaignConfig(), key


def test_config_errors_name_their_source():
    with pytest.raises(ValueError, match="line 2: max_g_order") as err:
        parse_config("seed = 1\nmax_g_order = x\n")
    assert "invalid literal" not in str(err.value)
    for source in ("random:", "random:x", "random:1:2:3", "random:0", "random:0:2"):
        with pytest.raises(ValueError, match=f"bad random source '{source}'"):
            CampaignConfig(g_source=source)
        with pytest.raises(ValueError, match=f"bad random source '{source}'"):
            CampaignConfig(h_source=source)


def test_config_rejects_a_repeated_key(tmp_path, capsys):
    # the second value would silently win; verify exits 2 before any campaign
    text = "seed = 1\nmax_g_order = 3\n# max_g_order = 5\nmax_g_order=4\n"
    message = "config lines 2 and 4 both set max_g_order"
    with pytest.raises(ValueError, match=message):
        parse_config(text)
    path = tmp_path / "c.cfg"
    path.write_text(text)
    assert cli.main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_config_rejects_an_empty_value():
    # an empty value is bad input named by key and line, for every known key
    for key in ("g_source", "h_source", "oracle", "checks", "seed", "max_g_order"):
        with pytest.raises(ValueError, match=f"^config line 2: {key} is empty$"):
            parse_config(f"max_h_order = 4\n{key} =\n")
        with pytest.raises(ValueError, match=f"^config line 1: {key} is empty$"):
            parse_config(f"  {key}=  \t\n")
    with pytest.raises(ValueError, match="unknown config key 'bogus'"):
        parse_config("bogus =\n")


def test_load_config(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("max_h_order = 4\nchecks = theorem1\n")
    assert load_config(str(path)).max_h_order == 4


def test_dense_h_corpus_small_orders():
    cfg = CampaignConfig(max_h_order=4)
    hs = _h_corpus(cfg)
    assert len(hs) == 2
    assert is_isomorphic(hs[0], complete_graph(3))
    assert is_isomorphic(hs[1], complete_graph(4))
    # order 5 adds exactly the three graphs with minimum degree 3
    hs5 = _h_corpus(CampaignConfig(max_h_order=5))
    assert len(hs5) == 5
    assert all(dense_precondition(h) for h in hs5)
    assert sorted(h.edge_count() for h in hs5) == [3, 6, 8, 9, 10]


def test_g_corpus_counts():
    cfg = CampaignConfig(max_g_order=5)
    gs = _g_corpus(cfg)
    assert len(gs) == 1 + 2 + 6 + 21
    assert all(g.is_connected() for g in gs)


def test_campaign_numbers_pairs_g_major():
    cfg = CampaignConfig(max_g_order=3, max_h_order=4, checks=CHECK_NAMES)
    gs = [emit_graph6(g) for g in _g_corpus(cfg)]
    dense = [emit_graph6(h) for h in _h_corpus(cfg)]
    every = [emit_graph6(h) for h in _h_corpus(cfg, dense_only=False)]
    complete = [emit_graph6(complete_graph(n)) for n in (3, 4)]
    seconds = {"weichsel": every, "corollary1": complete, "corollary2": complete}
    records = run_campaign(cfg).records
    for check in CHECK_NAMES:
        got = [(r["pair"], r["g"], r["h"]) for r in records if r["check"] == check]
        pairs = [(g, h) for g in gs for h in seconds.get(check, dense)]
        assert got == [(pid, g, h) for pid, (g, h) in enumerate(pairs)]
    # records come check by check, in the canonical check order
    order = [r["check"] for r in records]
    assert order == sorted(order, key=CHECK_NAMES.index)


def test_checks_share_pairs_without_changing_records():
    cfg = CampaignConfig(max_g_order=3, max_h_order=4, checks=CHECK_NAMES)
    together = strip_ms(run_campaign(cfg).records)
    for check in CHECK_NAMES:
        alone = run_campaign(CampaignConfig(max_g_order=3, max_h_order=4, checks=(check,)))
        assert strip_ms(alone.records) == [r for r in together if r["check"] == check]


def test_random_sources_reproducible():
    cfg = CampaignConfig(g_source="random:2", h_source="random:2:2",
                         max_g_order=4, max_h_order=4, seed=9)
    a = [emit_graph6(g) for g in _g_corpus(cfg)]
    b = [emit_graph6(g) for g in _g_corpus(cfg)]
    assert a == b
    ha = [emit_graph6(h) for h in _h_corpus(cfg)]
    hb = [emit_graph6(h) for h in _h_corpus(cfg)]
    assert ha == hb
    assert all(dense_precondition(h) for h in _h_corpus(cfg))


def test_random_dense_factors_reach_order_16():
    # each edge is drawn with probability (floor + n - 1) / (2(n - 1)), the
    # floor n // 2 + 1 of a dense H, so a draw passes the filter often
    cfg = CampaignConfig(h_source="random:2", max_g_order=2, max_h_order=16, seed=3)
    t0 = time.perf_counter()
    hs = _h_corpus(cfg)
    assert time.perf_counter() - t0 < 1.0
    assert [h.n for h in hs] == [n for n in range(3, 17) for _ in range(2)]
    assert all(dense_precondition(h) for h in hs)
    assert [emit_graph6(h) for h in _h_corpus(cfg)] == [emit_graph6(h) for h in hs]
    other = dataclasses.replace(cfg, seed=4)
    assert [emit_graph6(h) for h in _h_corpus(other)] != [emit_graph6(h) for h in hs]


def test_random_infeasible_degree():
    import random

    with pytest.raises(ValueError):
        random_graph_with_min_degree(3, 5, random.Random(0))


def test_sampling_failure_is_bad_input(monkeypatch):
    import random

    monkeypatch.setattr(harness, "_SAMPLING_TRIES", 10)
    with pytest.raises(ValueError, match="no graph on 3 vertices with minimum degree >= 0"):
        random_graph_with_min_degree(3, 0, random.Random(0), keep=lambda g: False)


def vacuous_configs(tmp_path):
    """(config, message) for campaigns in which a check would get no pair:
    first factors only above max_g_order, second factors none of them dense,
    and dense second factors none of them complete."""
    files = {"k7": complete_graph(7), "c6": cycle_graph(6),
             "k5e": remove_edges(complete_graph(5), [(0, 1)])}
    for name, graph in files.items():
        (tmp_path / f"{name}.g6").write_text(emit_graph6(graph) + "\n")
    k7, c6, k5e = (str(tmp_path / f"{name}.g6") for name in files)
    return [
        (CampaignConfig(g_source=k7, max_g_order=5, checks=("theorem1",)),
         f"no first factor for theorem1: g_source {k7!r} holds no connected "
         "graph on 2..5 vertices"),
        (CampaignConfig(h_source=c6, max_h_order=6, checks=("theorem1",)),
         f"no second factor for theorem1: h_source {c6!r} holds no dense "
         "graph on 3..6 vertices"),
        (CampaignConfig(h_source=k5e, checks=("theorem1", "corollary1")),
         f"no second factor for corollary1: h_source {k5e!r} holds no "
         "complete graph on 3..5 vertices"),
    ]


def test_vacuous_campaign_is_bad_input(tmp_path):
    # a campaign with 0 instances would pass without checking anything
    for config, message in vacuous_configs(tmp_path):
        with pytest.raises(ValueError) as exc:
            run_campaign(config)
        assert str(exc.value) == message
    k5e = vacuous_configs(tmp_path)[2][0]
    report = run_campaign(dataclasses.replace(k5e, checks=("theorem1",)))
    assert report.summary["instances"] == 30  # connected G on 2..5 x K_5 - e


def test_file_source(tmp_path):
    path = tmp_path / "corpus.g6"
    path.write_text("Bw\nC~\nA_\n")  # K3, K4, K2
    cfg = CampaignConfig(g_source=str(path), max_g_order=4)
    gs = _g_corpus(cfg)
    assert len(gs) == 3
    hcfg = CampaignConfig(h_source=str(path), max_h_order=4)
    hs = _h_corpus(hcfg)
    assert len(hs) == 2  # K2 fails order bound, K3 and K4 are dense


def test_small_campaign_all_checks_pass():
    cfg = CampaignConfig(max_g_order=3, max_h_order=4,
                         checks=CHECK_NAMES, seed=3)
    report = run_campaign(cfg)
    assert report.summary["mismatches"] == 0
    assert report.summary["inconclusive"] == 0
    assert report.exit_code == 0
    assert report.summary["instances"] == len(report.records)
    # determinism modulo timings
    again = run_campaign(cfg)
    assert strip_ms(report.records) == strip_ms(again.records)


def test_theorem2_exceptional_pair_report():
    cfg = CampaignConfig(max_g_order=2, max_h_order=3, checks=("theorem2",))
    report = run_campaign(cfg)
    (rec,) = report.records
    assert rec["status"] == "ok"
    assert rec["cuts"] == 15
    assert rec["verdicts"]["exceptional"] == 9
    assert rec["verdicts"]["vertex_star"] == 6
    assert rec["canonical_cut_seen"] is True
    assert report.summary["exceptional_sightings"] == 9


def test_theorem2_membership_agrees_with_per_cut_classification():
    # the slow oracle: classify_min_cut rebuilds the product and kappa'(G)
    # and recovers each cut's class anew
    cfg = CampaignConfig(max_g_order=4, max_h_order=5, checks=("theorem2",))
    pairs = [(g, h) for g in _g_corpus(cfg) for h in _h_corpus(cfg)]
    # no G on fewer than 8 vertices has delta(G) >= 3 kappa'(G), which a
    # lift needs; these two attain 2 kappa'(G) e(H) in a tie and alone
    pairs += [(bridged(complete_graph(4)), complete_graph(3)),
              (bridged(complete_graph(5)), complete_graph(3))]
    totals: Counter = Counter()
    for g, h in pairs:
        pair = harness._Pair(g, h, cfg)
        rec = harness._check_theorem2(pair)
        assert rec["status"] == "ok"
        cuts = set(harness._cached_enumeration(pair))
        slow = Counter(classify_min_cut(g, h, c).verdict for c in cuts)
        assert rec["verdicts"] == {v.value: slow[v] for v in CutVerdict}
        totals += slow
        predicted = harness._predicted_cuts(pair, kappa_formula(g, h))
        assert all(classify_min_cut(g, h, c).verdict is v for c, v in predicted.items())
        assert predicted.keys() <= cuts
        if rec["exceptional_pair"]:
            assert (g, h) == (complete_graph(2), complete_graph(3))
        else:
            assert predicted.keys() == cuts
    assert totals[CutVerdict.INDUCED_BY_FACTOR_CUT] == 2
    assert totals[CutVerdict.EXCEPTIONAL] == 9


def test_theorem2_campaign_reaches_the_lift_branch(tmp_path):
    # no enumerated G below 8 vertices has a lift among its product's
    # minimum cuts, so the campaign gets bridged blocks from a graph6 file
    path = tmp_path / "bridged.g6"
    path.write_text("".join(emit_graph6(bridged(complete_graph(n))) + "\n"
                            for n in (4, 5)))
    cfg = CampaignConfig(g_source=str(path), max_g_order=10, max_h_order=4,
                         checks=("theorem2",))
    report = run_campaign(cfg)
    assert report.exit_code == 0
    assert [r["status"] for r in report.records] == ["ok"] * 4
    # bridged K_4 x K_4 has no lift: delta(G) delta(H) = 9 < 2 kappa'(G) e(H) = 12
    lifts = [r["verdicts"]["induced_by_factor_cut"] for r in report.records]
    assert sorted(lifts) == [0, 1, 1, 1]


def test_missing_cut_certificate_replays_the_check(monkeypatch):
    monkeypatch.setattr(harness, "enumerate_min_cuts",
                        _drop_last_cut(harness.enumerate_min_cuts))
    pair = harness._Pair(path_graph(3), complete_graph(4),
                         CampaignConfig(checks=("theorem2",)))
    rec = harness._check_theorem2(pair)
    assert rec["status"] == "mismatch"
    cert = rec["certificate"]
    assert "cut" not in cert
    # the dropped cut is a valid minimum cut, so classifying it again could
    # not reproduce the mismatch: replay has to re-run the check
    missing = parse_product_cut(cert["missing"], pair.g.n, 4)
    assert classify_min_cut(pair.g, pair.h, missing).verdict is CutVerdict.VERTEX_STAR
    out = replay_certificate(cert)
    assert out["reproduced"] is True
    assert out["certificate"] == cert


def test_theorem2_certificate_names_the_least_missing_cut(monkeypatch):
    # an engine that drops the last two of the 8 predicted stars of P_3 x
    # K_4: the certificate counts both and names the lesser by sorted edge
    # list, the star of (2, 3)
    real = harness.enumerate_min_cuts
    monkeypatch.setattr(harness, "enumerate_min_cuts",
                        lambda g: mincut.CutEnumeration(real(g).cuts[:-2]))
    rec = run_check("theorem2", path_graph(3), complete_graph(4))
    assert rec == {"kappa": 3, "cuts": 6, "exceptional_pair": False,
                   "verdicts": {"induced_by_factor_cut": 0, "vertex_star": 6,
                                "exceptional": 0},
                   "status": "mismatch",
                   "certificate": {"check": "theorem2", "g": "Bg", "h": "C~",
                                   "oracle": "maxflow",
                                   "expected": "every predicted cut",
                                   "observed": "2 missing",
                                   "missing": "1,0 2,3\n1,1 2,3\n1,2 2,3"}}
    assert replay_certificate(rec["certificate"])["reproduced"]


# Blocks joined by a bridge x K_3 reach the factor-cut side of Corollaries 1
# and 2, which no pair of the desk campaign does: each record under max-flow
FACTOR_CUT_PAIRS = [
    # two K_5: kappa' = n(n-1) kappa'(G) = 6, below delta(G)delta(H) = 8
    ("corollary1", 5, {"n": 3, "kn_value": 6, "formula": 6, "oracle": 6, "status": "ok"}),
    # two triangles: (n-1) delta(G) = 4 against n(n-1) kappa'(G) = 6
    ("corollary1", 3, {"n": 3, "kn_value": 4, "formula": 4, "oracle": 4, "status": "ok"}),
    # two K_4: the tie n kappa'(G) = delta(G) = 3, so not super edge connected
    ("corollary2", 4, {"n": 3, "bruteforce": False, "predicted": False, "status": "ok"}),
]


@pytest.mark.parametrize("check, block, record", FACTOR_CUT_PAIRS,
                         ids=[f"{c}-bridged-K{b}" for c, b, _ in FACTOR_CUT_PAIRS])
def test_factor_cut_branch_records(check, block, record):
    assert run_check(check, bridged(complete_graph(block)), complete_graph(3)) == record


def test_weichsel_check_covers_bipartite_pairs():
    cfg = CampaignConfig(max_g_order=2, max_h_order=4, checks=("weichsel",))
    report = run_campaign(cfg)
    # g = K2 against every graph on 3..4 vertices, bipartite ones included
    assert len(report.records) == 4 + 11
    assert report.summary["mismatches"] == 0
    disconnected = [r for r in report.records if r["traversal"] is False]
    assert disconnected  # bipartite x bipartite really occurs


def test_inconclusive_exit_code():
    # only the subset oracle has a budget to run out of; under it theorem1 and
    # corollary1 read its kappa', and theorem2 and corollary2 its cut list
    cfg = CampaignConfig(max_g_order=2, max_h_order=3,
                         checks=("theorem1", "corollary1", "theorem2", "corollary2"),
                         oracle="subset", enumeration_budget=1)
    report = run_campaign(cfg)
    assert [r["status"] for r in report.records] == ["inconclusive"] * 4
    observed = ("oracle", "oracle", "kappa", "bruteforce")
    assert [r[key] for r, key in zip(report.records, observed)] == [None] * 4
    assert report.summary["inconclusive"] == 4
    assert report.exit_code == 2
    cfg = dataclasses.replace(cfg, oracle="maxflow")
    assert [r["status"] for r in run_campaign(cfg).records] == ["ok"] * 4


def test_pairs_enumerate_once(monkeypatch):
    enumerated, flows = [], []
    real_enum, real_flow = harness.enumerate_min_cuts, mincut.edge_connectivity

    def counting_enum(product):
        enumerated.append(product)
        return real_enum(product)

    def counting_flow(g):
        flows.append(g)
        return real_flow(g)

    monkeypatch.setattr(harness, "enumerate_min_cuts", counting_enum)
    monkeypatch.setattr(harness, "edge_connectivity", counting_flow)
    monkeypatch.setattr(mincut, "edge_connectivity", counting_flow)
    cfg = CampaignConfig(max_g_order=3, max_h_order=4, enumeration_budget=5,
                         checks=("theorem2", "corollary2"))
    report = run_campaign(cfg)
    assert len(report.records) == 12
    assert all(r["status"] == "ok" for r in report.records)
    # theorem2 enumerates each of the 6 pairs once and corollary2 reuses it;
    # kappa' is read off the cut list, so no max-flow of its own runs
    assert len(enumerated) == len(set(enumerated)) == 6
    assert flows == []


def test_kappa_of_each_first_factor_runs_once_per_campaign(monkeypatch):
    # the closed form, the complete-factor form and the criterion all read
    # kappa'(G); in a campaign each G gets one max-flow, outside one each call
    flows = []
    real_flow = mincut.edge_connectivity

    def counting_flow(g):
        flows.append(g)
        return real_flow(g)

    for module in (harness, dense, mincut):
        monkeypatch.setattr(module, "edge_connectivity", counting_flow)
    cfg = CampaignConfig(max_g_order=3, max_h_order=4,
                         checks=("theorem1", "corollary1", "corollary2"))
    g_list = _g_corpus(cfg)
    report = run_campaign(cfg)
    assert len(report.records) == 18
    assert all(r["status"] == "ok" for r in report.records)
    assert [g for g in flows if g in g_list] == g_list
    flows.clear()
    g, h = g_list[-1], complete_graph(4)
    assert kappa_formula(g, h) == kappa_formula(g, h)
    assert flows == [g, g]


def test_kappa_memo_ends_with_its_campaign(monkeypatch):
    cfg = CampaignConfig(max_g_order=3, max_h_order=4, checks=("theorem1",))
    g_list = _g_corpus(cfg)
    assert run_campaign(cfg).summary["mismatches"] == 0
    # a fault brought in between campaigns reaches each G's kappa' in the next
    shifted, factors = _off_by_one(harness.edge_connectivity), []

    def wrong(g):
        if g in g_list:
            factors.append(g)
        return shifted(g)

    for module in (harness, dense):
        monkeypatch.setattr(module, "edge_connectivity", wrong)
    report = run_campaign(cfg)
    assert factors == g_list
    assert len(report.records) == report.summary["mismatches"] == 6
    certs = [r["certificate"] for r in report.records]
    assert (certs[0]["expected"], certs[0]["observed"]) == (2, 3)
    assert all(replay_certificate(cert)["reproduced"] for cert in certs)


def test_kappa_memo_ends_when_its_campaign_raises(monkeypatch):
    def broken(pair):
        raise RuntimeError("check failed")

    monkeypatch.setitem(harness._CHECK_FUNCS, "theorem1", broken)
    with pytest.raises(RuntimeError):
        run_campaign(CampaignConfig(max_g_order=3, max_h_order=4, checks=("theorem1",)))
    flows = []
    real_flow = dense.edge_connectivity
    monkeypatch.setattr(dense, "edge_connectivity",
                        lambda g: flows.append(g) or real_flow(g))
    g, h = complete_graph(3), complete_graph(4)
    kappa_formula(g, h)
    kappa_formula(g, h)
    assert flows == [g, g]


def test_exit_code_on_mismatch():
    report = VerificationReport(records=[], summary={
        "mismatches": 2, "inconclusive": 0,
    })
    assert report.exit_code == 1


def test_jsonl_and_csv_emission():
    cfg = CampaignConfig(max_g_order=2, max_h_order=3,
                         checks=("theorem1", "weichsel"))
    report = run_campaign(cfg)
    buf = io.StringIO()
    write_jsonl(report, buf)
    lines = buf.getvalue().strip().splitlines()
    parsed = [json.loads(line) for line in lines]
    assert parsed[-1]["record"] == "summary"
    assert parsed[-1]["oracle"] == "maxflow"
    assert parsed[-1]["g_source"] == parsed[-1]["h_source"] == "enumerate"
    assert parsed[-1]["tensorcut_version"] == tensorcut.__version__
    assert parsed[-1]["python_version"] == platform.python_version()
    assert all(rec["record"] == "instance" for rec in parsed[:-1])
    # compact JSON: no space after a separator
    assert lines == [json.dumps(rec, separators=(",", ":")) for rec in parsed]

    buf = io.StringIO()
    write_csv(report, buf)
    rows = list(csv.DictReader(io.StringIO(buf.getvalue())))
    assert len(rows) == len(report.records) + 1
    assert rows[-1]["record"] == "summary"
    details = json.loads(rows[0]["details"])
    assert "status" not in details  # surfaced as a plain column
    assert rows[0]["status"] == "ok"


@pytest.mark.parametrize("oracle", ["maxflow", "subset"])
def test_run_check_gives_the_campaign_record(oracle):
    # one check on one pair reads as its campaign record, less the fields
    # that place it in the campaign
    report = run_campaign(CampaignConfig(max_g_order=3, max_h_order=4,
                                         checks=CHECK_NAMES, oracle=oracle))
    placed = ("record", "check", "pair", "g", "h", "ms")
    for rec in report.records:
        alone = run_check(rec["check"], parse_graph6(rec["g"]), parse_graph6(rec["h"]),
                          oracle)
        assert alone == {k: v for k, v in rec.items() if k not in placed}


def test_replay_consistent_record():
    cert = {"check": "theorem1", "g": "A_", "h": "Bw"}
    out = replay_certificate(cert)
    assert out["formula"] == out["oracle"] == 2
    assert out["reproduced"] is False


def test_replay_reproduces_synthetic_mismatch():
    # (K_2, P_3) lies outside Lemma 2's hypothesis: bipartite x bipartite is
    # disconnected, so the empty cut already splits a fiber
    pair = harness._Pair(complete_graph(2), path_graph(3), CampaignConfig())
    rec = harness._check_lemma2(pair)
    assert rec["status"] == "mismatch" and rec["bound"] == 1
    assert rec["flows"] == 1  # the first fiber flow splits, and no other runs
    cut = parse_product_cut(rec["certificate"]["cut"], pair.g.n, 3)
    assert len(cut) < rec["bound"]
    assert fibers_contained(pair.g, pair.h, cut) is False  # independent oracle
    assert replay_certificate(rec["certificate"])["reproduced"] is True


def test_replay_theorem2_certificate():
    _, cut = exceptional_cut(1)
    cert = {
        "check": "theorem2",
        "g": "A_",
        "h": "Bw",
        "cut": format_product_cut(cut, 3),
    }
    out = replay_certificate(cert)
    assert out["verdict"] == "exceptional"
    assert out["reproduced"] is False


def test_replay_reports_a_malformed_cut_as_the_verdict():
    cert = {"check": "theorem2", "g": "A_", "h": "Bw", "cut": "0,0 1,1\n0,0 nonsense"}
    out = replay_certificate(cert)
    assert out["verdict"] == "bad cut line 2: '0,0 nonsense'"
    assert out["reproduced"] is False


def test_replay_remaining_checks():
    base = {"g": "A_", "h": "Bw"}  # K2, K3
    out = replay_certificate({"check": "corollary1", **base})
    assert out["kn_value"] == out["formula"] == out["oracle"] == 2
    assert out["reproduced"] is False
    out = replay_certificate({"check": "corollary2", **base})
    # the excluded pair: the criterion's attached answer matches brute force
    assert out["excluded"] is True and out["bruteforce"] is False
    assert out["reproduced"] is False
    out = replay_certificate({"check": "weichsel", **base})
    assert out["predicted"] is True and out["traversal"] is True
    assert out["reproduced"] is False
    with pytest.raises(ValueError):
        replay_certificate({"check": "bogus", **base})


def test_replay_uses_the_certificate_oracle():
    cert = {"check": "theorem1", "g": "A_", "h": "Bw", "oracle": "subset"}
    with pytest.raises(BudgetExceeded):
        replay_certificate(cert, budget=1)
    del cert["oracle"]  # max-flow, which has no budget
    assert replay_certificate(cert, budget=1)["reproduced"] is False


def test_subset_oracle_reads_kappa_zero_off_a_disconnected_product():
    # 2K_3 x K_3 has no cut list to read kappa' off, but its empty cut needs
    # no search, so both oracles answer 0 at any budget
    g = disjoint_union(complete_graph(3), complete_graph(3))
    cert = {"check": "theorem1", "g": emit_graph6(g), "h": "Bw"}
    for oracle in ("maxflow", "subset"):
        out = replay_certificate({**cert, "oracle": oracle}, budget=1)
        assert out["formula"] == out["oracle"] == 0 and out["status"] == "ok"


def test_mismatch_certificate_names_its_oracle(monkeypatch):
    real = harness.kappa_formula

    def off_by_one(g, h):
        res = real(g, h)
        return dataclasses.replace(res, value=res.value + 1)

    monkeypatch.setattr(harness, "kappa_formula", off_by_one)
    cfg = CampaignConfig(max_g_order=2, max_h_order=3, oracle="subset")
    (rec,) = run_campaign(cfg).records
    assert rec["status"] == "mismatch"
    assert rec["certificate"]["oracle"] == "subset"
    assert replay_certificate(rec["certificate"])["reproduced"] is True


def test_campaign_with_subset_oracle():
    cfg = CampaignConfig(max_g_order=2, max_h_order=3,
                         checks=("theorem1",), oracle="subset")
    report = run_campaign(cfg)
    assert report.exit_code == 0
    (rec,) = report.records
    assert rec["oracle"] == rec["formula"] == 2

    # a tiny budget makes the subset oracle inconclusive rather than wrong
    cfg = CampaignConfig(max_g_order=2, max_h_order=3,
                         checks=("theorem1",), oracle="subset",
                         enumeration_budget=1)
    report = run_campaign(cfg)
    assert report.exit_code == 2
    assert report.records[0]["oracle"] is None


def test_subset_oracle_campaign_follows_the_budget_rule():
    # theorem1 by subset scan at budget 500k on G 2..4 x dense H 3..5, the
    # benchmark's oracle campaign: the budget rule turns no pair down, and
    # every record equals the max-flow campaign's
    cfg = CampaignConfig(max_g_order=4, max_h_order=5, checks=("theorem1",),
                         enumeration_budget=500_000)
    exact = strip_ms(run_campaign(cfg).records)
    brute = strip_ms(run_campaign(dataclasses.replace(cfg, oracle="subset")).records)
    assert len(brute) == len(exact) == 45
    for rec, want in zip(brute, exact):
        p = direct_product(parse_graph6(rec["g"]), parse_graph6(rec["h"]))
        if over_budget(p, cfg.enumeration_budget):
            assert rec["status"] == "inconclusive" and rec["oracle"] is None, rec
        else:
            assert rec == want
    assert Counter(r["status"] for r in brute) == {"ok": 45}


def test_desk_wide_subset_campaign_settles_all_480():
    # theorem1, corollary1, theorem2 and corollary2 by subset scan at the
    # default budget on the desk corpus, G 2..5 x dense H 3..5: a scan fits
    # every product, the eight with 25 vertices and no merged group too, and
    # every record equals the max-flow campaign's
    cfg = CampaignConfig(max_g_order=5, max_h_order=5,
                         checks=("theorem1", "corollary1", "theorem2", "corollary2"))
    exact = strip_ms(run_campaign(cfg).records)
    brute = strip_ms(run_campaign(dataclasses.replace(cfg, oracle="subset")).records)
    assert len(brute) == len(exact) == 480
    assert brute == exact
    assert Counter(r["status"] for r in brute) == {"ok": 480}


def test_subset_oracle_lists_the_cuts_of_theorem2_and_corollary2():
    # under oracle = subset, theorem2 and corollary2 read the subset scan's
    # cut list: on G 2..4 x dense H 3..4 at budget 100k every pair's sides
    # fit, and every record equals the max-flow campaign's
    cfg = CampaignConfig(max_g_order=4, max_h_order=4, checks=("theorem2", "corollary2"),
                         enumeration_budget=100_000)
    exact = strip_ms(run_campaign(cfg).records)
    brute = strip_ms(run_campaign(dataclasses.replace(cfg, oracle="subset")).records)
    assert len(brute) == 36
    assert brute == exact
    assert Counter(r["status"] for r in brute) == {"ok": 36}


def test_subset_oracle_settles_theorem2_on_k2_times_h3():
    # K_2 x H_3 has 22 vertices: its 2**21 sides fit the default budget, and
    # the subset cut list is the max-flow one, 22 stars and the exceptional cut
    g, h = complete_graph(2), exceptional_member(3)
    recs = [harness._check_theorem2(harness._Pair(g, h, CampaignConfig(oracle=oracle)))
            for oracle in ("subset", "maxflow")]
    assert recs[0] == recs[1]
    assert recs[0]["status"] == "ok" and recs[0]["kappa"] == 6
    assert recs[0]["exceptional_pair"] is True
    assert recs[0]["verdicts"] == {"vertex_star": 22, "induced_by_factor_cut": 0,
                                   "exceptional": 1}


def _off_by_one(real):
    def wrong(*args):
        res = real(*args)
        return dataclasses.replace(res, value=res.value + 1)
    return wrong


def _unclassifiable(real):
    def wrong(g, h, cut):
        raise CutClassificationError(g, h, frozenset(cut))
    return wrong


def _negated(real):
    return lambda *args: not real(*args)


def _drop_last_cut(real):
    def dropped(g):
        return mincut.CutEnumeration(real(g).cuts[:-1])
    return dropped


def _no_cuts(real):
    return lambda g: mincut.CutEnumeration(())


def _last_cut_shrunk(real):
    # fewer than kappa' edges never disconnect, so the engine lists a non-cut
    def shrunk(g):
        *cuts, last = real(g).cuts
        return mincut.CutEnumeration((*cuts, last - {min(last)}))
    return shrunk


def _last_cut_off_graph(real):
    # kappa' pairs with one non-edge, (0,0)-(0,1), among them: not a cut
    def off_graph(g):
        *cuts, last = real(g).cuts
        return mincut.CutEnumeration((*cuts, last - {min(last)} | {(0, 1)}))
    return off_graph


def _stars_only(real):
    def stars(g):
        return mincut.CutEnumeration(
            tuple(c for c in real(g).cuts if mincut.is_vertex_star(g, c) is not None))
    return stars


def _shifted_with_bounds(real):
    def wrong(*args):
        res = real(*args)
        return dataclasses.replace(res, value=res.value + 1,
                                   degree_bound=res.degree_bound + 1,
                                   factor_cut_bound=res.factor_cut_bound + 1)
    return wrong


def _limit_too_high(real):
    return lambda g, s, t, limit=None: real(g, s, t, limit + 1)


# each case with the expected, observed and product cuts of the certificate
# of its first mismatch; the others carry the same cut keys
FAULTS = [
    # a closed form one above kappa' is a theorem1 mismatch
    ("theorem1", "kappa_formula", _off_by_one, 6, 6, (3, 2, {})),
    # so is an engine whose kappa' is one above the closed form; the
    # factors' kappa' in the closed form shifts with it, but not delta(G)delta(H)
    ("theorem1", "edge_connectivity", _off_by_one, 6, 6, (2, 3, {})),
    ("corollary1", "kappa_formula_kn", _off_by_one, 6, 6,
     ({"formula": 3, "oracle": 3}, {"formula": 2, "oracle": 2}, {})),
    # an engine that drops a cut leaves a predicted cut missing
    ("theorem2", "enumerate_min_cuts", _drop_last_cut, 6, 6,
     ("every predicted cut", "1 missing", {"missing": "0,2 1,0\n0,2 1,1"})),
    # an engine that lists no cut reads as kappa' 0, not as an exception
    ("theorem2", "enumerate_min_cuts", _no_cuts, 6, 6, (2, 0, {})),
    # an engine that lists fewer than kappa' edges lowers kappa' below the
    # closed form
    ("theorem2", "enumerate_min_cuts", _last_cut_shrunk, 6, 6, (2, 1, {})),
    # an engine that lists a non-cut; on (K_2, K_3) it is vetted, not classified
    ("theorem2", "enumerate_min_cuts", _last_cut_off_graph, 6, 6,
     ("predicted or exceptional", "not a minimum cut", {"cut": "0,0 0,1\n0,2 1,1"})),
    # an engine that lists no exceptional cut on (K_2, K_3)
    ("theorem2", "enumerate_min_cuts", _stars_only, 1, 6,
     ("at least one exceptional cut",
      {"vertex_star": 6, "induced_by_factor_cut": 0, "exceptional": 0}, {})),
    # a closed form that disagrees with kappa' is a mismatch, not an exception,
    # though classify_min_cut measures the cuts of (K_2, K_3) against it
    ("theorem2", "kappa_formula", _off_by_one, 6, 6, (3, 2, {})),
    # shifted with its bounds, it predicts the right cuts but the wrong kappa'
    ("theorem2", "kappa_formula", _shifted_with_bounds, 6, 6, (3, 2, {})),
    # only the extras of the exceptional pair (K_2, K_3) are classified
    ("theorem2", "classify_min_cut", _unclassifiable, 1, 6,
     ("predicted or exceptional", "unclassifiable", {"cut": "0,0 1,1\n0,1 1,0"})),
    # the excluded pair (K_2, K_3) raises before the negation and stays ok
    ("corollary2", "is_super_edge_connected_kn", _negated, 5, 6, (False, True, {})),
    ("weichsel", "product_connected", _negated, 45, 45, (True, False, {})),
    # a flow of exactly delta(G)delta(H) now passes for a cut below it
    ("lemma2", "min_st_cut", _limit_too_high, 6, 6,
     ("fibers contained", "fiber split", {"cut": "0,0 1,1\n0,0 1,2"})),
]


@pytest.mark.parametrize(
    "check, binding, mutate, mismatches, instances, first", FAULTS,
    ids=[f"{c}-{b}-{m.__name__}-{k}-{n}" for c, b, m, k, n, _ in FAULTS])
def test_injected_fault_is_certified(monkeypatch, check, binding, mutate,
                                     mismatches, instances, first):
    # the fault goes wherever the package binds the function, as a bug would
    real = getattr(harness, binding)
    wrong = mutate(real)
    for module in (harness, dense):
        if getattr(module, binding, None) is real:
            monkeypatch.setattr(module, binding, wrong)
    report = run_campaign(CampaignConfig(max_g_order=3, max_h_order=4,
                                         checks=(check,)))
    assert len(report.records) == instances
    assert report.summary["mismatches"] == mismatches
    assert report.exit_code == 1
    bad = [r for r in report.records if r["status"] == "mismatch"]
    certs = [r["certificate"] for r in bad]
    expected, observed, cuts = first
    assert certs[0] == {"check": check, "g": bad[0]["g"], "h": bad[0]["h"],
                        "oracle": "maxflow", "expected": expected,
                        "observed": observed, **cuts}
    assert all(cert.keys() == certs[0].keys() for cert in certs)
    assert all(replay_certificate(cert)["reproduced"] for cert in certs)
    assert {r["status"] for r in report.records} <= {"ok", "mismatch"}


def test_lemma2_fault_records_the_flows_it_ran(monkeypatch):
    # the lemma2 row of FAULTS: each mismatch stops at its first split fiber,
    # and its flows are the min_st_cut calls made on its product
    wrong, calls = _limit_too_high(harness.min_st_cut), Counter()

    def counted(g, s, t, limit=None):
        calls[g] += 1
        return wrong(g, s, t, limit)

    monkeypatch.setattr(harness, "min_st_cut", counted)
    report = run_campaign(CampaignConfig(max_g_order=3, max_h_order=4,
                                         checks=("lemma2",)))
    bad = [r for r in report.records if r["status"] == "mismatch"]
    assert len(bad) == 6
    for rec in bad:
        g, h = parse_graph6(rec["g"]), parse_graph6(rec["h"])
        assert rec["flows"] == calls[direct_product(g, h)]
    assert [r["flows"] for r in bad] == [1] * 6


def test_side_scan_fault_is_certified_under_the_subset_oracle(monkeypatch):
    # a side scan that also lists the whole vertex set, whose cut is empty,
    # lowers kappa' to 0 below the closed form on every product of G 2..3 x
    # dense H 3..4, since the side scan fits all of them, and each
    # certificate replays under the fault
    real = mincut._side_scan

    def whole(g, groups):
        return [*real(g, groups), (1 << g.n) - 1]

    monkeypatch.setattr(mincut, "_side_scan", whole)
    report = run_campaign(CampaignConfig(max_g_order=3, max_h_order=4,
                                         checks=("theorem1",), oracle="subset"))
    assert len(report.records) == 6
    assert report.summary["mismatches"] == 6
    certs = [r["certificate"] for r in report.records]
    assert certs[0] == {"check": "theorem1", "g": "A_", "h": "Bw", "oracle": "subset",
                        "expected": 2, "observed": 0}
    assert all(replay_certificate(cert)["reproduced"] for cert in certs)
