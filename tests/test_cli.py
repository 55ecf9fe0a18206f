import io
import json

import pytest

from tensorcut import cli, dense, harness
from tensorcut.cli import main
from tensorcut.dense import CutClassificationError, exceptional_cut, exceptional_member
from tensorcut.graph6 import emit_graph6, parse_graph6
from tensorcut.graphs import Graph, boundary, complete_graph, cycle_graph
from tensorcut.harness import replay_certificate
from tensorcut.product import direct_product, format_product_cut, induced_cut
from test_dense import bridged
from test_harness import _negated, _off_by_one, vacuous_configs


@pytest.fixture
def g6_files(tmp_path):
    def write(name, g):
        path = tmp_path / name
        path.write_text(emit_graph6(g) + "\n")
        return str(path)

    return write


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out.strip()
    return code, json.loads(out)


def test_product_command(g6_files, capsys):
    k2 = g6_files("k2.g6", complete_graph(2))
    k3 = g6_files("k3.g6", complete_graph(3))
    code = main(["product", k2, k3])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert parse_graph6(out) == direct_product(complete_graph(2), complete_graph(3))


def test_product_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("A_\nBw\n"))
    code = main(["product", "-", "-"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert parse_graph6(out).n == 6


def test_bad_graph_arguments_exit_2(tmp_path, capsys, monkeypatch):
    empty = tmp_path / "empty.g6"
    empty.write_text("")
    assert main(["product", str(empty), str(empty)]) == 2
    assert "error: no graph6 line" in capsys.readouterr().err
    monkeypatch.setattr("sys.stdin", io.StringIO("A_\n"))
    assert main(["product", "-", "-"]) == 2
    assert "error: not enough graph6 lines" in capsys.readouterr().err


def test_kappa_factors(g6_files, capsys):
    k2 = g6_files("k2.g6", complete_graph(2))
    k3 = g6_files("k3.g6", complete_graph(3))
    code, payload = run_json(capsys, ["kappa", "--factors", k2, k3])
    assert code == 0
    # the theorem1 record of (K_2, K_3), as a campaign gives it
    assert payload == {"formula": 2, "branch": "degree_bound", "oracle": 2, "status": "ok"}
    # over budget, the record is printed too
    code = main(["kappa", "--factors", k2, k3, "--oracle", "subset", "--budget", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    assert json.loads(captured.out) == {"formula": 2, "branch": "degree_bound",
                                        "oracle": None, "status": "inconclusive"}


def test_kappa_factors_mismatch_is_certified(g6_files, capsys, monkeypatch):
    # a closed form one above kappa', bound as the theorem1 row of FAULTS
    # binds it, prints a certificate that replays under the same fault
    real = harness.kappa_formula
    for module in (harness, dense):
        if module.kappa_formula is real:
            monkeypatch.setattr(module, "kappa_formula", _off_by_one(real))
    k2 = g6_files("k2.g6", complete_graph(2))
    k3 = g6_files("k3.g6", complete_graph(3))
    code, payload = run_json(capsys, ["kappa", "--factors", k2, k3])
    assert code == 1
    cert = {"check": "theorem1", "g": "A_", "h": "Bw", "oracle": "maxflow",
            "expected": 3, "observed": 2}
    assert payload == {"formula": 3, "branch": "degree_bound", "oracle": 2,
                       "status": "mismatch", "certificate": cert}
    assert replay_certificate(cert)["reproduced"] is True


def test_kappa_single_graph_subset_oracle(g6_files, capsys):
    c6 = g6_files("c6.g6", cycle_graph(6))
    code, payload = run_json(capsys, ["kappa", "--graph", c6, "--oracle", "subset"])
    assert code == 0
    assert payload["kappa"] == 2
    assert payload["witness"] == "0-1 0-5"  # the least minimum cut by sorted edge list


def test_classify_command(g6_files, tmp_path, capsys):
    k2 = g6_files("k2.g6", complete_graph(2))
    k3 = g6_files("k3.g6", complete_graph(3))
    _, cut = exceptional_cut(1)
    cut_path = tmp_path / "cut.txt"
    cut_path.write_text(format_product_cut(cut, 3) + "\n")
    code, payload = run_json(capsys, ["classify", k2, k3, str(cut_path)])
    assert code == 0
    assert payload["verdict"] == "exceptional"


def test_classify_prints_the_star_center(g6_files, tmp_path, capsys):
    k3 = g6_files("k3.g6", complete_graph(3))
    k4 = g6_files("k4.g6", complete_graph(4))
    star = boundary(direct_product(complete_graph(3), complete_graph(4)), 1 << 6)
    cut_path = tmp_path / "cut.txt"
    cut_path.write_text(format_product_cut(star, 4) + "\n")
    code, payload = run_json(capsys, ["classify", k3, k4, str(cut_path)])
    assert code == 0
    assert payload == {"verdict": "vertex_star", "star_center": "1,2"}


def test_classify_prints_the_factor_cut(g6_files, tmp_path, capsys):
    # two K_4 joined by the bridge 0-4, times K_3: the bridge's lift has
    # 2 * 1 * e(K_3) = 6 edges, a tie with every star's 3 * 2
    g = bridged(complete_graph(4))
    gp = g6_files("g.g6", g)
    k3 = g6_files("k3.g6", complete_graph(3))
    cut_path = tmp_path / "cut.txt"
    cut_path.write_text(format_product_cut(induced_cut({(0, 4)}, g, complete_graph(3)), 3))
    code, payload = run_json(capsys, ["classify", gp, k3, str(cut_path)])
    assert code == 0
    assert payload == {"verdict": "induced_by_factor_cut", "factor_cut": "0-4"}


def test_classify_reports_an_unclassifiable_cut(g6_files, tmp_path, capsys, monkeypatch):
    def refuse(g, h, cut):
        raise CutClassificationError(g, h, frozenset(cut))

    monkeypatch.setattr(cli, "classify_min_cut", refuse)
    k2 = g6_files("k2.g6", complete_graph(2))
    k3 = g6_files("k3.g6", complete_graph(3))
    _, cut = exceptional_cut(1)
    cut_path = tmp_path / "cut.txt"
    cut_path.write_text(format_product_cut(cut, 3))
    code, payload = run_json(capsys, ["classify", k2, k3, str(cut_path)])
    assert code == 1
    assert payload == {"verdict": "unclassifiable", "counterexample": True,
                       "g": "A_", "h": "Bw"}


@pytest.mark.parametrize("g", [Graph(1), Graph(2)], ids=["K1", "edgeless2"])
def test_classify_rejects_a_trivial_or_disconnected_first_factor(g, g6_files, tmp_path,
                                                                 capsys):
    # kappa' is 0 and the empty cut fits no class, which refutes nothing
    gp = g6_files("g.g6", g)
    k3 = g6_files("k3.g6", complete_graph(3))
    cut_path = tmp_path / "cut.txt"
    cut_path.write_text("")
    assert main(["classify", gp, k3, str(cut_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: classification requires a nontrivial "
                            "connected first factor\n")


def test_classify_rejects_a_repeated_point(g6_files, tmp_path, capsys):
    k2 = g6_files("k2.g6", complete_graph(2))
    k3 = g6_files("k3.g6", complete_graph(3))
    cut_path = tmp_path / "cut.txt"
    cut_path.write_text("0,0 0,0\n")
    assert main(["classify", k2, k3, str(cut_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad cut line 1: '0,0 0,0'\n"


def test_classify_rejects_non_minimum(g6_files, tmp_path, capsys):
    k2 = g6_files("k2.g6", complete_graph(2))
    k3 = g6_files("k3.g6", complete_graph(3))
    cut_path = tmp_path / "cut.txt"
    cut_path.write_text("0,0 1,1\n")  # one edge: wrong size
    code = main(["classify", k2, k3, str(cut_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "minimum" in err


def test_classify_rejects_out_of_range_coordinates(g6_files, tmp_path, capsys):
    # with |H| = 3, the point (0,3) would alias (1,0) and make these two lines
    # the exceptional cut (1,0)-(0,1), (1,1)-(0,0) of K_2 x K_3
    k2 = g6_files("k2.g6", complete_graph(2))
    k3 = g6_files("k3.g6", complete_graph(3))
    cut_path = tmp_path / "cut.txt"
    cut_path.write_text("0,3 0,1\n0,4 0,0\n")
    assert main(["classify", k2, k3, str(cut_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad cut line 1: '0,3 0,1'")


def test_classify_rejects_points_past_g(g6_files, tmp_path, capsys):
    # x = 5 lies past |G| - 1 = 1, so the line is named as the file wrote it,
    # not by the product ids (1, 15) that no vertex of K_2 x K_3 has
    k2 = g6_files("k2.g6", complete_graph(2))
    k3 = g6_files("k3.g6", complete_graph(3))
    cut_path = tmp_path / "cut.txt"
    cut_path.write_text("5,0 0,1\n")
    assert main(["classify", k2, k3, str(cut_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad cut line 1: '5,0 0,1'\n"


def test_super_command(g6_files, capsys):
    c4 = g6_files("c4.g6", cycle_graph(4))
    code, payload = run_json(capsys, ["super", c4, "3", "--brute"])
    assert code == 0
    # the corollary2 record of (C_4, K_3): C_4 x K_3 is super edge connected
    assert payload == {"n": 3, "bruteforce": True, "predicted": True, "status": "ok"}
    code, payload = run_json(capsys, ["super", c4, "3"])
    assert code == 0
    assert payload == {"n": 3, "super": True}


def test_super_excluded_pair(g6_files, capsys):
    # K_2 x K_3 = C_6, which is not super edge connected
    k2 = g6_files("k2.g6", complete_graph(2))
    code, payload = run_json(capsys, ["super", k2, "3", "--brute"])
    assert code == 0
    assert payload == {"n": 3, "bruteforce": False, "excluded": True, "predicted": None,
                       "status": "ok"}
    code, payload = run_json(capsys, ["super", k2, "3"])
    assert code == 0
    assert payload["excluded"] is True
    assert payload["bruteforce_answer"] is False


def test_super_brute_over_budget(g6_files, capsys):
    # the side scan of C_5 x K_4 touches 57,344 words
    c5 = g6_files("c5.g6", cycle_graph(5))
    for budget in ("10", "1000"):
        code, payload = run_json(capsys, ["super", c5, "4", "--brute", "--budget", budget])
        assert code == 2  # inconclusive, and the record is still printed
        assert payload == {"n": 4, "bruteforce": None, "predicted": True,
                           "status": "inconclusive"}
    code, payload = run_json(capsys, ["super", c5, "4", "--budget", "10"])
    assert code == 0 and "bruteforce" not in payload


def test_super_brute_settles_k4_plus_pendant(g6_files, capsys):
    # K_4 plus a pendant vertex times K_5 has 25 vertices but only 6
    # inseparable groups, so a scan over their unions fits the default budget
    path = g6_files("k4pendant.g6", parse_graph6("D~C"))
    code, payload = run_json(capsys, ["super", path, "5", "--brute"])
    assert code == 0
    assert payload["bruteforce"] is True


@pytest.mark.parametrize("graph, binding", [
    (cycle_graph(4), "is_super_edge_connected_kn"),
    # the excluded pair raises before the criterion's negation could act, so
    # the star test is negated instead: its answer is never None, so every
    # cut reads as a star, against the criterion's attached answer
    (complete_graph(2), "is_vertex_star"),
])
def test_super_brute_disagreement_fails(g6_files, capsys, monkeypatch, graph, binding):
    monkeypatch.setattr(harness, binding, _negated(getattr(harness, binding)))
    path = g6_files("g.g6", graph)
    code, payload = run_json(capsys, ["super", path, "3", "--brute"])
    assert code == 1
    cert = payload["certificate"]
    assert cert == {"check": "corollary2", "g": emit_graph6(graph), "h": "Bw",
                    "oracle": "subset", "expected": not payload["bruteforce"],
                    "observed": payload["bruteforce"]}
    assert payload["predicted"] == (None if payload.get("excluded") else cert["expected"])
    assert replay_certificate(cert)["reproduced"] is True


def test_family_command(capsys):
    code = main(["family", "2"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert parse_graph6(out) == exceptional_member(2)


def test_verify_command(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("max_g_order = 2\nmax_h_order = 3\nchecks = theorem1, weichsel\n")
    code = main(["verify", str(cfg)])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    summary = json.loads(out[-1])
    assert summary["record"] == "summary"
    assert summary["mismatches"] == 0


def test_verify_overrides_and_output(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("max_g_order = 2\nmax_h_order = 3\n")
    out_path = tmp_path / "report.csv"
    code = main([
        "verify", str(cfg), "--checks", "theorem1", "--oracle", "subset",
        "--budget", "1", "--format", "csv", "--output", str(out_path),
    ])
    assert code == 2  # the subset oracle is inconclusive under the tiny budget
    text = out_path.read_text()
    assert text.startswith("record,")
    assert "inconclusive" in text


def test_verify_vacuous_campaign_exits_2(tmp_path, capsys):
    # a campaign in which some check would get no pair is bad input
    cfg = tmp_path / "c.cfg"
    for config, message in vacuous_configs(tmp_path):
        cfg.write_text(f"g_source = {config.g_source}\nh_source = {config.h_source}\n"
                       f"max_g_order = {config.max_g_order}\n"
                       f"max_h_order = {config.max_h_order}\n"
                       f"checks = {', '.join(config.checks)}\n")
        assert main(["verify", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_verify_empty_source_exits_2(tmp_path, capsys):
    # an empty source is named by key and line before any corpus is read
    cfg = tmp_path / "c.cfg"
    for key in ("g_source", "h_source"):
        cfg.write_text(f"max_g_order = 3\nmax_h_order = 3\n{key} =\n")
        assert main(["verify", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: config line 3: {key} is empty\n"


def test_verify_sampling_failure_exits_2(tmp_path, capsys, monkeypatch):
    # about 2 in 3 draws of a dense H on 5 to 16 vertices pass the dense
    # filter, so with one draw per graph the sampler gives up: on seed 0's
    # H stream, at order 5, whose floor is 5 // 2 + 1
    monkeypatch.setattr(harness, "_SAMPLING_TRIES", 1)
    cfg = tmp_path / "c.cfg"
    cfg.write_text("h_source = random:1\nmax_g_order = 2\nmax_h_order = 16\n"
                   "checks = theorem1\n")
    assert main(["verify", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: rejection sampling found no graph on ")
    assert ("on 5 vertices with minimum degree >= 3 that the corpus accepts in 1 draws"
            in captured.err)


def test_verify_without_config_uses_defaults(tmp_path, capsys):
    code = main(["verify", "--checks", "weichsel", "--seed", "4"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert json.loads(out[-1])["seed"] == 4


def test_cli_reports_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.g6"
    bad.write_text("B\x7f\n")
    code = main(["kappa", "--graph", str(bad)])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_negative_budget_is_bad_input(g6_files, capsys):
    # as in verify, a budget below 0 is an error, not an over-budget scan
    k2 = g6_files("k2.g6", complete_graph(2))
    c4 = g6_files("c4.g6", cycle_graph(4))
    for argv in (["kappa", "--graph", k2, "--oracle", "subset", "--budget", "-1"],
                 ["kappa", "--factors", k2, k2, "--budget", "-1"],
                 ["super", c4, "3", "--brute", "--budget", "-5"],
                 ["super", c4, "3", "--budget", "-5"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: budget must be >= 0"), argv
    assert main(["verify", "--budget", "-1"]) == 2
    assert "error: enumeration_budget must be >= 0" in capsys.readouterr().err
    # budget 0 is a valid, if tight, budget: the subset oracle is inconclusive
    assert main(["kappa", "--graph", k2, "--oracle", "subset", "--budget", "0"]) == 2
    assert capsys.readouterr().err == ""


def test_kappa_graph_over_budget_prints_an_inconclusive_payload(g6_files, capsys):
    # over budget, kappa --graph prints the payload with no answer on stdout,
    # nothing on stderr, and exits as an inconclusive record does; K_7's side
    # scan touches 8 words
    k2 = g6_files("k2.g6", complete_graph(2))
    k7 = g6_files("k7.g6", complete_graph(7))
    for graph, budget in ((k2, "0"), (k7, "7")):
        code = main(["kappa", "--graph", graph, "--oracle", "subset", "--budget", budget])
        captured = capsys.readouterr()
        assert code == harness.EXIT_CODES["inconclusive"] == 2
        assert captured.err == ""
        assert json.loads(captured.out) == {"oracle": "subset", "kappa": None,
                                            "witness": None}
    code, payload = run_json(capsys, ["kappa", "--graph", k7, "--oracle", "subset",
                                      "--budget", "8"])
    assert (code, payload["kappa"]) == (0, 6)


def test_verify_checks_list_drops_empty_items(capsys):
    # --checks splits like the config file's checks line
    code = main(["verify", "--checks", "theorem1,"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert json.loads(out[-1])["checks"] == ["theorem1"]
    code = main(["verify", "--checks", " weichsel , ,theorem1"])
    assert code == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["checks"] == [
        "theorem1", "weichsel"]
    for checks in (",", " , ", ""):
        assert main(["verify", "--checks", checks]) == 2
        assert capsys.readouterr().err == "error: at least one check must be selected\n"
    assert main(["verify", "--checks", "theorem1,nosuch"]) == 2
    assert "error: unknown checks: ['nosuch']" in capsys.readouterr().err
