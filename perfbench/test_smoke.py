"""Smoke tests of the campaign benchmark on the tiny workload.

Run from the repository root: ``python3 -m pytest -q perfbench``.
The tiny workload is G on 2..3 vertices x dense H on 3..4, all six checks.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from tensorcut import dense, mincut  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _spec(tmp_path: Path, trace: bool = False, **config) -> dict:
    base = run.workload_config("tiny", 7)
    return {"src": str(ROOT / "src"), "config": {**base, **config}, "seed": 7,
            "report": str(tmp_path / "report.jsonl"), "crosscheck": 2, "trace": trace}


def _bindings() -> dict[tuple, object]:
    """Every function reachable from a tensorcut module attribute or table."""
    out = {}
    for module in tracer._package_modules():
        name = module.__name__
        for attr, value in vars(module).items():
            if callable(value):
                out[(name, attr)] = value
            elif isinstance(value, dict) and not attr.startswith("__"):
                for key, item in value.items():
                    if callable(item):
                        out[(name, attr, key)] = item
    return out


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "tiny", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"{name} = ") and f" {unit} (" in line
                   for line in lines), name


def test_tracer_restores_every_binding(tmp_path):
    before = _bindings()
    out = worker.run_sample(_spec(tmp_path, trace=True))
    assert [c["traced"] for c in out["campaigns"]] == [False, True, False]
    for campaign in out["campaigns"]:
        assert campaign["problems"] == [] and campaign["failed"] == 0
    assert len({c["digest"] for c in out["campaigns"]}) == 1
    assert out["layers"]["mincut.enum.calls"] > 0
    assert out["layers"]["dense.classify.rebuilds"] == out["layers"]["dense.classify.calls"]
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_off_by_one_formula_is_counted_as_failed(tmp_path):
    original = dense.kappa_formula

    def off_by_one(g, h):
        res = original(g, h)
        return dataclasses.replace(res, value=res.value + 1)

    bindings = tracer.rebind({id(original): (original, off_by_one)})
    try:
        [mismatched] = worker.run_sample(_spec(tmp_path, checks=["theorem1"]))["campaigns"]
        [raised] = worker.run_sample(_spec(tmp_path))["campaigns"]
    finally:
        tracer.restore(bindings)
    assert dense.kappa_formula is original
    # theorem1 reports every instance as a mismatch ...
    assert mismatched["failed"] == mismatched["attempted"] > 0
    # ... and the cut classifier, which also uses the formula, makes the
    # full campaign raise, which fails all of its instances.
    assert raised["failed"] == raised["attempted"] > 0
    assert any("campaign raised" in p for p in raised["problems"])


def test_dropped_min_cut_differs_from_the_reference(tmp_path):
    original = mincut.enumerate_min_cuts

    def drop_one(*args, **kwargs):
        res = original(*args, **kwargs)
        return dataclasses.replace(res, cuts=res.cuts[1:])

    bindings = tracer.rebind({id(original): (original, drop_one)})
    try:
        [campaign] = worker.run_sample(
            _spec(tmp_path, checks=["theorem2", "corollary2"]))["campaigns"]
    finally:
        tracer.restore(bindings)
    assert mincut.enumerate_min_cuts is original
    assert any("reference" in p for p in campaign["problems"])


def test_overrun_prints_a_failing_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "SLACK_S", 0)
    assert run.main(["--workload", "tiny", "--seed", "1", "--seconds", "0.5"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("PROBLEM: ") and "deadline" in line for line in lines)
    assert json.loads(lines[-1]) == {"correct": False, "attempted": 1, "failed": 1,
                                     "metrics": {}}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
