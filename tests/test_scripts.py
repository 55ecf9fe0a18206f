import dataclasses
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=60)


@pytest.mark.parametrize("script, args, message", [
    ("run_verification.py", ["--checks", "foo"], "unknown checks"),
    ("run_verification.py", ["--max-g-order", "1"], "max_g_order must be >= 2"),
    ("emit_corpus.py", ["--max-order", "9"], "internal enumeration covers"),
])
def test_bad_input_exits_2(tmp_path, script, args, message):
    proc = run_script(script, *args, cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {message}")
    assert "Traceback" not in proc.stderr


def test_checks_list_drops_empty_items(tmp_path):
    # a trailing comma is an empty item, dropped as `verify --checks` does
    proc = run_script("run_verification.py", "--checks", "theorem1,", "--max-g-order", "2",
                      "--max-h-order", "3", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "verification_report.jsonl").exists()


def load_tracer():
    """The benchmark's tracer, loaded from its file, unchanged; it needs only
    the standard library."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    import tensorcut  # noqa: F401  loads every module the tracer names
    return tracer


def test_benchmark_oracle_workload_settles_every_pair(monkeypatch):
    # the benchmark's `oracle` config, read from its runner: theorem1 by
    # subset scan at budget 500k on G 2..4 x dense H 3..5.  All 45 pairs
    # settle ok, with the kappa' of the max-flow campaign on the same pairs
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # run.py imports tracer
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    from tensorcut import harness

    fields = run.workload_config("oracle", 0)
    config = harness.CampaignConfig(**{**fields, "checks": tuple(fields["checks"])})
    assert (config.checks, config.oracle, config.enumeration_budget) == (
        ("theorem1",), "subset", 500_000)
    assert (config.g_source, config.h_source, config.max_g_order, config.max_h_order) == (
        "enumerate", "enumerate", 4, 5)
    brute = harness.run_campaign(config).records
    exact = harness.run_campaign(dataclasses.replace(config, oracle="maxflow")).records
    assert [rec["status"] for rec in brute] == ["ok"] * 45
    assert ([(rec["g"], rec["h"], rec["oracle"]) for rec in brute]
            == [(rec["g"], rec["h"], rec["oracle"]) for rec in exact])


def test_benchmark_tracer_names_resolve():
    # the benchmark's tracer wraps package functions by (module, name), and a
    # name that is gone breaks its per-layer run
    tracer = load_tracer()

    missing = [(module, name) for module, name in [*tracer.TRACED, tracer.CHECK_TABLE]
               if not hasattr(sys.modules.get(module), name)]
    assert missing == []
    module, name = tracer.CHECK_TABLE
    assert set(getattr(sys.modules[module], name)) == set(tracer.CHECK_NAMES)


@pytest.mark.parametrize("oracle", ["maxflow", "subset"])
def test_benchmark_tracer_runs_a_campaign(oracle):
    # a moved entry point or a changed result type breaks the traced run
    # that the benchmark makes, so one small campaign runs traced here under
    # each oracle; the benchmark's `oracle` workload takes the subset path
    from tensorcut import harness, mincut

    config = harness.CampaignConfig(max_g_order=3, max_h_order=4,
                                    checks=harness.CHECK_NAMES, oracle=oracle)

    def records():
        return [{k: v for k, v in rec.items() if k != "ms"}
                for rec in harness.run_campaign(config).records]

    untraced = records()
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        traced = records()
    finally:
        tracer.uninstall()
    assert traced == untraced
    metrics = tracer.metrics()
    # under subset, no pair of G <= 3 x H <= 4 calls the max-flow enumeration
    counters = {"maxflow": ("mincut.star.calls", "mincut.enum.calls", "product.calls"),
                "subset": ("mincut.star.calls", "product.calls")}[oracle]
    for counter in counters:
        assert metrics[counter] > 0, counter
    assert harness.enumerate_min_cuts is mincut.enumerate_min_cuts
    assert not any(hasattr(fn, "__wrapped__") for fn in harness._CHECK_FUNCS.values())
