#!/usr/bin/env python3
"""Campaign benchmark for tensorcut.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

Runs one workload through the public harness API (``run_campaign`` then
``write_jsonl``, as ``tensorcut verify`` does) in fresh single-threaded
interpreters, one at a time.  ``--trace 0`` repeats the campaign for
``--seconds`` (at least three times) after one set-up and reports the
end-to-end metrics; ``--trace 1`` runs traced processes for ``--seconds``
(at least one) and reports the per-layer metrics.  Every report is checked;
the last stdout line is the JSON result.  Must be run from a checkout
holding ``src/tensorcut``.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import CHECK_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

MIN_SAMPLES = 3
MIN_SETUP_SAMPLES = 5
CROSSCHECK = 4
# A run ends at most this long after --seconds; workers start no campaign
# that would end within RESERVE_S of that deadline.
SLACK_S = 130
RESERVE_S = 20

WORKLOADS = ("desk", "oracle", "tiny")
STATISTICS = {"median": statistics.median, "min": min, "max": max}
END_TO_END_UNITS = {"setup_s": "s", "campaign_s": "s", "settled_per_s": "1/s",
                    "settled": "count", "peak_rss_mb": "MiB"}


def workload_config(name: str, seed: int) -> dict:
    """CampaignConfig fields for a workload."""
    base = {"g_source": "enumerate", "h_source": "enumerate", "seed": seed,
            "enumeration_budget": 5_000_000, "oracle": "maxflow"}
    if name == "desk":
        # The desk campaign (scripts/run_verification.py) with dense H up to
        # order 4: the order-5 pairs take ~90 s of enumeration, too long to
        # repeat within one run.
        return {**base, "checks": list(CHECK_NAMES), "max_g_order": 5, "max_h_order": 4}
    if name == "oracle":
        # theorem1 by subset scan over G 2..4 x dense H 3..5, with a budget
        # small enough to repeat the scan of every instance within one run.
        return {**base, "checks": ["theorem1"], "max_g_order": 4, "max_h_order": 5,
                "enumeration_budget": 500_000, "oracle": "subset"}
    if name == "tiny":  # smoke tests only
        return {**base, "checks": list(CHECK_NAMES), "max_g_order": 3, "max_h_order": 4}
    raise ValueError(f"unknown workload {name!r}")


class Overrun(Exception):
    """A worker was still running at the run's deadline."""


def run_worker(spec: dict, tag: str, deadline: float) -> dict:
    """Run one worker process; it must end before ``deadline`` (monotonic)."""
    left = deadline - time.monotonic()
    spec_path = OUT / f"spec-{tag}.json"
    spec_path.write_text(json.dumps({**spec, "stop_after_s": left - RESERVE_S}),
                         encoding="utf-8")
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(left, 1.0))
    except subprocess.TimeoutExpired:
        raise Overrun(f"{tag} worker still running at the deadline, "
                      f"{SLACK_S} s after --seconds") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(workload: str, seed: int, seconds: float, trace: bool, config: dict) -> dict:
    """Campaign samples and set-up samples from fresh processes.

    Untraced, one process sets up once and repeats the campaign for
    ``seconds``; set-up-only processes then top the set-up samples up to
    MIN_SETUP_SAMPLES.  Traced, each process traces its set-up and runs an
    untraced, a traced and an untraced campaign; processes repeat until
    ``seconds`` have passed.
    """
    start = time.monotonic()
    deadline = start + seconds + SLACK_S
    spec = {"src": str(ROOT / "src"), "config": config, "seed": seed,
            "report": str(OUT / f"report-{workload}.jsonl"), "crosscheck": CROSSCHECK}
    runs = {"plain": [], "traced": [], "setup": [], "rss": [], "layers": [], "overhead": []}
    if not trace:
        out = run_worker({**spec, "min_campaigns": MIN_SAMPLES, "campaign_seconds": seconds},
                         "sample", deadline)
        runs["plain"] = out["campaigns"]
        runs["rss"] = [out["peak_rss_mb"]]
        runs["setup"] = [out["setup_s"]]
        while len(runs["setup"]) < MIN_SETUP_SAMPLES:
            runs["setup"].append(
                run_worker({**spec, "setup_only": True}, "setup", deadline)["setup_s"])
        return runs
    while True:
        out = run_worker({**spec, "trace": True}, "traced", deadline)
        plain = [c for c in out["campaigns"] if not c["traced"]]
        traced = [c for c in out["campaigns"] if c["traced"]]
        runs["plain"] += plain
        runs["traced"] += traced
        runs["setup"].append(out["setup_s"])
        runs["layers"].append(out["layers"])
        runs["overhead"].append(traced[0]["campaign_s"]
                                - statistics.mean(c["campaign_s"] for c in plain))
        elapsed = time.monotonic() - start
        if elapsed * (1 + 1 / len(runs["layers"])) > seconds:
            return runs


def _check_digests(samples: list[dict], key: str) -> list[str]:
    """Reports must match across samples, traced or not, and across runs.

    ``key`` names the workload, seed and program source of the run.
    """
    problems = []
    digests = {s["digest"] for s in samples}
    if len(digests) != 1:
        problems.append(f"report digests differ between samples: {sorted(map(str, digests))}")
    store = OUT / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    digest = samples[0]["digest"]
    if key in known and known[key] != digest:
        problems.append(f"report digest {digest} differs from {known[key]} of an "
                        f"earlier run of the same program and seed")
    elif digest is not None:
        known[key] = digest
        store.write_text(json.dumps(known, indent=1, sort_keys=True))
    return problems


def end_to_end(runs: dict) -> dict[str, tuple[str, list]]:
    """Per metric: the statistic reported and the samples it is taken over.

    Campaign time is the fastest sample: other tenants of a shared host only
    ever slow a sample down, so the minimum is the steadiest estimate of the
    program's own cost.  Set-up time is a median, as set-up is short and
    sampled more often.
    """
    plain = runs["plain"]
    return {
        "setup_s": ("median", runs["setup"]),
        "campaign_s": ("min", [s["campaign_s"] for s in plain]),
        "settled_per_s": ("max", [s["settled"] / s["campaign_s"] for s in plain]),
        "settled": ("median", [s["settled"] for s in plain]),
        "peak_rss_mb": ("median", runs["rss"]),
    }


def _unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def per_layer(runs: dict) -> tuple[dict[str, tuple[str, list]], dict[str, str]]:
    traced = runs["traced"]
    first = traced[0]
    values: dict[str, list] = {}
    for name in runs["layers"][0]:
        values[name] = [layers[name] for layers in runs["layers"]]
        layer, check, _ = (name.split(".") + ["", ""])[:3]
        if layer == "harness" and check in CHECK_NAMES:
            counts = first["per_check"].get(check, {"instances": 0, "unsettled": 0})
            values[f"harness.{check}.instances"] = [counts["instances"]]
            values[f"harness.{check}.unsettled"] = [counts["unsettled"]]
    values["unsettled"] = [first["unsettled"]]
    values["trace.campaign_s"] = [s["campaign_s"] for s in traced]
    values["trace.overhead_s"] = runs["overhead"]
    return ({name: ("median", v) for name, v in values.items()},
            {name: _unit(name) for name in values})


def metadata(workload: str, seed: int, config: dict) -> dict:
    import numpy

    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        rev = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tensorcut").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "config": config,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "platform": platform.platform(), "git_revision": rev,
        "source_sha256": src.hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tensorcut" / "__init__.py").is_file():
        print(f"perfbench: no tensorcut sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    config = workload_config(args.workload, args.seed)
    meta = metadata(args.workload, args.seed, config)
    try:
        runs = collect(args.workload, args.seed, args.seconds, bool(args.trace), config)
    except Overrun as exc:
        # Too slow to measure: a failing result that names the problem.
        print(f"PROBLEM: {exc}")
        print("meta " + json.dumps(meta, sort_keys=True))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    samples = runs["plain"] + runs["traced"]

    problems = [p for s in samples for p in s["problems"]]
    problems += _check_digests(
        samples, f"{args.workload}/seed{args.seed}/{meta['source_sha256']}")
    if len({s["settled"] for s in samples}) != 1:
        problems.append("settled count differs between samples")
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)

    if args.trace:
        values, units = per_layer(runs)
    else:
        values, units = end_to_end(runs), END_TO_END_UNITS
    metrics = {name: {"value": STATISTICS[stat](v), "unit": units[name]}
               for name, (stat, v) in values.items()}

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(runs['plain'])} untraced + {len(runs['traced'])} traced campaign samples, "
          f"{len(runs['setup'])} set-up samples; {attempted} instances, {failed} failed")
    for name, (stat, v) in values.items():
        spread = f" [min {min(v):.6g}, max {max(v):.6g}]" if len(v) > 1 else ""
        print(f"{name} = {metrics[name]['value']:.6g} {units[name]} "
              f"({stat} of {len(v)}){spread}")
    for p in problems:
        print(f"PROBLEM: {p}")
    print("meta " + json.dumps(meta, sort_keys=True))
    correct = not problems and failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "meta": meta, "problems": problems,
                    "samples": {name: v for name, (_, v) in values.items()}},
                   indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
