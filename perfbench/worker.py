"""Samples of a campaign workload: set-up, timed campaigns, output checks.

``run.py`` starts this file in a fresh interpreter, so the set-up time
includes ``import tensorcut`` and the catalog enumeration that every CLI
run pays.  Usage: ``python3 perfbench/worker.py SPEC.json``; the
result is printed as one JSON line.  Tests call ``run_sample`` in-process.

Spec keys: ``src`` (directory holding the tensorcut package), ``config``
(CampaignConfig fields), ``report`` (JSONL path to write), ``seed``,
``trace`` (trace the set-up, then run an untraced, a traced and another
untraced campaign), ``setup_only``, ``min_campaigns`` and
``campaign_seconds`` (how often to repeat the campaign after one set-up),
``stop_after_s`` (start no campaign that would end later than this after
the process started) and ``crosscheck`` (how many settled theorem1 values
to recompute with networkx).

``python3 perfbench/worker.py --reference REPORT.jsonl`` prints the
enumeration fields of a report in the format of ``REFERENCE``.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import random
import resource
import sys
import time
import traceback
from pathlib import Path

STATUSES = ("ok", "mismatch", "inconclusive")

# Enumeration fields of the records the seed code settled on ``desk``.
REFERENCE = Path(__file__).resolve().parent / "enumeration.json"

# Record fields that come from the min-cut enumeration, per check.
ENUMERATION_FIELDS = {"theorem2": ("cuts", "verdicts", "canonical_cut_seen"),
                      "corollary2": ("bruteforce",)}


def _import_package(src: str):
    if src not in sys.path:
        sys.path.insert(0, src)
    importlib.import_module("tensorcut")
    return (importlib.import_module("tensorcut.harness"),
            importlib.import_module("tensorcut.catalog"))


def build_corpora(config, catalog) -> dict[str, list]:
    """The factor lists the campaign will cross, read from the catalog.

    Returns G, dense H and all H (the last only for weichsel), which also
    give the expected instance count.
    """
    if (config.g_source, config.h_source) != ("enumerate", "enumerate"):
        raise ValueError("the benchmark enumerates both factors")
    g_list = [g for n in range(2, config.max_g_order + 1)
              for g in catalog.connected_graphs(n)]
    h_all = [h for n in range(3, config.max_h_order + 1) for h in catalog.all_graphs(n)]
    h_dense = [h for h in h_all if 2 * h.min_degree() > h.n]
    return {"g": g_list, "h_dense": h_dense, "h_all": h_all}


def expected_instances(config, corpora: dict[str, list]) -> dict[str, int]:
    """Instances per check: |G| times the second factors that check uses."""
    complete = [h for h in corpora["h_dense"] if len(h.edges) == h.n * (h.n - 1) // 2]
    per_h = {"weichsel": len(corpora["h_all"]), "corollary1": len(complete),
             "corollary2": len(complete)}
    return {c: len(corpora["g"]) * per_h.get(c, len(corpora["h_dense"]))
            for c in config.checks}


def records_digest(lines: list[str]) -> str:
    """sha256 over the report lines with the timing field ``ms`` removed."""
    h = hashlib.sha256()
    for line in lines:
        rec = json.loads(line)
        rec.pop("ms", None)
        h.update(json.dumps(rec, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def enumeration_fields(records: list[dict]) -> dict[str, dict]:
    """"check g h" -> the enumeration-derived fields of each settled record."""
    return {f"{r['check']} {r['g']} {r['h']}":
            {f: r[f] for f in ENUMERATION_FIELDS[r["check"]] if f in r}
            for r in records
            if r.get("check") in ENUMERATION_FIELDS and r.get("status") != "inconclusive"}


def _nx_kappa(g6: str, h6: str) -> int:
    import networkx as nx

    g = nx.from_graph6_bytes(g6.encode("ascii"))
    h = nx.from_graph6_bytes(h6.encode("ascii"))
    return nx.edge_connectivity(nx.tensor_product(g, h))


def check_report(lines: list[str], expected: dict[str, int], seed: int,
                 crosscheck: int, reference: dict[str, dict]) -> dict:
    """Failures, settled counts and consistency problems of one report."""
    problems: list[str] = []
    records = [json.loads(line) for line in lines]
    summary = records.pop() if records and records[-1].get("record") == "summary" else None
    if summary is None:
        problems.append("report has no summary line")
    per_check = {c: {"instances": 0, "unsettled": 0} for c in expected}
    mismatches = 0
    for rec in records:
        check, status = rec.get("check"), rec.get("status")
        if check not in per_check or status not in STATUSES:
            problems.append(f"unexpected record {check!r} / {status!r}")
            continue
        per_check[check]["instances"] += 1
        per_check[check]["unsettled"] += status == "inconclusive"
        mismatches += status == "mismatch"
        if check == "theorem1" and status != "inconclusive":
            agree = rec["formula"] == rec["oracle"]
            if agree != (status == "ok"):
                problems.append(f"theorem1 status {status} disagrees with "
                                f"formula {rec['formula']} / oracle {rec['oracle']}")
    missing = 0
    for check, want in expected.items():
        got = per_check[check]["instances"]
        if got != want:
            problems.append(f"{check}: {got} records, expected {want}")
            missing += max(0, want - got)
    if summary is not None and summary.get("instances") != len(records):
        problems.append("summary instance count disagrees with the records")

    # Recompute a seeded sample of settled oracle values independently.
    settled_t1 = [r for r in records
                  if r.get("check") == "theorem1" and r.get("status") != "inconclusive"]
    rng = random.Random(seed)
    for rec in rng.sample(settled_t1, min(crosscheck, len(settled_t1))):
        value = _nx_kappa(rec["g"], rec["h"])
        if value != rec["oracle"]:
            problems.append(f"theorem1 oracle {rec['oracle']} for {rec['g']} x "
                            f"{rec['h']}, networkx gives {value}")

    # Every settled record the reference knows must repeat its enumeration.
    for key, got in enumeration_fields(records).items():
        want = reference.get(key)
        if want is not None and got != want:
            problems.append(f"{key}: enumeration fields {got}, reference {want}")

    unsettled = sum(v["unsettled"] for v in per_check.values())
    return {
        "failed": mismatches + missing,
        "unsettled": unsettled,
        "settled": len(records) - unsettled,
        "per_check": per_check,
        "digest": records_digest(lines),
        "problems": problems,
    }


def _campaign(harness, config, report_path: str) -> tuple[float, str | None]:
    """Time run_campaign plus write_jsonl; a raised exception is returned."""
    t0 = time.perf_counter()
    try:
        with open(report_path, "w", encoding="utf-8") as fh:
            report = harness.run_campaign(config)
            harness.write_jsonl(report, fh)
    except Exception:  # a campaign that raises fails all its instances
        return time.perf_counter() - t0, traceback.format_exc()
    return time.perf_counter() - t0, None


def run_sample(spec: dict) -> dict:
    """Set up once, then run the campaign ``min_campaigns`` times or more.

    Campaigns repeat in the same process until ``campaign_seconds`` have
    passed.  With ``trace`` the set-up is traced and the campaigns go
    untraced, traced, untraced, so the tracer's overhead is measured
    against its neighbours in the same process.  Each report is read back
    after its timed region and checked once all campaigns are done, after
    the peak RSS has been taken.
    """
    t0 = time.perf_counter()
    harness, catalog = _import_package(spec["src"])
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        config = harness.CampaignConfig(**{**spec["config"],
                                           "checks": tuple(spec["config"]["checks"])})
        corpora = build_corpora(config, catalog)
        setup_s = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    if spec.get("setup_only"):
        return {"setup_s": setup_s}

    if tracer is not None:  # untraced, traced, untraced; at least the first two
        min_campaigns, campaign_seconds, needed = 3, 0.0, 2
    else:
        min_campaigns, campaign_seconds, needed = (
            spec.get("min_campaigns", 1), spec.get("campaign_seconds", 0.0), 1)
    stop_after = spec.get("stop_after_s", math.inf)
    runs: list[tuple[float, str | None, list[str], bool]] = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(runs) % 2 == 1
        if traced:
            tracer.install()
        try:
            seconds, error = _campaign(harness, config, spec["report"])
        finally:
            if traced:
                tracer.uninstall()
        lines = []
        if error is None:
            with open(spec["report"], encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        runs.append((seconds, error, lines, traced))
        now = time.perf_counter()
        mean = (now - start) / len(runs)
        if len(runs) >= min_campaigns and now - start + mean > campaign_seconds:
            break
        # A slow run keeps the samples it has rather than miss its deadline.
        if len(runs) >= needed and now - t0 + mean > stop_after:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    expected = expected_instances(config, corpora)
    attempted = sum(expected.values())
    campaigns = []
    for i, (seconds, error, lines, traced) in enumerate(runs):
        if error is None:
            crosscheck = spec.get("crosscheck", 0) if i == 0 else 0
            outcome = check_report(lines, expected, spec["seed"], crosscheck, reference)
        else:
            outcome = {"failed": attempted, "unsettled": 0, "settled": 0,
                       "per_check": {c: {"instances": 0, "unsettled": 0} for c in expected},
                       "digest": None, "problems": [f"campaign raised:\n{error}"]}
        campaigns.append({"campaign_s": seconds, "traced": traced, "attempted": attempted,
                          **outcome})
    return {
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "campaigns": campaigns,
        "layers": tracer.metrics() if tracer is not None else None,
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["--reference"]:
        with open(argv[1], encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        print(json.dumps(enumeration_fields(records), indent=1, sort_keys=True))
        return 0
    with open(argv[0], encoding="utf-8") as fh:
        spec = json.load(fh)
    print(json.dumps(run_sample(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
