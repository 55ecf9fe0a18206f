#!/usr/bin/env python3
"""Run the full desk-scale verification campaign and write a JSONL report.

All six checks over every connected first factor on 2..5 vertices crossed
with every dense second factor on 3..5 vertices, against the max-flow oracle
and the exact minimum-cut enumeration, so no instance is left inconclusive.
Both factor lists are enumerated, so no seed applies: the summary's `seed`
is always 0.
Exit status: 0 all pass, 1 counterexample found, 2 bad input.
"""

import argparse
import sys
import time

from tensorcut.harness import (
    CHECK_NAMES,
    CampaignConfig,
    parse_checks,
    run_campaign,
    write_csv,
    write_jsonl,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-g-order", type=int, default=5)
    parser.add_argument("--max-h-order", type=int, default=5)
    parser.add_argument("--checks", default=",".join(CHECK_NAMES))
    parser.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    parser.add_argument("--output", "-o", default="verification_report.jsonl")
    args = parser.parse_args()

    try:
        config = CampaignConfig(
            max_g_order=args.max_g_order,
            max_h_order=args.max_h_order,
            checks=parse_checks(args.checks),
        )
        t0 = time.perf_counter()
        report = run_campaign(config)
        elapsed = time.perf_counter() - t0

        writer = write_csv if args.format == "csv" else write_jsonl
        with open(args.output, "w", encoding="utf-8") as fh:
            writer(report, fh)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    s = report.summary
    print(
        f"{s['instances']} instances in {elapsed:.1f}s | "
        f"mismatches={s['mismatches']} inconclusive={s['inconclusive']} "
        f"exceptional_sightings={s['exceptional_sightings']} -> {args.output}"
    )
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
