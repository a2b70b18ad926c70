#!/usr/bin/env python3
"""CI perf smoke for bench/bench_parallel_site (DESIGN.md §14).

Reads a BENCH_parallel_site.json and fails if
  * the regex fast path (Pattern::matches_basic, used by every drain) does
    not clear the speedup floor over the generic std::regex matcher
    (Pattern::matches_reference), both timed over the bench's own tuples in
    the same binary and run, so the ratio survives hardware changes between
    CI runners;
  * the gated drain row (in-process, workers=4 by default) is missing;
  * any drain row returned a result count other than the expected one.

Each row's speedup_vs_serial (parallel vs the serial drain on the same
transport) is printed but not gated.

Usage:
    check_bench_speedup.py BENCH_parallel_site.json [--min-speedup 2.0]
                           [--workers 4] [--transport inproc]

Exit codes: 0 pass, 1 floor missed, row absent or wrong answer,
2 unreadable input.
"""

from __future__ import annotations

import argparse
import json
import sys

REGEX_ROW = "regex_fast_path"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("json_path", help="BENCH_parallel_site.json to check")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="floor for regex_fast_path_speedup (default 2.0)")
    parser.add_argument("--workers", type=int, default=4,
                        help="worker count of the required row (default 4)")
    parser.add_argument("--transport", default="inproc",
                        help="transport of the required row (default inproc)")
    args = parser.parse_args(argv)

    try:
        with open(args.json_path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {args.json_path}: {e}", file=sys.stderr)
        return 2

    rows = {r.get("config"): r for r in data.get("records", [])}
    failed = False

    want = f"{args.transport},workers={args.workers}"
    if want not in rows:
        print(f"FAIL: no record '{want}' in {args.json_path} "
              f"(have: {sorted(rows)})", file=sys.stderr)
        failed = True

    for config, row in sorted(rows.items()):
        counters = row.get("counters", {})
        if "expected_results" not in counters:
            continue
        results = counters.get("results")
        expected = counters["expected_results"]
        print(f"{config}: {row.get('mean', 0):.2f} ms, results={results:.0f}, "
              f"speedup_vs_serial={counters.get('speedup_vs_serial', 0):.2f}")
        if results != expected:
            print(f"FAIL: {config} returned {results:.0f} results, "
                  f"expected {expected:.0f}", file=sys.stderr)
            failed = True

    regex = rows.get(REGEX_ROW, {}).get("counters", {})
    speedup = regex.get("regex_fast_path_speedup")
    if speedup is None:
        print(f"FAIL: no '{REGEX_ROW}' record with regex_fast_path_speedup",
              file=sys.stderr)
        return 1
    print(f"{REGEX_ROW}: regex_fast_path_speedup={speedup:.2f} "
          f"(floor {args.min_speedup:.2f}, "
          f"hardware_threads={regex.get('hardware_threads', 0):.0f})")
    if speedup < args.min_speedup:
        print(f"FAIL: {speedup:.2f} < {args.min_speedup:.2f} — the regex fast "
              "path regressed against the std::regex matcher", file=sys.stderr)
        failed = True

    if failed:
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
