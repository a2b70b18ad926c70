#!/usr/bin/env python3
"""CI gate for availability under a primary kill (DESIGN.md §18).

Reads a BENCH_availability.json produced by bench/bench_availability and
fails unless, in every measured cell (detector × replication):

  * **zero wrong results, ever** — a query during the kill window is
    either exact or a duplicate-free subset flagged `partial`; a cell
    with `wrong > 0` fails regardless of its success rate, and so does
    `failed > 0` (a hung or errored query);
  * **no query waited for the TTL** — the worst query latency (`max_ms`)
    stays below the cell's `context_ttl_ms`: a query whose weight was lost
    must be answered partial by a failure signal, not by the idle-context
    sweep;

and additionally, in every *replicated* cell:

  * **--min-success of queries completed usefully** — exact or honestly
    partial, across the whole workload (healthy, dead, and revived
    phases together; default 0.99);
  * **failover actually served** — at least one exact answer arrived
    while the primary was still dead (`failovers > 0` and a positive
    `failover_ms`; -1 means no exact answer during the dead window), so
    the success rate can't be met by partials alone;
  * **failover came from the failure signal** — `failover_ms` is below
    the cell's `suspect_after_ms`: the dead primary was noticed through
    its failed sends, not by waiting out the silence window.

The control cells (replication off) are the contrast, not the product:
they must stay honest (zero wrong, zero hung) but are exempt from the
success floor — without a replica, every dead-window query is partial.

Usage:
    check_bench_availability.py BENCH_availability.json [--min-success 0.99]

Exit codes: 0 pass, 1 floor missed or row absent, 2 unreadable input.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("json_path", help="BENCH_availability.json to check")
    parser.add_argument("--min-success", type=float, default=0.99,
                        help="minimum (exact+partial)/attempted in every "
                             "replicated cell (default 0.99)")
    args = parser.parse_args(argv)

    try:
        with open(args.json_path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {args.json_path}: {e}", file=sys.stderr)
        return 2

    records = data.get("records", [])
    replicated = [r for r in records
                  if r.get("counters", {}).get("replicated", 0) > 0]
    if not replicated:
        print(f"error: no replicated cell in {args.json_path} "
              f"(have: {sorted(r.get('config', '?') for r in records)})",
              file=sys.stderr)
        return 1

    ok = True
    for row in records:
        config = row.get("config", "?")
        c = row.get("counters", {})
        attempted = c.get("attempted", 0)
        wrong = c.get("wrong", 0)
        failed = c.get("failed", 0)
        rate = c.get("success_rate", 0.0)
        is_replicated = c.get("replicated", 0) > 0
        print(f"{config}: attempted {attempted:.0f}, "
              f"success {rate:.4f}, wrong {wrong:.0f}, failed {failed:.0f}, "
              f"failover {c.get('failover_ms', 0):.1f}ms, "
              f"revived {c.get('revived_ms', 0):.1f}ms, "
              f"max latency {c.get('max_ms', 0):.1f}ms")
        if attempted <= 0:
            print(f"FAIL: {config} attempted no queries", file=sys.stderr)
            ok = False
            continue
        missing = [k for k in ("suspect_after_ms", "context_ttl_ms",
                               "max_ms") if k not in c]
        if missing:
            print(f"FAIL: {config} lacks counter(s) {missing}",
                  file=sys.stderr)
            ok = False
            continue
        if c["max_ms"] >= c["context_ttl_ms"]:
            print(f"FAIL: {config} worst query took {c['max_ms']:.1f}ms >= "
                  f"the {c['context_ttl_ms']:.0f}ms context TTL — a query "
                  f"waited for the idle sweep instead of a failure signal",
                  file=sys.stderr)
            ok = False
        if wrong > 0:
            print(f"FAIL: {config} returned {wrong:.0f} wrong result(s) — "
                  f"a failed-over answer must be exact or flagged partial, "
                  f"never silently wrong", file=sys.stderr)
            ok = False
        if failed > 0:
            print(f"FAIL: {config} hung or errored {failed:.0f} query(ies)",
                  file=sys.stderr)
            ok = False
        if not is_replicated:
            continue
        if rate < args.min_success:
            print(f"FAIL: {config} success rate {rate:.4f} < floor "
                  f"{args.min_success}", file=sys.stderr)
            ok = False
        if c.get("failovers", 0) <= 0:
            print(f"FAIL: {config} never routed a query to the replica — "
                  f"the kill was not actually survived by failover",
                  file=sys.stderr)
            ok = False
        if c.get("failover_ms", -1) <= 0:
            print(f"FAIL: {config} served no exact answer while the "
                  f"primary was dead", file=sys.stderr)
            ok = False
        elif c["failover_ms"] >= c["suspect_after_ms"]:
            print(f"FAIL: {config} failed over after "
                  f"{c['failover_ms']:.1f}ms >= the "
                  f"{c['suspect_after_ms']:.0f}ms silence window — the "
                  f"death was noticed by silence, not by a failure signal",
                  file=sys.stderr)
            ok = False

    if not ok:
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
