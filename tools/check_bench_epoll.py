#!/usr/bin/env python3
"""CI gate for the socket transport's connection scaling (DESIGN.md §17).

Reads a BENCH_epoll.json produced by bench/bench_epoll and fails unless,
at every measured configuration of 100+ connections, the transport:

  * delivered every frame it was sent (no silent loss under load),
  * held a bounded fd count (at most --fd-slack fds beyond the ~2 per
    connection the deployment itself opens — i.e. no leak),
  * ran exactly as many threads as at 5 connections (one event loop holds
    every connection; threads must not grow with connections), and
  * sustained at least MIN_RATIO (0.5) of the same run's
    5-connection throughput (scaling out connections must not collapse
    the rate).

The 5-connection row is the baseline because it is measured in the same
run on the same host. (The floor used to be the retired thread-per-
connection backend's 5-connection rate; EXPERIMENTS.md freezes it.)

The bench binary itself exits nonzero when any configuration loses frames,
so by the time this script runs a fresh artifact, delivery has usually
already been established — the check here also covers stale or hand-edited
artifacts.

Usage:
    check_bench_epoll.py BENCH_epoll.json [--min-conns 100] [--fd-slack 64]

Exit codes: 0 pass, 1 floor missed or row absent, 2 unreadable input.
"""

from __future__ import annotations

import argparse
import json
import sys

# A 100+ connection row must keep at least this share of the 5-connection
# rate. The thread-per-connection design sustained 0.44-0.57x of it
# (EXPERIMENTS.md), so 0.5 rejects a loop that scales no better.
MIN_RATIO = 0.5


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("json_path", help="BENCH_epoll.json to check")
    parser.add_argument("--min-conns", type=int, default=100,
                        help="connection floor for gated epoll rows "
                             "(default 100)")
    parser.add_argument("--fd-slack", type=int, default=64,
                        help="fds allowed beyond 2 per connection "
                             "(default 64)")
    args = parser.parse_args(argv)

    try:
        with open(args.json_path, encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {args.json_path}: {e}", file=sys.stderr)
        return 2

    records = data.get("records", [])
    rows = {r.get("config"): r for r in records}

    baseline = rows.get("epoll,conns=5")
    if baseline is None:
        print(f"error: no 'epoll,conns=5' record in {args.json_path} "
              f"(have: {sorted(rows)})", file=sys.stderr)
        return 1
    floor = MIN_RATIO * baseline.get("mean", 0.0)
    base_threads = baseline.get("counters", {}).get("threads", -1)

    gated = [r for r in records
             if r.get("config", "").startswith("epoll,")
             and r.get("counters", {}).get("conns", 0) >= args.min_conns]
    if not gated:
        print(f"error: no epoll record with conns >= {args.min_conns} in "
              f"{args.json_path}", file=sys.stderr)
        return 1

    ok = True
    for row in gated:
        config = row["config"]
        counters = row.get("counters", {})
        conns = counters.get("conns", 0)
        delivered = counters.get("delivered", 0)
        expected = counters.get("expected", -1)
        fds = counters.get("fds", 0)
        threads = counters.get("threads", -1)
        fd_ceiling = 2 * conns + args.fd_slack
        rate = row.get("mean", 0.0)
        print(f"{config}: {rate:.0f} msgs/s (floor {floor:.0f}), "
              f"fds {fds:.0f} (ceiling {fd_ceiling:.0f}), "
              f"threads {threads:.0f} (5 conns: {base_threads:.0f}), "
              f"delivered {delivered:.0f}/{expected:.0f}")
        if delivered != expected:
            print(f"FAIL: {config} lost frames under load", file=sys.stderr)
            ok = False
        if fds > fd_ceiling:
            print(f"FAIL: {config} holds {fds:.0f} fds > ceiling "
                  f"{fd_ceiling:.0f} — the transport is leaking descriptors",
                  file=sys.stderr)
            ok = False
        if threads != base_threads:
            print(f"FAIL: {config} runs {threads:.0f} threads, the "
                  f"5-connection row {base_threads:.0f} — threads grow with "
                  f"connections", file=sys.stderr)
            ok = False
        if rate < floor:
            print(f"FAIL: {config} sustains {rate:.0f} msgs/s < "
                  f"{MIN_RATIO} x the 5-connection rate "
                  f"({floor:.0f})", file=sys.stderr)
            ok = False

    if not ok:
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
