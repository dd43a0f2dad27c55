#!/usr/bin/env python3
"""Self-test of the benchmark itself.

For every workload it makes three traced runs: two with one seed and one
with the next seed. It then checks that

* every run passed its own output checks;
* every deterministic count is identical across the two same-seed runs;
* the counts the seed should move (SEED_SENSITIVE) change when it
  changes, unless they are below MIN_CHANGING and may repeat by chance;
* no row of the traced layer table is negative (a negative residual row
  such as core.loop_self means a span was counted twice), and the
  remainder is at most MAX_REMAINDER_SHARE of the traced wall time;
* the printed table plus its remainder adds up to the printed traced
  wall time (a check on the printing: the remainder is defined so).

Run from the repository root:

    python3 perfbench/selftest.py [--seconds 2] [--seed 5] [--workload NAME]

It uses the command recorded in BENCHMARK.json, so it builds the benchmark
if needed. Exits 0 when every check holds.
"""

import argparse
import json
import os
import re
import subprocess
import sys

WORKLOADS = ["paper_sweep", "population_campaign", "serve_open_loop"]

# Counts that depend only on the inputs, never on timing: identical for
# one seed.
DETERMINISTIC = [
    "core.events",
    "client.rr_queries",
    "client.rr_runs",
    "client.rr_frozen",
    "client.peak_jobs",
    "server.rpcs",
    "avail.flaps_coalesced",
    "avail.resched_skipped",
    "controller.ckpt_writes",
    "controller.ckpt_bytes",
    "serve.accepted",
    "serve.responses_2xx",
    "serve.emu_rr_runs",
]

# Of those, the ones the seed must move. Left out: counts fixed by the
# workload's input size (a campaign writes a generation every CKPT_EVERY
# of a fixed number of runs, in fixed-width records; the open loop sends a
# fixed number of requests so that its offered rate is exact) and the
# peak queue length, which the work-buffer preferences cap.
SEED_SENSITIVE = [
    "core.events",
    "client.rr_queries",
    "client.rr_runs",
    "client.rr_frozen",
    "server.rpcs",
    "avail.flaps_coalesced",
    "avail.resched_skipped",
    "serve.emu_rr_runs",
]

# The benchmark fails a run whose layer table leaves more than this share
# of the traced wall unexplained; checked here again from the printout.
MAX_REMAINDER_SHARE = 0.05

# A count this small can repeat across seeds by chance, so only larger
# ones must change.
MIN_CHANGING = 100

LAYER_ROW = re.compile(r"^\s+layer (\S+)\s+(-?[0-9.]+) ms$")
WALL_ROW = re.compile(r"^\s+traced_wall\s+(-?[0-9.]+) ms$")


def run(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "1"]
    # Build where the benchmark's own runs build, unless told otherwise.
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900, env=env)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    rows, wall = {}, None
    for line in lines:
        if m := LAYER_ROW.match(line):
            rows[m.group(1)] = float(m.group(2))
        elif m := WALL_ROW.match(line):
            wall = float(m.group(1))
    return result, rows, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=2)
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--workload", choices=WORKLOADS, action="append")
    opts = ap.parse_args()
    with open("BENCHMARK.json") as f:
        command = json.load(f)["command"]

    problems = []
    for w in opts.workload or WORKLOADS:
        a, rows, wall = run(command, w, opts.seed, opts.seconds)
        b, _, _ = run(command, w, opts.seed, opts.seconds)
        c, _, _ = run(command, w, opts.seed + 1, opts.seconds)
        for name, r in (("first", a), ("repeat", b), ("next seed", c)):
            if not r["correct"] or r["failed"]:
                problems.append(f"{w} {name} run: {r['failed']} of {r['attempted']} failed")
        value = lambda r, k: r["metrics"][k]["value"]
        counts = [k for k in DETERMINISTIC if value(a, k) != 0]
        for k in counts:
            if value(a, k) != value(b, k):
                problems.append(f"{w} {k}: {value(a, k)} then {value(b, k)} with one seed")
            if k in SEED_SENSITIVE and value(a, k) >= MIN_CHANGING and value(a, k) == value(c, k):
                problems.append(f"{w} {k}: {value(a, k)} for seeds {opts.seed} and {opts.seed + 1}")
        if rows:
            for row, v in rows.items():
                if v < 0:
                    problems.append(f"{w} layer {row}: negative self time {v} ms")
            total = sum(rows.values())
            # Rows are printed to 0.001 ms.
            if wall is None or abs(total - wall) > 0.001 * (len(rows) + 1):
                problems.append(f"{w} layer table sums to {total:.3f} ms, traced wall {wall} ms")
            elif rows.get("remainder", 0) > MAX_REMAINDER_SHARE * wall:
                problems.append(f"{w} remainder {rows['remainder']} ms of a {wall} ms traced "
                                f"wall is over {MAX_REMAINDER_SHARE:.0%}")
        elif w != "serve_open_loop":
            problems.append(f"{w}: no traced layer table")
        print(f"{w}: {len(counts)} deterministic counts compared, "
              f"layer table of {len(rows)} rows")

    for p in problems:
        print("FAIL", p)
    print("selftest", "FAILED" if problems else "passed")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
