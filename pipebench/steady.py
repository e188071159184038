#!/usr/bin/env python3
"""Steadiness report for the pipeline benchmark.

Runs each workload --runs times with seeds first-seed .. first-seed+runs-1,
each run in its own process through run.py, and prints for every
end-to-end metric the median, the quartiles (statistics.quantiles, n=4)
and the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json. Flags:

  OVER   the spread exceeds the bound
  WIDE   the spread exceeds a third of the bound, so the benchmark is not
         yet steady enough to prove
  DRIFT  with --sets 2, the second set's median is worse than the
         first's by more than the bound

For each latency percentile it also names the query that produced the
sample at that rank in each run, so a percentile that alternates between
two queries shows up.

    python3 pipebench/steady.py [--workloads a,b] [--runs 10] [--sets 1]
                                [--first-seed 1] [--seconds S]

Exits 1 when a metric is OVER or DRIFT, or a run was not correct.
"""

import argparse
import collections
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def results_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "pipebench" / "results"


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    record_path = results_dir() / f"{workload}_seed{seed}_trace0.json"
    if not record_path.is_file():
        sys.exit(f"steady: {workload} seed {seed} produced no result (exit {proc.returncode})")
    return json.loads(record_path.read_text())


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def report_set(workload, records, metrics):
    print(f"\n== {workload}: {len(records)} runs, seeds "
          f"{records[0]['seed']}..{records[-1]['seed']}")
    print(f"  {'metric':<18} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    medians, flagged = {}, False
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in records]
        median, q1, q3, s = spread(values)
        medians[m["name"]] = median
        flag = ""
        if s > m["bound"]:
            flag, flagged = "OVER", True
        elif s > m["bound"] / 3:
            flag = "WIDE"
        print(f"  {m['name']:<18} {m['unit']:<6} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{s:>8.4f} {m['bound']:>6} {flag}")
    for pct in ("p50", "p99"):
        names = [r["detail"].get(f"{pct}_query", "?") for r in records]
        counts = collections.Counter(names).most_common()
        shown = ", ".join(f"{n} x{c}" for n, c in counts[:6])
        print(f"  {pct} rank query: {shown}{' ...' if len(counts) > 6 else ''}")
    bad = [r["seed"] for r in records if not r["correct"]]
    if bad:
        print(f"  NOT CORRECT on seeds {bad}")
        flagged = True
    return medians, flagged


def main():
    reg = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in reg["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=reg["run_seconds"])
    args = parser.parse_args()
    metrics = reg["end_to_end"]
    failed = False
    for workload in args.workloads.split(","):
        set_medians = []
        for _ in range(args.sets):
            records = [run_once(workload, args.first_seed + i, f"{args.seconds:g}")
                       for i in range(args.runs)]
            medians, flagged = report_set(workload, records, metrics)
            set_medians.append(medians)
            failed |= flagged
        if args.sets == 2:
            for m in metrics:
                first, second = set_medians[0][m["name"]], set_medians[1][m["name"]]
                worse = (second - first) if m["better"] == "lower" else (first - second)
                change = worse / first if first else 0.0
                flag = "DRIFT" if change > m["bound"] else ""
                failed |= bool(flag)
                print(f"  second set vs first {m['name']:<18} {change:+.4f} (bound {m['bound']}) {flag}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
