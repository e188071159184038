#!/usr/bin/env python3
"""Pipeline benchmark: builds the driver from source and runs a workload.

    python3 pipebench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 pipebench/run.py --workload all     # every workload, each in its own process
    python3 pipebench/run.py --selftest         # the benchmark's own tests

Run it from the repository root. The build goes to
$CARGO_TARGET_DIR/pipebench (default .bench_build/pipebench). Every metric
is printed as "name value unit"; the last line of stdout is the JSON result
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The
full record of a run (metrics, latency sample counts and the query behind
each percentile, machine and build metadata) is written to
results/<workload>_seed<N>_trace<T>.json in the build directory. See
pipebench/README.md.
"""

import argparse
import contextlib
import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "pipebench"
SNAPSHOT = "clustered-100k.qsnap"
# One run must end within 180 s; the driver normally takes well under a
# minute.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"pipebench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "pipebench"


def registry():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


@contextlib.contextmanager
def locked(bdir):
    """Serializes builds and snapshot writes of concurrent runs."""
    bdir.mkdir(parents=True, exist_ok=True)
    with open(bdir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        yield


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no library sources under src/; run from a full checkout")
    bdir = build_dir()
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(bdir), "-j", jobs, "--target", *targets])
    with locked(bdir):
        log_path = bdir / "build.log"
        with open(log_path, "w") as log:
            for step in steps:
                try:
                    code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode
                except OSError as e:
                    fail(f"cannot run {step[0]}: {e}")
                if code != 0:
                    log.flush()
                    tail = log_path.read_text(errors="replace").splitlines()[-30:]
                    print("\n".join(tail), file=sys.stderr)
                    fail(f"build failed: {' '.join(step)}")
    return bdir


def snapshot_path(bdir, driver):
    """The serving snapshot, written once by a separate driver process so
    that corpus generation never counts in a measured run's memory."""
    path = bdir / "data" / SNAPSHOT
    with locked(bdir):
        if not path.is_file():
            path.parent.mkdir(parents=True, exist_ok=True)
            code = subprocess.run([str(driver), "--prepare-snapshot", str(path)],
                                  timeout=RUN_TIMEOUT_S).returncode
            if code != 0:
                fail("cannot write the serving snapshot", 1)
    return path


def source_digest():
    """SHA-256 over the library and benchmark sources: names the code
    measured when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for base in ("src", "pipebench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(b"\0")
                digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    # The ceiling keeps git from searching directories above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def check_metrics(metrics, reg, trace, errors):
    """Orders the driver's metrics as registered. A layer a workload does
    not run reads 0; a missing end-to-end metric, an unregistered name or
    a unit mismatch is an error."""
    wanted = {m["name"]: m["unit"] for m in reg["per_layer" if trace else "end_to_end"]}
    for name, metric in metrics.items():
        if name not in wanted:
            errors.append(f"metric {name} is not registered in BENCHMARK.json")
        elif metric["unit"] != wanted[name]:
            errors.append(f"metric {name} has unit {metric['unit']}, registered {wanted[name]}")
    out = {}
    for name, unit in wanted.items():
        if name in metrics:
            out[name] = {"value": metrics[name]["value"], "unit": unit}
        elif trace:
            out[name] = {"value": 0.0, "unit": unit}
        else:
            errors.append(f"end-to-end metric {name} is missing")
    return out


def run_workload(name, seed, seconds, trace, reg):
    bdir = build(["pipebench_driver"])
    driver = bdir / "pipebench_driver"
    results = bdir / "results"
    results.mkdir(parents=True, exist_ok=True)
    cmd = [str(driver), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out-dir", str(results)]
    if name == "serve_open_zipf":
        cmd += ["--snapshot", str(snapshot_path(bdir, driver))]
    env = dict(os.environ, QEC_LOG_LEVEL="warning")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{name}: the driver did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{name}: the driver printed no result (exit {proc.returncode})", 1)
    errors = list(record.get("errors", []))
    record["metrics"] = check_metrics(record["metrics"], reg, trace, errors)
    record["errors"] = errors
    record["correct"] = bool(record["correct"]) and not errors and proc.returncode == 0
    detail = record.setdefault("detail", {})
    detail["meta"] = dict(detail.get("meta", {}), workload=name, seed=seed,
                          seconds=seconds, trace=trace, git_commit=git_commit(),
                          source_sha256=source_digest())
    record.update(workload=name, seed=seed, trace=trace)
    out = results / f"{name}_seed{seed}_trace{trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    return record


def print_record(record):
    detail = record["detail"]
    print(f"== {record['workload']} seed={record['seed']} trace={record['trace']}: "
          f"correct={record['correct']} attempted={record['attempted']} "
          f"failed={record['failed']}")
    for name, metric in record["metrics"].items():
        print(f"  {name:<36} {metric['value']:<14.6g} {metric['unit']}")
    if "samples" in detail:
        print(f"  latency samples {detail['samples']}: p50 from {detail['p50_query']!r}, "
              f"p99 from {detail['p99_query']!r}")
    meta = detail["meta"]
    print(f"  {meta.get('cpu_model')} x{meta.get('nproc')}, {meta.get('compiler')} "
          f"{meta.get('build_type')}, simd {meta.get('simd_tier')}, "
          f"commit {meta['git_commit']}, sources {meta['source_sha256'][:12]}")
    for error in record["errors"]:
        print(f"  ERROR: {error}")


def contract_line(record):
    return json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")})


def main():
    reg = registry()
    names = [w["name"] for w in reg["workloads"]]
    parser = argparse.ArgumentParser(description="Pipeline benchmark (pipebench/README.md)")
    parser.add_argument("--workload", help=f"one of {', '.join(names)}, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=reg["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="run the benchmark's own tests")
    args = parser.parse_args()
    seconds = f"{args.seconds:g}"

    if args.selftest:
        bdir = build(["pipebench_selftest"])
        return subprocess.run([str(bdir / "pipebench_selftest")]).returncode
    if args.workload == "all":
        records = [run_workload(n, args.seed, seconds, args.trace, reg) for n in names]
        for record in records:
            print_record(record)
        summary = {
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()},
        }
        print(json.dumps(summary))
        return 0 if summary["correct"] else 1
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(names)} or all")
    record = run_workload(args.workload, args.seed, seconds, args.trace, reg)
    print_record(record)
    print(contract_line(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
