#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 hwbench/run.py --workload <capture_stream|analyze_1m|ingest_fleet>
                           --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the hwprof libraries, the two
tools it drives and the hwbench program from source (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs hwbench, validates the traced
run's Chrome trace with tools/trace_event_check, writes a result file with
host context to <build>/results/, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see README.md). Exits non-zero without a result line when
the sources are missing or the build or hwbench fails.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("capture_stream", "analyze_1m", "ingest_fleet")
TARGETS = ("hwbench", "hwprof_analyze", "trace_event_check")
# hwbench's own deadline beyond --seconds: set-up, checks and teardown.
RUN_SLACK_S = 120


def fail(message):
    print("hwbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out_dir):
    """Configures (once) and builds the targets; returns the build log path."""
    if not os.path.isfile(os.path.join(REPO_ROOT, "src", "CMakeLists.txt")) or \
            not os.path.isfile(os.path.join(REPO_ROOT, "tools", "CMakeLists.txt")):
        fail("no hwprof sources next to %s" % BENCH_DIR)
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out_dir])
    steps.append(["cmake", "--build", out_dir, "-j", jobs, "--target"] + list(TARGETS))
    with open(log_path, "a") as log:
        for step in steps:
            rc = subprocess.call(step, stdout=log, stderr=subprocess.STDOUT)
            if rc != 0:
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                fail("build step failed: %s\n%s" % (" ".join(step), tail))
    return log_path


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        rev = subprocess.run(["git", "-C", REPO_ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", os.path.basename(BENCH_DIR)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(REPO_ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, REPO_ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()


def host_context(record):
    info = record.get("info", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "compiler": info.get("compiler", "unknown"),
        "build_type": info.get("build_type", "unknown"),
        "commit": source_revision(),
        "kernel": platform.release(),
        "python": platform.python_version(),
    }


def run_workload(out_dir, workload, seed, seconds, trace, extra=()):
    """Runs one hwbench workload; returns (record, work_dir)."""
    work_dir = os.path.join(out_dir, "run", "%s-seed%d-trace%d" % (workload, seed, trace))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    argv = [os.path.join(out_dir, "hwbench"), "--workload", workload,
            "--seed", str(seed), "--seconds", repr(float(seconds)),
            "--trace", str(trace), "--tools", os.path.join(out_dir, "hwprof_tools"),
            "--work-dir", work_dir] + list(extra)
    try:
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out" % workload)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s exited with %d" % (workload, proc.returncode))
    return json.loads(lines[-1]), work_dir


def check_trace(out_dir, work_dir, record):
    """Validates the traced run's Chrome trace and records the check."""
    checker = os.path.join(out_dir, "hwprof_tools", "trace_event_check")
    trace_path = os.path.join(work_dir, "trace.json")
    proc = subprocess.run([checker, trace_path], capture_output=True, text=True,
                          timeout=60)
    ok = proc.returncode == 0
    record["checks"]["trace.chrome_json_valid"] = ok
    record["attempted"] += 1
    if not ok:
        record["correct"] = False
        record["failed"] += 1
        record["failures"].append("trace.chrome_json_valid: " + proc.stdout + proc.stderr)
    return trace_path


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    out_dir = build_dir()
    build(out_dir)
    started = time.time()
    record, work_dir = run_workload(out_dir, args.workload, args.seed, args.seconds,
                                    args.trace)
    trace_path = check_trace(out_dir, work_dir, record) if args.trace else None

    line = {
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": record["metrics"],
    }
    results = os.path.join(out_dir, "results")
    os.makedirs(results, exist_ok=True)
    result_path = os.path.join(
        results, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(result_path, "w") as f:
        json.dump({"host": host_context(record), "workload": args.workload,
                   "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                   "wall_s": time.time() - started, "trace_file": trace_path,
                   "record": record, "result": line}, f, indent=1, sort_keys=True)
        f.write("\n")
    print("hwbench: %s seed %d: %s (result file %s)" % (
        args.workload, args.seed, "correct" if line["correct"] else "INCORRECT",
        result_path))
    print(json.dumps(line, sort_keys=True))


if __name__ == "__main__":
    main()
