#!/usr/bin/env python3
"""Smoke test for the benchmark itself.

    python3 hwbench/smoke_test.py

Builds like run.py, runs every workload briefly (untraced and traced) and
expects each run correct with every metric present; then proves the checks
fire: each workload rerun with --tamper, and a corrupted trace file, must
fail the named checks. Exits 0 when everything behaves.
"""

import importlib.util
import json
import os
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
spec = importlib.util.spec_from_file_location("hwbench_run", os.path.join(HERE, "run.py"))
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)

SECONDS = 2
SEED = 7
# The checks --tamper must make fail, per workload.
TAMPER_FAILS = {
    "capture_stream": ["capture.decodes_to_drained_events"],
    "analyze_1m": ["analyze.jobs1_exit_0", "analyze.exit_0", "analyze.no_anomalies"],
    "ingest_fleet": ["ingest.no_malformed", "ingest.cached_summaries_match_offline"],
}


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = {0: {m["name"] for m in bench["end_to_end"]},
              1: {m["name"] for m in bench["per_layer"]}}
    out_dir = run.build_dir()
    run.build(out_dir)
    problems = []

    for workload in run.WORKLOADS:
        for trace in (0, 1):
            record, work_dir = run.run_workload(out_dir, workload, SEED, SECONDS, trace)
            if trace:
                run.check_trace(out_dir, work_dir, record)
            missing = wanted[trace] - set(record["metrics"])
            label = "%s trace=%d" % (workload, trace)
            if not record["correct"] or record["failed"] or missing:
                problems.append("%s: correct=%s failures=%s missing=%s" % (
                    label, record["correct"], record["failures"], sorted(missing)))
            print("ok   " if not problems or not problems[-1].startswith(label) else "FAIL ",
                  label, flush=True)

        record, _ = run.run_workload(out_dir, workload, SEED, SECONDS, 0, ["--tamper"])
        failed = {name for name, ok in record["checks"].items() if not ok}
        expected = set(TAMPER_FAILS[workload])
        fired = not record["correct"] and expected <= failed
        if not fired:
            problems.append("%s --tamper: expected %s to fail, failed %s" % (
                workload, sorted(expected), sorted(failed)))
        print("ok   " if fired else "FAIL ", workload, "--tamper fails", sorted(failed),
              flush=True)

    # A torn trace file must fail the trace check.
    record, work_dir = run.run_workload(out_dir, "capture_stream", SEED, 1, 1)
    trace_path = os.path.join(work_dir, "trace.json")
    with open(trace_path) as f:
        text = f.read()
    with open(trace_path, "w") as f:
        f.write(text[: len(text) // 2])
    run.check_trace(out_dir, work_dir, record)
    fired = record["checks"].get("trace.chrome_json_valid") is False and not record["correct"]
    if not fired:
        problems.append("torn trace file passed trace_event_check")
    print("ok   " if fired else "FAIL ", "torn trace fails trace.chrome_json_valid", flush=True)

    for p in problems:
        print("problem:", p, file=sys.stderr)
    print("smoke test %s" % ("passed" if not problems else "FAILED"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
