#!/usr/bin/env python3
"""Service benchmark runner: builds the harness, runs one workload, prints
one JSON result line.

    python3 svcbench/run.py --workload ingest --seed 7 --seconds 10 --trace 0
    python3 svcbench/run.py --smoke     # every workload, small, every check

Run it from the root of a source tree. The harness is built with CMake under
.bench_build/svcbench (incremental: a no-op when nothing changed). Each
workload runs in its own process. With --trace 1 the workload runs twice,
untraced and then traced; the per-layer metrics come from the traced run,
and trace.overhead_pct is the keys_per_s the traced run lost.

The last stdout line is {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "svcbench")
BINARY = os.path.join(BUILD, "svcbench")
WORKLOADS = ("ingest", "serve", "readmix")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "scheduler.hpp")):
        log("svcbench: no program sources under %s/src" % ROOT)
        sys.exit(2)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            log("svcbench: build failed: %s" % " ".join(cmd))
            sys.exit(2)


def harness(workload, seed, seconds, trace, smoke=False):
    """Runs one harness process; returns its result record."""
    cmd = [BINARY, "--workload=%s" % workload, "--seed=%d" % seed,
           "--seconds=%g" % seconds, "--trace=%d" % trace, "--smoke=%d" % smoke]
    if trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd.append("--trace_out=%s" % os.path.join(
            trace_dir, "%s-seed%d" % (workload, seed)))
    # A traced run starts two harness processes; both must end well within
    # the 180 s a run may take at the default 20 s.
    timeout_s = 30 + 2.5 * seconds
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("svcbench: %s timed out after %.0f s" % (workload, timeout_s))
        sys.exit(3)
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        print(line, flush=True)
    if proc.returncode != 0 or not lines:
        log("svcbench: harness exited with %d" % proc.returncode)
        sys.exit(3)
    return json.loads(lines[-1])


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for wl in WORKLOADS:
        rec = harness(wl, 1, 1, 1, smoke=True)
        names = set(rec["end_to_end"]) | set(rec["per_layer"]) | {"trace.overhead_pct"}
        want = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
        good = rec["correct"] and rec["failed"] == 0 and names == want
        log("smoke %-8s %s" % (wl, "ok" if good else "FAILED"))
        if names != want:
            log("  metric names differ from BENCHMARK.json: %s"
                % sorted(names ^ want))
        ok &= good
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")

    build()
    if args.smoke:
        return smoke()

    t0 = time.monotonic()
    rec = harness(args.workload, args.seed, args.seconds, 0)
    correct = rec["correct"]
    if args.trace:
        plain = rec["end_to_end"]["keys_per_s"]["value"]
        rec = harness(args.workload, args.seed, args.seconds, 1)
        correct = correct and rec["correct"]
        traced = rec["end_to_end"]["keys_per_s"]["value"]
        metrics = dict(rec["per_layer"])
        metrics["trace.overhead_pct"] = {
            "value": (plain - traced) / plain * 100.0, "unit": "%"}
    else:
        metrics = rec["end_to_end"]
    log("svcbench: %s seed %d done in %.1f s" % (args.workload, args.seed,
                                                 time.monotonic() - t0))
    print(json.dumps({"correct": correct, "attempted": rec["attempted"],
                      "failed": rec["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
