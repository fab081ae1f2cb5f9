#!/usr/bin/env python3
"""Run one workload of the LockDoc benchmark and print its metrics.

    python3 perfbench/run.py --workload W [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The script builds perfbench/ldbench.exe
with dune, runs its set-up (several times over in one process, so set-up
time is a median), then runs the measured phase in a fresh process, so
peak memory excludes set-up. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. Earlier lines are a human-readable summary, including
failed_frac and latency_p90_ms where at least ten samples lie above it.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "ldbench.exe")
DATA = os.path.join(ROOT, ".perfbench")

# Set-up repeats per run; set-up reports their median. Cheap set-ups get
# more repeats, since their times are dominated by noise.
SETUPS = {"mix-text": 3, "families-bin": 15, "mix-stream": 5, "lint": 15}

BUILD_TIMEOUT_S = 700
# Time allowed for set-up, the gate and the last request's overshoot, on
# top of the measured --seconds.
RUN_MARGIN_S = 145


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "--cache=disabled",
             "./perfbench/ldbench.exe"],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("build failed (exit %d)" % r.returncode)


def ldbench(args, deadline):
    """Run ldbench.exe and return its last stdout line as JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("out of time before: ldbench " + " ".join(args))
    try:
        r = subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=sys.stderr, timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        fail("timed out: ldbench " + " ".join(args))
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail("ldbench %s exited %d" % (" ".join(args), r.returncode))
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SETUPS))
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: 42 for mix-*, 11 for "
                    "families-bin, 7 for lint)")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    if a.seconds < 1:
        fail("--seconds must be at least 1")

    build()
    deadline = time.monotonic() + a.seconds + RUN_MARGIN_S
    w = a.workload
    common = ["-w", w, "--dir", os.path.join(DATA, w)]
    if a.seed is not None:
        common += ["--seed", str(a.seed)]
    if a.trace:
        common.append("--trace")
    shutil.rmtree(os.path.join(DATA, w), ignore_errors=True)
    os.makedirs(os.path.join(DATA, w))
    try:
        s = ldbench(["setup"] + common + ["--repeat", str(SETUPS[w])], deadline)
        m = ldbench(["measure"] + common + [
            "--seconds", str(a.seconds),
            "--expected", os.path.join(HERE, "expected", w)], deadline)
    finally:
        shutil.rmtree(DATA, ignore_errors=True)

    key = "layers" if a.trace else "metrics"
    metrics = {**s[key], **m[key]}
    attempted, failed = m["attempted"], m["failed"]

    print("workload %s, seed %s, trace %d: %d requests, %d failed "
          "(failed_frac %.4f), %d latency samples"
          % (w, a.seed if a.seed is not None else "default", a.trace,
             attempted, failed, failed / attempted, m["samples"]))
    print("  times exclude hypervisor steal, %.2f%% of request wall time"
          % (100 * m["steal_frac"]))
    if m["latency_p90_ms"] is not None:
        print("  %-40s %14.4f ms" % ("latency_p90_ms", m["latency_p90_ms"]))
    else:
        print("  latency_p90_ms omitted: fewer than 10 samples above it")
    for name, v in metrics.items():
        print("  %-40s %14.4f %s" % (name, v["value"], v["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
