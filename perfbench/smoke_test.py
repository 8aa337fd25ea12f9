#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload, tiny scale, seed 7.

    python3 perfbench/smoke_test.py

Runs perfbench/run.py --tiny on every workload of BENCHMARK.json,
untraced and traced, and checks that each run exits 0, that its last
stdout line is a result object with exactly the keys correct,
attempted, failed and metrics, and that every metric BENCHMARK.json
names for that mode is printed with its unit and a finite value.
Exit status 0 when every run passes.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7


def run(workload, trace, spec):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    problems = []
    if proc.returncode != 0:
        problems.append("exit %d: %s" % (proc.returncode,
                                          proc.stderr.strip()[-400:]))
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return problems + ["no result line"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % sorted(result))
    if result.get("correct") is not True:
        problems.append("correct is %r" % result.get("correct"))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted %r" % result.get("attempted"))
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    for m in listed:
        got = metrics.get(m["name"])
        if got is None:
            problems.append("missing metric " + m["name"])
        elif got.get("unit") != m["unit"]:
            problems.append("%s unit %r, want %r"
                            % (m["name"], got.get("unit"), m["unit"]))
        elif not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            problems.append("%s value %r" % (m["name"], got.get("value")))
    extra = set(metrics) - {m["name"] for m in listed}
    if extra:
        problems.append("unlisted metrics %s" % sorted(extra))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failed = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            problems = run(workload, trace, spec)
            status = "ok" if not problems else "FAIL"
            print("%-14s trace %d: %s" % (workload, trace, status))
            for p in problems:
                print("    " + p)
            failed += bool(problems)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
