#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload fleet-hotloop --seed 42 \
        --seconds 10 --trace 0

Builds perfbench/ (and the libraries under src/ it links) into
.bench_build/ with CMake, runs one workload in one process, checks its
outputs against perfbench/expected.json and prints one JSON object as
the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end list of BENCHMARK.json,
with --trace 1 the per_layer list. The full record of the run (every
metric, the observations behind each check, host, compiler, build
type, SIMD kernel, commit and seed) goes to
.bench_out/<workload>-seed<seed>-trace<t>.json, and a traced run also
writes its spans to .bench_out/trace-<workload>-seed<seed>.csv.

Exit status: 0 when every check passed, 1 when a check failed, 2 when
the benchmark could not build or run (no result line is printed).
"""

import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "ulpdp_perfbench")
WORKLOADS = ("fleet-hotloop", "fleet-stream", "certify-grid", "ledger-storm")
RUN_TIMEOUT_S = 170


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build the benchmark; build logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no library sources (src/CMakeLists.txt) next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "ulpdp_perfbench"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as err:
            die("build step failed: %s" % err)
        if done.returncode != 0:
            die("build step failed: " + " ".join(cmd))


def source_digest():
    """sha256 over every file under src/ and perfbench/ (path + bytes)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def host_record(binary_host, seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        pass
    record = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "commit": commit or "not a git checkout",
        "source_sha256": source_digest(),
        "seed": seed,
    }
    record.update(binary_host)
    return record


def check(result, expected, workload, seed, tiny, wanted):
    """Return the list of failed checks (empty when the run is correct)."""
    failures = list(result.get("failures", []))
    metrics = result.get("metrics", {})
    for name, unit in wanted:
        m = metrics.get(name)
        if m is None:
            failures.append("metric %s was not produced" % name)
        elif m["unit"] != unit:
            failures.append("metric %s has unit %s, BENCHMARK.json says %s"
                            % (name, m["unit"], unit))
        elif m["value"] is None or not math.isfinite(m["value"]):
            failures.append("metric %s is not a finite number" % name)

    obs = result.get("observations", {})
    for key, value in obs.items():
        if key.endswith(".budget_resurrections") and value != "0":
            failures.append("%s = %s (must be 0)" % (key, value))
        profile = re.search(r"\.(bu\d+\.eps[0-9.]+)$", key)
        if profile:
            want = expected["certificates"].get(profile.group(1))
            if want is None:
                failures.append("no recorded certificates for " + key)
            elif value != want:
                failures.append("%s: certificates %s differ from recorded %s"
                                % (key, value, want))
    if seed == expected["default_seed"] and not tiny:
        for key, want in expected["default_seed_observations"].items():
            if not key.startswith(workload + "."):
                continue
            got = obs.get(key)
            if got != want:
                failures.append("%s = %s, recorded %s" % (key, got, want))
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test scale (small fleets and storms)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(BENCH_DIR, "expected.json")) as f:
        expected = json.load(f)
    build()
    os.makedirs(OUT_DIR, exist_ok=True)

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        die("benchmark process failed: %s" % err)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        die("benchmark process exited %d without a result" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    wanted = [(m["name"], m["unit"]) for m in listed]
    failures = check(result, expected, args.workload, args.seed, args.tiny,
                     wanted)
    host = host_record(result.get("host", {}), args.seed)
    correct = not failures and proc.returncode == 0

    metrics = {name: result["metrics"][name] for name, _ in wanted
               if name in result["metrics"]}
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "correct": correct, "check_failures": failures, "host": host,
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": result["metrics"], "observations": result["observations"],
    }
    path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    for failure in failures:
        print("perfbench: check failed: " + failure, file=sys.stderr)
    print("host: nproc %s, cpu %s, %s build, gcc %s, kernel %s, commit %s, "
          "seed %d, record %s" % (host["nproc"], host["cpu_model"],
                                  host.get("build_type"),
                                  host.get("compiler"), host.get("kernel"),
                                  host["commit"], args.seed,
                                  os.path.relpath(path, ROOT)))
    # Operations the benchmark process flagged, plus one per check that
    # only this script applies (recorded values, metric list).
    failed = result["failed"] + len(failures) - len(result["failures"])
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
