#!/usr/bin/env python3
"""Live-stack metadata benchmark for LocoFS (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload small_dirs --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke        # every workload, tiny, both modes

Builds perfbench/ (Release) into $CARGO_TARGET_DIR or .bench_build/ on first
use, runs the locobench driver, checks that it emitted exactly the metrics
BENCHMARK.json declares for the mode (end_to_end with --trace 0, per_layer
with --trace 1), and prints one JSON object as the last line of stdout:
{"correct", "attempted", "failed", "metrics"}.  Exits nonzero when the build
fails, an op failed, the namespace or file contents were wrong, or the
metric set does not match.
"""
import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configure once, then build incrementally; returns the driver path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "locobench")


def declared_metrics(trace):
    with open(SPEC) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}, spec


def check_metrics(metrics, trace):
    """Returns the problems with an emitted metric set (empty when it is
    exactly the declared set, every name and unit well formed)."""
    declared, _ = declared_metrics(trace)
    problems = []
    for name, unit in declared.items():
        got = metrics.get(name)
        if got is None:
            problems.append("missing metric " + name)
        elif got.get("unit") != unit:
            problems.append("metric %s has unit %r, declared %r"
                            % (name, got.get("unit"), unit))
        elif not isinstance(got.get("value"), (int, float)):
            problems.append("metric %s has no numeric value" % name)
    for name, m in metrics.items():
        if name not in declared:
            problems.append("undeclared metric " + name)
        if not NAME_RE.match(name) or not UNIT_RE.match(str(m.get("unit", ""))):
            problems.append("malformed metric %s (%s)" % (name, m.get("unit")))
    return problems


def run_driver(binary, workload, seed, seconds, trace, smoke=False):
    """Runs locobench once; returns its parsed JSON report."""
    run_dir = os.path.join(build_dir(), "runs", "%s-%d" % (workload, os.getpid()))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--run-dir", run_dir]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit("perfbench: locobench printed nothing (exit %d)"
                         % proc.returncode)
    return json.loads(lines[-1])


def smoke(binary):
    """Every workload, tiny sizes, both modes; every declared metric must be
    emitted with its unit."""
    _, spec = declared_metrics(0)
    failures = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            report = run_driver(binary, w["name"], 1, 1, trace, smoke=True)
            problems = check_metrics(report["metrics"], trace)
            if not report["correct"]:
                problems.append("incorrect: %s" % report["errors"])
            status = "ok" if not problems else "FAIL"
            log("smoke %-12s trace=%d %s (%d metrics)"
                % (w["name"], trace, status, len(report["metrics"])))
            failures += ["%s trace=%d: %s" % (w["name"], trace, p) for p in problems]
    for f in failures:
        log(f)
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not os.path.exists(os.path.join(ROOT, "src", "core", "client.h")):
        raise SystemExit("perfbench: LocoFS sources not found next to perfbench/")
    binary = build()
    if args.smoke:
        return smoke(binary)
    if not args.workload:
        ap.error("--workload is required")
    declared_workloads = [w["name"] for w in declared_metrics(0)[1]["workloads"]]
    if args.workload not in declared_workloads:
        ap.error("unknown workload %r (want one of %s)"
                 % (args.workload, ", ".join(declared_workloads)))

    report = run_driver(binary, args.workload, args.seed, args.seconds, args.trace)
    problems = check_metrics(report["metrics"], args.trace)
    for p in problems:
        log("perfbench: " + p)
    details = {k: report[k] for k in
               ("workload", "seed", "trace", "cycles", "cycle_setup_s", "host", "samples",
                "p99_us",
                "stage_sum_ratio", "errors")}
    print(json.dumps(details, sort_keys=True))
    correct = bool(report["correct"]) and not problems
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": report["metrics"]},
                     sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
