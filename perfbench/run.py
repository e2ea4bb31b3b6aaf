#!/usr/bin/env python3
"""End-to-end benchmark of yver: builds the harness from this checkout's
sources and runs one workload.

    python3 perfbench/run.py --workload resolve|query|ingest --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The build goes to .bench_build/ (CMake,
Release). Everything the run writes stays under .bench_build/. Build logs
and progress go to stderr; stdout carries a report line (host and settings
fingerprint, per-phase counts, sample counts) and, last, one JSON object
with exactly the keys correct, attempted, failed and metrics.
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

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
HARNESS = os.path.join(BUILD_DIR, "yver_perfbench")
WORKLOADS = ("resolve", "query", "ingest")
# A run must end well inside the 180 s the harness is allowed.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "pipeline.h")):
        log("yver sources not found under %s/src" % ROOT)
        return False
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build step failed: %s" % " ".join(cmd))
            return False
    return os.path.isfile(HARNESS)


def source_digest():
    """SHA-256 over the sources the harness is built from."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cc", ".h", ".txt", ".py")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint():
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
    }


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.monotonic()
    if not build():
        return 2
    log("build ready after %.1f s" % (time.monotonic() - started))

    run_dir = os.path.join(BUILD_ROOT, "runs",
                           "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(os.path.dirname(run_dir), exist_ok=True)
    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--dir", run_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("harness timed out after %d s" % RUN_TIMEOUT_S)
        return 3
    finally:
        # Keep the spans of a traced run; drop the corpus, index and WALs.
        trace_file = os.path.join(run_dir, "trace.jsonl")
        if os.path.isfile(trace_file):
            traces = os.path.join(BUILD_ROOT, "traces")
            os.makedirs(traces, exist_ok=True)
            os.replace(trace_file, os.path.join(
                traces, "%s-%d.jsonl" % (args.workload, args.seed)))
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = [l for l in out.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("harness (exit %d) printed no result" % proc.returncode)
        return 4

    correct = bool(result["correct"]) and proc.returncode == 0
    declared = declared_metrics(args.trace)
    missing = [m for m in declared if m not in result["metrics"]]
    if missing:
        log("metrics missing from the harness: %s" % ", ".join(missing))
        return 5
    metrics = {m: result["metrics"][m] for m in declared}
    report = result.get("report", {})
    report["host"] = fingerprint()
    report["wall_s"] = round(time.monotonic() - started, 3)
    print("report " + json.dumps(report, sort_keys=True))
    for problem in report.get("problems", {}).values():
        log("check failed: " + problem)
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
