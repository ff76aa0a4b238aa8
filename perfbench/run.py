#!/usr/bin/env python3
"""Build and run one SnaPEA benchmark workload; print its metrics.

usage: python3 perfbench/run.py --workload <name> [--seed N]
                                [--seconds S] [--trace 0|1]
       python3 perfbench/run.py --selftest
       python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the repository root (or anywhere: paths resolve from this
file).  The first run configures and builds perfbench/ (a CMake
project over the repository's sources) into .bench_build/ at the
repository root; later runs rebuild incrementally.

The last line of standard output is one JSON object with exactly the
keys correct, attempted, failed and metrics.  The line before it is
the run's fingerprint (host, build, seed and workload configuration).
With --trace 0 the metrics are the end-to-end ones, with --trace 1
the per-layer ones from a traced run.  See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"

DEFAULT_SEED = 1

# The workloads; each one's configuration is fixed in perfbench/src
# (README "Workloads").
WORKLOADS = ["offline_zoo", "serve_steady"]

RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(targets):
    """Configure once, then build @p targets incrementally."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"repository sources not found under {ROOT}")
        sys.exit(2)
    jobs = str(min(os.cpu_count() or 2, 4))
    if not (BUILD / "CMakeCache.txt").is_file():
        cfg = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            sys.exit(1)
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs, "--target"]
    if subprocess.run(cmd + targets, stdout=sys.stderr).returncode != 0:
        log("build failed")
        sys.exit(1)


def run_checked(cmd):
    """Run @p cmd in its own process group; stop every straggler."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr,
                            start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S} s")
        rc = None
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    return rc


def run_workload(name, seed, seconds, trace):
    """Run one workload; returns its parsed result or exits non-zero."""
    workdir = BUILD / "run"
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / f"result-{name}-{seed}-{trace}.json"
    if out.exists():
        out.unlink()
    cmd = [str(BUILD / "perfbench"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", str(workdir),
           "--out", str(out),
           "--serve-exe", str(BUILD / "snapea" / "tools" / "snapea_serve")]
    rc = run_checked(cmd)
    if rc != 0 or not out.is_file():
        log(f"workload {name} failed (exit {rc})")
        sys.exit(1)
    return json.loads(out.read_text())


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    ap.add_argument("--all", action="store_true",
                    help="run every workload untraced, then traced")
    args = ap.parse_args()

    if args.selftest:
        build(["perfbench_tests"])
        sys.exit(run_checked([str(BUILD / "perfbench_tests")]))
    if args.all:
        build(["perfbench"])
        for trace in (0, 1):
            for name in WORKLOADS:
                res = run_workload(name, args.seed, args.seconds, trace)
                print(json.dumps({"workload": name, "trace": trace,
                                  **res}))
        return
    if not args.workload:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    build(["perfbench"])
    res = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print("fingerprint: " + json.dumps(res.get("fingerprint", {})))
    print(json.dumps({k: res[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
