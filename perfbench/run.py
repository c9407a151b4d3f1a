#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S]
                             [--trace 0|1]

--seconds defaults to run_seconds of BENCHMARK.json.

Run from the root of a checkout. Builds the program and the measuring
binary from source into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs the workload, and prints two lines on
standard output: a run stamp (build, host, load) and, last, the result
line {"correct", "attempted", "failed", "metrics"}. Build output and
progress go to standard error. perfbench/README.md describes the
workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim_1c", "sweep_4c_lowbw", "serve_warm", "serve_cold")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_seconds():
    """The measured length BENCHMARK.json gives, None when absent."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return float(json.load(f)["run_seconds"])
    except (OSError, ValueError, KeyError):
        return None


def load_1m():
    with open("/proc/loadavg") as f:
        return float(f.read().split()[0])


def source_digest():
    """SHA-256 over the program's sources: identifies the code measured
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for p in files:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def build(build_dir):
    """Configure once, then build the measuring binary and the program
    it drives (the build is a no-op when nothing changed)."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, cwd=ROOT, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=run_seconds(),
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds is None:
        fail("--seconds is required when BENCHMARK.json gives no "
             "run_seconds")

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no program sources next to perfbench/; run from the root "
             "of a full checkout")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
        "perfbench")
    build(build_dir)
    exe = os.path.join(build_dir, "perfbench")
    bin_dir = os.path.join(build_dir, "repo")
    out_dir = os.path.join(build_dir, "out")

    stamp = json.loads(subprocess.run(
        [exe, "--stamp", "1"], capture_output=True, text=True,
        check=True).stdout.strip().splitlines()[-1])
    stamp.update({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "load_1m_before": load_1m(),
    })
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--bin-dir", bin_dir, "--out-dir", out_dir,
           "--ref-dir", os.path.join(HERE, "reference")]
    t0 = time.monotonic()
    # Own process group, so a timeout also stops the shard workers and
    # the daemon the measuring binary started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    stamp["load_1m_after"] = load_1m()
    stamp["wall_s"] = time.monotonic() - t0
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("perfbench exited with %d" % proc.returncode)
    result = json.loads(lines[-1])

    with open(os.path.join(build_dir, "runs.jsonl"), "a") as log:
        log.write(json.dumps({"stamp": stamp, "result": result}) + "\n")
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
