#!/usr/bin/env python3
"""Builds and runs the riotshare benchmark (see README.md).

One workload, as a harness calls it; the last stdout line is the JSON result:

    python3 perfbench/run.py --workload paper_io --seed 1 --seconds 40 --trace 0

Every workload, one process each, printing "workload metric value unit n="
lines and writing one results file (with nproc, compiler, build type and
commit) for compare.py:

    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]
                             [--out DIR] [--build-dir DIR]

The benchmark is compiled from this checkout's sources into --build-dir
(default .bench_build) as a Release build; a build directory configured
otherwise is refused, because a Debug build turns the executor's plan lint
on and times something else.
"""
import argparse
import datetime
import json
import os
import subprocess
import sys

WORKLOADS = ["plan_search", "paper_io", "compute_mem", "serve_zipf"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The binary itself stops after its set-ups, --seconds and its checks; this
# only catches a hang.
GRACE_SECONDS = 120


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def cache_value(build_dir, key):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build(build_dir):
    """Configures (first time) and builds; returns the binary's path."""
    build_type = cache_value(build_dir, "CMAKE_BUILD_TYPE")
    if build_type is not None and build_type != "Release":
        log("refusing %s: CMAKE_BUILD_TYPE is %s, not Release"
            % (build_dir, build_type))
        sys.exit(2)
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--parallel", "4"]]
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            sys.exit(1)
    return os.path.join(build_dir, "bench_workloads")


def run_workload(binary, workload, seed, seconds, trace, out_dir, capture):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", out_dir]
    proc = subprocess.Popen(cmd, cwd=ROOT, text=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=seconds + GRACE_SECONDS)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("%s: timed out" % workload)
        sys.exit(1)
    if proc.returncode != 0:
        log("%s: exited with %d" % (workload, proc.returncode))
        sys.exit(proc.returncode)
    return out


def git_commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def compiler(build_dir):
    cxx = cache_value(build_dir, "CMAKE_CXX_COMPILER") or "c++"
    try:
        out = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True).stdout
        return out.splitlines()[0] if out else cxx
    except OSError:
        return cxx


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", default=os.path.join(ROOT, ".bench_out"))
    ap.add_argument("--build-dir", default=os.path.join(ROOT, ".bench_build"))
    args = ap.parse_args()
    if not 1 <= args.seconds <= 600:
        ap.error("--seconds must be within 1..600")
    out_dir = os.path.abspath(args.out)
    build_dir = os.path.abspath(args.build_dir)

    binary = build(build_dir)
    os.makedirs(out_dir, exist_ok=True)
    if args.workload:
        # Stream straight through: the binary prints the result line last.
        run_workload(binary, args.workload, args.seed, args.seconds,
                     args.trace, out_dir, capture=False)
        return

    results = {}
    for w in WORKLOADS:
        out = run_workload(binary, w, args.seed, args.seconds, args.trace,
                           out_dir, capture=True)
        lines = out.strip().splitlines()
        for line in lines[:-1]:
            print(line, flush=True)
        results[w] = json.loads(lines[-1])
        results[w]["lines"] = lines[:-1]
    stamp = datetime.datetime.now(datetime.timezone.utc)
    record = {
        "meta": {
            "time_utc": stamp.isoformat(timespec="seconds"),
            "nproc": os.cpu_count(),
            "compiler": compiler(build_dir),
            "build_type": cache_value(build_dir, "CMAKE_BUILD_TYPE"),
            "commit": git_commit(),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
        },
        "workloads": results,
    }
    path = os.path.join(out_dir, "results_%s_seed%d_trace%d.json"
                        % (stamp.strftime("%Y%m%dT%H%M%SZ"), args.seed,
                           args.trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    log("wrote " + path)


if __name__ == "__main__":
    main()
