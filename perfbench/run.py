#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --list-metrics [--smoke] [--seconds <s>] [--seed <n>]

The first form builds the library sources and the driver into .bench_build/
at the repository root (incrementally after the first run), runs one
workload and passes the driver's output through: the last line of stdout
is the JSON result. --list-metrics runs every workload untraced and traced
and prints each metric with its value, unit and sample count.
--smoke swaps in a tiny world, a short stream and a reduced profiling run.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "anole_perfbench")
WORKLOADS = ("stream_clean", "stream_hostile", "osp_standard")


def build():
    """Configures and builds the driver; returns True on success."""
    jobs = str(len(os.sched_getaffinity(0)))
    steps = (
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "anole_perfbench"],
    )
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def source_id():
    """Git commit when available, plus a digest of the sources built."""
    commit = "nogit"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            commit = out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "%s+src:%s" % (commit, digest.hexdigest()[:12])


def run_driver(args, capture=False):
    """Runs the driver to completion; returns (exit code, stdout or None)."""
    proc = subprocess.Popen([BINARY] + args,
                            stdout=subprocess.PIPE if capture else None, text=True)
    try:
        out, _ = proc.communicate()
        return proc.returncode, out
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def list_metrics(opts, commit):
    """Prints every metric of every workload, untraced then traced."""
    status = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            args = ["--workload", workload, "--seed", str(opts.seed),
                    "--seconds", str(opts.seconds), "--trace", trace, "--commit", commit]
            code, out = run_driver(args + (["--smoke"] if opts.smoke else []), capture=True)
            lines = out.splitlines() if out else []
            result = json.loads(lines[-1]) if code == 0 and lines else None
            print("== %s, trace %s: %s" % (
                workload, trace,
                "exit %d" % code if result is None else
                "correct=%s attempted=%d failed=%d" % (
                    result["correct"], result["attempted"], result["failed"])))
            for line in lines[:-1]:
                if not line.startswith(("provenance", "check ", "metric ")):
                    print("   " + line)
            if result is None or not result["correct"]:
                status = 1
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--list-metrics", action="store_true")
    opts = parser.parse_args()
    if not opts.list_metrics and opts.workload is None:
        parser.error("--workload is required")

    # Make termination reach the finally blocks that stop the driver.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    commit = source_id()
    if opts.list_metrics:
        return list_metrics(opts, commit)
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", opts.trace, "--commit", commit]
    code, _ = run_driver(args + (["--smoke"] if opts.smoke else []))
    return code


if __name__ == "__main__":
    sys.exit(main())
