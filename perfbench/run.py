#!/usr/bin/env python3
"""Builds the perfbench harness from this checkout's sources and runs one
workload.  Run from the root of the checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default .bench_build); per-run scratch
(native-code caches, the host compiler's temporaries) to .bench_tmp, removed
on exit; traced runs write a Chrome trace to .bench_out.  The last line of
stdout is the harness's JSON result; the exit code is nonzero when the build
fails, an output differs from the reference, or the run overstays its limit.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_LIMIT_S = 170  # the harness must be done well inside 180 s


def build():
    """Configures once, then rebuilds incrementally; output goes to stderr."""
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-egress", action="store_true",
                    help="test hook: flip one egress byte before the check")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "core", "compiler.h")):
        print("perfbench: no Domino sources in this checkout", file=sys.stderr)
        return 2
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    scratch = os.path.join(ROOT, ".bench_tmp", "run-%d" % os.getpid())
    os.makedirs(scratch)
    env = dict(os.environ, TMPDIR=scratch,
               DOMINO_NATIVE_CACHE=os.path.join(scratch, "native-cache"))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", os.path.join(scratch, "harness")]
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            out_dir, "trace-%s-seed%d.json" % (args.workload, args.seed))]
    if args.corrupt_egress:
        cmd.append("--corrupt-egress")
    sys.stdout.flush()
    # Its own process group, so an overrun also stops the host compilers and
    # cold-pass children it started.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_LIMIT_S, file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
