#!/usr/bin/env python3
"""Run one benchmark workload from the repository root.

    python3 perfbench/run.py --workload leak-corpus --seed 1 --seconds 20 --trace 0

Builds the benchmark and the `thresher-serve` daemon (release, offline,
into $CARGO_TARGET_DIR, default .bench_build), generates the workload's
inputs from the seed in a separate process, then measures them in a fresh
process. The last line of standard output is the result: one JSON object
with `correct`, `attempted`, `failed` and `metrics`. See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("leak-corpus", "null-scaled", "serve-edit")
# Generation and measurement together must end within 180 s of the build.
RUN_TIMEOUT_S = 170


def build(env):
    """Builds both executables; returns their paths or None on failure."""
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "thresher", "--bin", "thresher-serve"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            return None
    target = os.path.join(env["CARGO_TARGET_DIR"], "release")
    return os.path.join(target, "perfbench"), os.path.join(target, "thresher-serve")


def run_bounded(cmd, deadline, **kwargs):
    """Runs `cmd` in its own process group until `deadline`. On timeout
    the whole group (the daemon included) is killed and waited for, and
    TimeoutExpired is raised."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        for _ in range(100):  # the daemon is reaped once its parent is gone
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        raise


def pin_to_one_cpu():
    """Keeps the measured processes (and the daemon) on one CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()

    if not (os.path.isfile("perfbench/Cargo.toml") and os.path.isdir("crates")):
        print("run.py: run from the repository root (perfbench/ and crates/ "
              "must both be present)", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    env["CARGO_TARGET_DIR"] = os.path.abspath(env["CARGO_TARGET_DIR"])
    exes = build(env)
    if exes is None:
        print("run.py: build failed", file=sys.stderr)
        return 2
    bench, serve = exes

    deadline = time.monotonic() + RUN_TIMEOUT_S
    out = os.path.abspath(".bench_out")
    inputs = os.path.join(out, f"inputs-{args.workload}-{os.getpid()}")
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        os.makedirs(inputs, exist_ok=True)
        code, _ = run_bounded([bench, "gen", *common, "--inputs", inputs],
                              deadline, stdout=sys.stderr)
        if code != 0:
            return 2
        code, result = run_bounded(
            [bench, "run", *common, "--seconds", str(args.seconds),
             "--trace", args.trace, "--inputs", inputs, "--out", out,
             "--serve-bin", serve],
            deadline, stdout=subprocess.PIPE, text=True,
            preexec_fn=pin_to_one_cpu)
    except subprocess.TimeoutExpired:
        print("run.py: timed out", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
        # A killed run leaves its daemon stores behind.
        for name in os.listdir(out) if os.path.isdir(out) else []:
            if name.startswith("serve-cache-"):
                shutil.rmtree(os.path.join(out, name), ignore_errors=True)
    if code != 0:
        sys.stderr.write(result)
        return code
    sys.stdout.write(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
