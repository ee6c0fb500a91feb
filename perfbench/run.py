#!/usr/bin/env python3
"""Builds the benchmark from source, then runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR, or to .bench_build at the repository
root when that is unset. The arguments are passed to the benchmark binary,
which rejects unknown flags and unparsable values. The last line of
standard output is the JSON result. The exit code is non-zero, and no
result is printed, when the build fails, the arguments are invalid, or the
run does not finish within its time limit.
"""

import ctypes
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run measures for at most an hour (the binary's --seconds limit) and
# stops at the first iteration boundary after that.
RUN_TIMEOUT_S = 3600 + 600
# personality(2) flag that turns address-space layout randomisation off.
ADDR_NO_RANDOMIZE = 0x0040000


def fixed_layout():
    """Runs in the child before exec: turns address-space randomisation
    off, so every run places code, heap and stack at the same addresses and
    run-to-run differences in cache and TLB aliasing do not add noise."""
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--bin", "perfbench"],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
    print("host: " + (rustc.stdout.strip() or "rustc version unknown"), flush=True)
    # Pin the run to one CPU. The service workload's least-loaded lockstep
    # hands control between threads at every arrival instant. Across two
    # CPUs of a shared virtual machine each hand-off waits for the other
    # CPU to wake up, which made that workload twice as slow and its times
    # vary threefold; on one CPU a hand-off is a plain context switch.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    print(f"host: nproc={os.cpu_count()}, run pinned to cpu {cpu}", flush=True)
    binary = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S,
                             preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
