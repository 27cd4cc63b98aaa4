#!/usr/bin/env python3
"""Builds the e2ebench package from source and runs one benchmark workload.

Usage, from the repository root:

    python3 e2ebench/run.py --workload <static-lj|sharded-tw|durable-serve-lj> \
        --seed <n> --seconds <s> --trace <0|1>

Build output goes to $CARGO_TARGET_DIR (default: .bench_build); stores and
span dumps go to .bench_work. Progress goes to stderr; the last line of
stdout is the benchmark's JSON result. Exits non-zero, printing no result,
if the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "e2ebench")
    run = subprocess.run([binary, *sys.argv[1:], "--work-dir", ".bench_work"], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
