#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds `dmlc` (the program under test) and
the `perfbench` binary in release mode into $CARGO_TARGET_DIR (default
`.bench_build`), then runs it. Its last line of standard
output is the result object. Build output goes to standard error; a failed
build exits non-zero without printing a result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "dml-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    bench = os.path.join(target, "release", "perfbench")
    dmlc = os.path.join(target, "release", "dmlc")
    work = os.path.join(target, "perfbench-work")
    cmd = [bench] + sys.argv[1:] + ["--dmlc", dmlc, "--work", work]
    return subprocess.run(cmd, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
