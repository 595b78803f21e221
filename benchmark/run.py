#!/usr/bin/env python3
"""Builds and runs the WideLeak benchmark.

    python3 benchmark/run.py --workload <play|stream|attack|campaign> \
        --seed <n> --seconds <n> --trace <0|1>

Builds the benchmark package and the repository's `wideleak` binary (the
campaign's worker) in release mode into $CARGO_TARGET_DIR (default
`.bench_build` at the repository root), then replaces itself with the
benchmark executable. Build output goes to stderr; the benchmark's last
line of standard output is its JSON result. A failed build exits with
cargo's status and prints no result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(target_dir, manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(ROOT, manifest), *extra]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    status = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode
    if status != 0:
        sys.exit(status)


def main():
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    build(target_dir, os.path.join("benchmark", "Cargo.toml"))
    build(target_dir, "Cargo.toml", "-p", "wideleak", "--bin", "wideleak")
    exe = os.path.join(target_dir, "release", "wideleak-benchmark")
    sys.stdout.flush()
    os.execv(exe, [exe, *sys.argv[1:]])


if __name__ == "__main__":
    main()
