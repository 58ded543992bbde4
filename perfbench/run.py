#!/usr/bin/env python3
"""Build and run the psse benchmark from the repository root.

    python3 perfbench/run.py --workload figure_sweep --seed 1 --seconds 30 --trace 0

Builds the `perfbench` package in release mode (offline; the target
directory is `$CARGO_TARGET_DIR`, default `.bench_build`), then runs it
with the given arguments. The last line of standard output is the JSON
result; the exit code is the benchmark's, or the build's if it failed.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")


def main() -> int:
    os.chdir(ROOT)
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "psse-perfbench")
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
