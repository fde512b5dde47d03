#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the MEMPHIS reproduction.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is built from source with cargo (release, offline) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; build output goes
to standard error. The benchmark's standard output is passed through: its
last line is the JSON result. The benchmark runs with one malloc arena
(MALLOC_ARENA_MAX=1), so that peak RSS is steady. Scratch files live under
.bench_run and are removed when the run ends. Exits non-zero, without a result, when the
build fails.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    # Anything the program writes to the system temp dir stays in the
    # checkout and goes away with the run.
    scratch = os.path.join(ROOT, ".bench_run")
    tmp = os.path.join(scratch, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    # One glibc malloc arena: with per-thread arenas, which thread first
    # touched which arena made a round's peak RSS swing by a third between
    # runs of the same work (pipelines: 28 MiB in one run, 33-41 MiB in
    # another); with one arena it stays within 1 MiB.
    env["MALLOC_ARENA_MAX"] = "1"
    try:
        run = subprocess.run(
            [os.path.join(target, "release", "perfbench"), *sys.argv[1:]],
            cwd=ROOT,
            env=env,
        )
        return run.returncode
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
