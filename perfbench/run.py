#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of an sbgp source tree.  Builds perfbench/main.exe in
release profile under .bench_build/, runs it with the given arguments
and relays its output; the last stdout line is the JSON summary.
main.exe checks the arguments and names a bad one.  Result documents and
span files go to .bench_out/.  `--write-reference` re-records the
default-seed output digests in perfbench/reference.txt.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
REFERENCE = os.path.join("perfbench", "reference.txt")
RUN_TIMEOUT_S = 170


def git_rev():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib") and os.path.isfile(os.path.join("perfbench", "dune"))):
        sys.exit("perfbench: run from the root of an sbgp source tree (dune-project, lib/ and perfbench/ not found)")

    # Keep every build artifact inside the tree: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled", XDG_CACHE_HOME=os.path.abspath(os.path.join(BUILD_DIR, "xdg-cache")))
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release", "--build-dir", BUILD_DIR, "-j", "2", "./perfbench/main.exe"],
        env=env,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(f"perfbench: build failed (dune exited {build.returncode})")

    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    cmd = [exe, "--reference", REFERENCE, "--out-dir", OUT_DIR, "--git-rev", git_rev()] + sys.argv[1:]
    try:
        # run() kills and reaps the child when the timeout expires.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: main.exe did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(f"perfbench: main.exe exited {proc.returncode}")


if __name__ == "__main__":
    main()
