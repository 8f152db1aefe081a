#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload tune-suite --seed 1 --seconds 20 --trace 0

Run from the root of a source tree.  Builds perfbench/bench.exe with
dune (shared dune cache off, so nothing is written outside the tree),
then runs it from the root with the given arguments plus the source
revision.  The last line of stdout is the JSON result;
the exit status is the benchmark's own.  Exits 2 without a result when
the tree holds no buildable source.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")


def revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "none"


def main():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        sys.stderr.write("run.py: no dune-project and lib/ at %s; nothing to build\n" % ROOT)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
                               cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        sys.stderr.write("run.py: cannot run dune: %s\n" % e)
        return 2
    if build.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write("run.py: build failed\n")
        return 2
    args = [EXE] + sys.argv[1:] + ["--rev", revision()]
    sys.stdout.flush()
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
