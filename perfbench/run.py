#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources and run one workload.

Usage, from the root of the checkout:

    python3 perfbench/run.py --workload paper|scale|serve-mix --seed N \
        --seconds S --trace 0|1

The last line of standard output is the result object; see
perfbench/README.md.  Exits non-zero, without a result, when the build
fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    os.chdir(ROOT)
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 1
    sys.stdout.flush()
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
