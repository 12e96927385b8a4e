#!/usr/bin/env python3
"""Build the campaign benchmark in the release profile, then run it.

Usage, from the root of the repository:

    python3 campaign_bench/run.py --workload W --seed S --seconds T --trace 0|1

Arguments pass through to campaign_bench/main.exe (see README.md). The build
output goes to standard error, so the benchmark's JSON verdict stays the last
line of standard output. Exits non-zero if the build or the benchmark fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    os.chdir(ROOT)
    # Keep every build artifact inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "campaign_bench/main.exe"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        return build.returncode
    exe = os.path.join("_build", "default", "campaign_bench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
