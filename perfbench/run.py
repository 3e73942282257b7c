#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The harness is built with dune under
its own profile and build directory (cache off, everything under
perfbench/_out), then run; its last stdout line is the JSON result. See
perfbench/README.md.
"""
import os
import subprocess
import sys


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("perfbench", "dune"))):
        sys.stderr.write("perfbench: run from the root of a full checkout "
                         "(dune-project, lib/ and perfbench/ are needed)\n")
        return 2
    out = os.path.join(os.getcwd(), "perfbench", "_out")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    build_dir = os.path.join(out, "build")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "perfbench",
         "--build-dir", build_dir, "--cache=disabled", "--display=quiet",
         "./perfbench/bench.exe"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    exe = os.path.join(build_dir, "default", "perfbench", "bench.exe")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
