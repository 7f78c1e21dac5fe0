#!/usr/bin/env python3
"""Build the kecss end-to-end benchmark from source, then run it.

Run from the root of a checkout:

    python3 bench_e2e/run.py --workload ecss2-weighted --seed 1 --seconds 20 --trace 0

Every argument is handed to kecss_bench.exe unchanged (see the header of
bench_e2e/kecss_bench.ml). The build uses dune with its shared cache
disabled, so it reads and writes only the checkout's own _build tree. If
the build fails -- for instance in a directory that holds the benchmark
but not the libraries it measures -- this exits non-zero without running
anything.
"""

import glob
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "bench_e2e/kecss_bench.exe"


def find_dune():
    found = shutil.which("dune")
    if found:
        return found
    candidates = []
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    if prefix:
        candidates.append(os.path.join(prefix, "bin", "dune"))
    candidates += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    for c in candidates:
        if os.access(c, os.X_OK):
            return c
    return None


def main():
    dune = find_dune()
    if dune is None:
        sys.exit("run.py: dune not found (looked in PATH and ~/.opam)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    # the compiler and ocamlfind live next to dune in an opam switch
    env["PATH"] = os.path.dirname(dune) + os.pathsep + env.get("PATH", "")
    build = subprocess.run(
        [dune, "build", "--root", ROOT, "--display", "quiet", TARGET],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(build.returncode)
    exe = os.path.join(ROOT, "_build", "default", TARGET)
    os.chdir(ROOT)
    sys.stdout.flush()
    os.execve(exe, [exe] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
