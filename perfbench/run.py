#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md).

    python3 perfbench/run.py --workload <tpch_hot|tpch_cold|import_append|all>
                             --seed N --seconds S --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
engine and the driver in Release mode under $CARGO_TARGET_DIR (default
.bench_build)/perfbench; later runs only rebuild what changed. Build output
goes to stderr; the driver's report goes to stdout, and its last line is
the JSON result. Extra flags (--passes, --setups) are passed through to the
driver.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def nproc():
    return len(os.sched_getaffinity(0))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the engine sources (src/) are missing next to "
                 "perfbench/; run from the root of a full checkout")
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", str(nproc())],
                   check=True, stdout=sys.stderr)
    return os.path.join(bdir, "tde_perfbench")


def run(binary, args, stdout=None):
    """Runs the driver with `args`; the work directory (database files,
    trace files) lives in the build tree."""
    work = os.path.join(build_dir(), "run")
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ)
    # The engine's shared worker pool, capped at the cores this process
    # may use.
    env.setdefault("TDE_WORKERS", str(nproc()))
    return subprocess.run([binary] + list(args) + ["--work-dir", work],
                          env=env, stdout=stdout, check=False)


def main():
    try:
        binary = build()
    except subprocess.CalledProcessError as e:
        sys.exit("perfbench: build failed: %s" % e)
    sys.stdout.flush()
    return run(binary, sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
