#!/usr/bin/env python3
"""Determinism check for the benchmark's counts.

    python3 perfbench/check_determinism.py [--workload W ...]

Checks tpch_hot and tpch_cold unless --workload names others.

For each workload, runs the traced driver three times on a fixed amount of
work (--passes, one set-up): twice with one seed and once with another.
The two same-seed runs must report identical counts (bytes_per_text_byte,
pager misses per pass, join probe rows per pass, result rows per query,
table rows). The other seed must change the data while keeping the table
row counts within dbgen's range: at the benchmark's scale factor (0.1)
orders has 150,000 rows, customer 15,000, and lineitem holds 1-7 lines
per order, about 4 on average.
Exits non-zero on any mismatch.
"""

import argparse
import json
import os
import subprocess
import sys

import run as bench

SEED_A, SEED_B = 20240611, 19940622
# Mix passes, or iterations for import_append.
PASSES = {"tpch_hot": 2, "tpch_cold": 2, "import_append": 1}
ORDERS_ROWS, CUSTOMER_ROWS = 150000, 15000


def counts(binary, workload, seed):
    """Runs the traced driver on a fixed amount of work and returns the
    `counts` section of its trace file."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", "60",
            "--trace", "1", "--passes", str(PASSES[workload]),
            "--setups", "1"]
    result = bench.run(binary, args, stdout=subprocess.DEVNULL)
    if result.returncode != 0:
        sys.exit("%s seed %d: driver exited with %d" %
                 (workload, seed, result.returncode))
    path = os.path.join(bench.build_dir(), "run",
                        "trace-%s-seed%d.json" % (workload, seed))
    with open(path) as f:
        return json.load(f)["counts"]


def check(workload, binary):
    problems = []
    a = counts(binary, workload, SEED_A)
    a2 = counts(binary, workload, SEED_A)
    b = counts(binary, workload, SEED_B)
    if a != a2:
        problems.append("same seed, different counts:\n  %s\n  %s" % (a, a2))
    if a == b:
        problems.append("a different seed left every count unchanged")
    for counts_, seed in ((a, SEED_A), (b, SEED_B)):
        rows = counts_["table_rows"]
        if rows.get("orders") != ORDERS_ROWS:
            problems.append("seed %d: orders has %s rows, expected %d" %
                            (seed, rows.get("orders"), ORDERS_ROWS))
        if rows.get("customer") != CUSTOMER_ROWS:
            problems.append("seed %d: customer has %s rows, expected %d" %
                            (seed, rows.get("customer"), CUSTOMER_ROWS))
        lineitem = rows.get("lineitem", 0)
        if abs(lineitem - 4 * ORDERS_ROWS) > 0.01 * 4 * ORDERS_ROWS:
            problems.append("seed %d: lineitem has %d rows, outside 1%% of "
                            "4 lines per order" % (seed, lineitem))
    return problems


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append",
                        choices=sorted(PASSES))
    args = parser.parse_args()
    binary = bench.build()
    failed = False
    for workload in args.workload or ["tpch_hot", "tpch_cold"]:
        problems = check(workload, binary)
        print("%-14s %s" % (workload, "ok" if not problems else "FAILED"))
        for p in problems:
            print("  " + p)
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
