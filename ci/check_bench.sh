#!/usr/bin/env bash
# Perf-regression gate: run bench_rollup and bench_heap_sorting in JSON
# mode TRIALS (3) times each and compare the median of every named
# measurement against the committed baseline (ci/BENCH_baseline.json). The
# report prints each measurement's min–max range over the trials.
# A measurement fails the gate when its median is BOTH more than
# TDE_BENCH_TOLERANCE slower relatively AND more than TDE_BENCH_MIN_MS
# slower absolutely — the absolute floor keeps sub-millisecond timer noise
# from failing CI, and the median keeps one noisy trial from failing it.
#
# Usage: ci/check_bench.sh <build-dir> [--rebaseline]
#
# Knobs (all optional):
#   TDE_BENCH_TOLERANCE  relative slowdown allowed (default: 0.25 = 25%)
#   TDE_BENCH_MIN_MS     absolute slowdown floor in ms (default: 20)
#   TDE_ROLLUP_ROWS      bench table size (default: 1000000 for the gate;
#                        must match the baseline's "rows" or the gate
#                        refuses to compare)
#   TDE_SORT_ROWS        ORDER BY / Top-N table size (default: 1000000;
#                        recorded in the baseline as "sort_rows")
#
# --rebaseline replaces the committed baseline with this run's medians
# (use after an intentional perf change, on the reference machine).
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:?usage: ci/check_bench.sh <build-dir> [--rebaseline]}"
BUILD="$(cd "$BUILD" && pwd)"
MODE="${2:-check}"
BASELINE="$ROOT/ci/BENCH_baseline.json"
ROWS="${TDE_ROLLUP_ROWS:-1000000}"
SORT_ROWS="${TDE_SORT_ROWS:-1000000}"
TRIALS=3

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
for trial in $(seq "$TRIALS"); do
  T="$WORK/trial$trial"
  mkdir -p "$T"
  (cd "$T" && TDE_ROLLUP_ROWS="$ROWS" "$BUILD/bench/bench_rollup" --json \
      > bench.out) || { cat "$T/bench.out"; exit 1; }
  [[ -f "$T/BENCH_rollup.json" ]] || {
    echo "bench_rollup wrote no BENCH_rollup.json"; exit 1; }
  # The sorting bench's Fig. 6 half replays TPC-H imports; shrink them so
  # the gate only pays for the ORDER BY / Top-N measurements.
  (cd "$T" && TDE_SORT_ROWS="$SORT_ROWS" TDE_SF=0.001 \
      TDE_FLIGHTS_ROWS=1000 "$BUILD/bench/bench_heap_sorting" --json \
      > sortbench.out) || { cat "$T/sortbench.out"; exit 1; }
  [[ -f "$T/BENCH_sorting.json" ]] || {
    echo "bench_heap_sorting wrote no BENCH_sorting.json"; exit 1; }
done

# One merged doc: measurement names are globally unique across benches.
# Each measurement's "ms" is its median over the trials; "min_ms" and
# "max_ms" record the spread.
FRESH="$WORK/BENCH_fresh.json"
python3 - "$FRESH" "$WORK"/trial*/BENCH_rollup.json \
    "$WORK"/trial*/BENCH_sorting.json <<'EOF'
import json, statistics, sys
runs = {}
for path in sys.argv[2:]:
    for r in json.load(open(path))["results"]:
        runs.setdefault(r["name"], []).append(r)
results = []
for name, trials in runs.items():
    ms = [r["ms"] for r in trials]
    merged = dict(trials[0])
    merged["ms"] = statistics.median(ms)
    merged["min_ms"], merged["max_ms"] = min(ms), max(ms)
    # A bench whose output drifts between trials must not look stable.
    if any(r.get("groups") != trials[0].get("groups") for r in trials):
        merged["groups"] = [r.get("groups") for r in trials]
    results.append(merged)
json.dump({"bench": "gate", "results": results}, open(sys.argv[1], "w"))
EOF

if [[ "$MODE" == "--rebaseline" ]]; then
  python3 - "$FRESH" "$BASELINE" "$ROWS" "$SORT_ROWS" <<'EOF'
import json, sys
fresh, baseline = sys.argv[1], sys.argv[2]
doc = json.load(open(fresh))
for r in doc["results"]:
    del r["min_ms"], r["max_ms"]
doc["rows"] = int(sys.argv[3])
doc["sort_rows"] = int(sys.argv[4])
json.dump(doc, open(baseline, "w"), indent=1)
open(baseline, "a").write("\n")
print(f"rebaselined {baseline} at rows={doc['rows']} "
      f"sort_rows={doc['sort_rows']} ({len(doc['results'])} measurements)")
EOF
  exit 0
fi

[[ -f "$BASELINE" ]] || {
  echo "no baseline at $BASELINE; run: ci/check_bench.sh $BUILD --rebaseline"
  exit 1
}

python3 - "$FRESH" "$BASELINE" "$ROWS" "$SORT_ROWS" "$TRIALS" <<'EOF'
import json, os, sys
fresh = json.load(open(sys.argv[1]))
base = json.load(open(sys.argv[2]))
rows = int(sys.argv[3])
sort_rows = int(sys.argv[4])
trials = int(sys.argv[5])
tol = float(os.environ.get("TDE_BENCH_TOLERANCE", "0.25"))
floor_ms = float(os.environ.get("TDE_BENCH_MIN_MS", "20"))

if base.get("rows") != rows:
    sys.exit(f"baseline was recorded at rows={base.get('rows')}, this run "
             f"used rows={rows}; set TDE_ROLLUP_ROWS to match or rebaseline")
if base.get("sort_rows", sort_rows) != sort_rows:
    sys.exit(f"baseline was recorded at sort_rows={base.get('sort_rows')}, "
             f"this run used sort_rows={sort_rows}; set TDE_SORT_ROWS to "
             "match or rebaseline")

old = {r["name"]: r for r in base["results"]}
new = {r["name"]: r for r in fresh["results"]}
missing = sorted(set(old) - set(new))
if missing:
    sys.exit(f"measurements missing from this run: {missing}")

failed = []
print(f"{'measurement':<28}{'base_ms':>10}{'median_ms':>11}{'delta':>8}"
      f"{'min-max_ms':>18}")
for name in sorted(old):
    b, n = old[name]["ms"], new[name]["ms"]
    spread = f"{new[name]['min_ms']:.1f}-{new[name]['max_ms']:.1f}"
    if old[name].get("groups") != new[name].get("groups"):
        failed.append(f"{name}: groups changed "
                      f"{old[name].get('groups')} -> {new[name].get('groups')}"
                      " (bench output drifted; rebaseline deliberately)")
    rel = (n - b) / b if b > 0 else 0.0
    mark = ""
    if n - b > floor_ms and rel > tol:
        failed.append(f"{name}: {b:.1f}ms -> {n:.1f}ms median (+{rel:.0%}, "
                      f"tolerance {tol:.0%})")
        mark = "  REGRESSION"
    print(f"{name:<28}{b:>10.1f}{n:>11.1f}{rel:>+8.0%}{spread:>18}{mark}")

added = sorted(set(new) - set(old))
if added:
    print(f"note: new measurements not in baseline (rebaseline to gate "
          f"them): {added}")
if failed:
    print("\nperf-regression gate FAILED:")
    for f in failed:
        print(f"  {f}")
    sys.exit(1)
print(f"\nperf-regression gate passed (median of {trials} trials, "
      f"tolerance {tol:.0%}, floor {floor_ms:.0f}ms)")
EOF
