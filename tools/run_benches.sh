#!/usr/bin/env bash
# Runs the bench_perf_*, bench_stream_* and bench_query_* google-benchmark
# binaries with JSON output and aggregates the results into BENCH_perf.json
# at the repo root, so the perf trajectory is tracked across PRs. User
# counters (the serving bench's p50/p99/qps) are kept in the merge, and
# the BM_ShardedIngest rows are distilled into a top-level
# "shard_scaling" block (events/s and speedup-vs-single-writer per
# shard count — the ROADMAP item 1 curve).
#
# Every benchmark runs BENCH_REPETITIONS times (default 5). Each recorded
# value is the median over the repetitions, converted to nanoseconds from
# the benchmark's own time unit, and "cv_real_time" records the spread
# (sample standard deviation / mean of the wall time).
#
# The file's "context" is a host fingerprint: this repo's CMAKE_BUILD_TYPE
# (read from the build directory's CMakeCache.txt), the compiler, nproc and
# the ISA extensions. tools/bench_diff.py refuses to compare two files whose
# fingerprints differ.
#
# Usage: tools/run_benches.sh [build_dir] [benchmark_filter]
#   build_dir         defaults to "build"
#   benchmark_filter  optional --benchmark_filter regex applied to every binary
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"

# Keep freed arenas mapped so repeated large builds reuse warm pages instead
# of paying mmap/page-fault churn per iteration; applied uniformly so runs
# are comparable across PRs.
export GLIBC_TUNABLES="${GLIBC_TUNABLES:-glibc.malloc.mmap_max=0:glibc.malloc.trim_threshold=-1}"
BUILD_DIR="${1:-$REPO_ROOT/build}"
FILTER="${2:-}"
REPETITIONS="${BENCH_REPETITIONS:-5}"
OUT_DIR="$BUILD_DIR/bench_json"
mkdir -p "$OUT_DIR"

declare -a JSON_FILES=()
for bin in "$BUILD_DIR"/bench_perf_* "$BUILD_DIR"/bench_stream_* \
           "$BUILD_DIR"/bench_query_*; do
  [ -x "$bin" ] || continue
  name="$(basename "$bin")"
  out="$OUT_DIR/$name.json"
  echo ">>> $name"
  args=(--benchmark_format=json --benchmark_out="$out" \
        --benchmark_out_format=json \
        --benchmark_repetitions="$REPETITIONS")
  if [ -n "$FILTER" ]; then
    args+=("--benchmark_filter=$FILTER")
  fi
  "$bin" "${args[@]}" >/dev/null
  JSON_FILES+=("$out")
done

if [ "${#JSON_FILES[@]}" -eq 0 ]; then
  echo "no bench_perf_*/bench_stream_*/bench_query_* binaries found in" \
       "$BUILD_DIR (build them first)" >&2
  exit 1
fi

# Host fingerprint (see the header comment).
cache_value() {
  sed -n "s/^$1:[A-Z]*=//p" "$BUILD_DIR/CMakeCache.txt" | head -n 1
}
BENCH_BUILD_TYPE="$(cache_value CMAKE_BUILD_TYPE)"
BENCH_COMPILER="$("$(cache_value CMAKE_CXX_COMPILER)" --version | head -n 1)"
BENCH_NPROC="$(nproc)"
BENCH_ISA="$(grep -m 1 '^flags' /proc/cpuinfo | tr ' ' '\n' |
  grep -x -E 'sse4_2|avx|avx2|fma|bmi2|avx512f|avx512bw|avx512vl' |
  tr '\n' ' ' | sed 's/ $//' || true)"
BENCH_REPETITIONS="$REPETITIONS"
export BENCH_BUILD_TYPE BENCH_COMPILER BENCH_NPROC BENCH_ISA BENCH_REPETITIONS

python3 - "$REPO_ROOT/BENCH_perf.json" "${JSON_FILES[@]}" <<'EOF'
import json, os, statistics, sys

out_path, *inputs = sys.argv[1:]
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
# Row fields that are not metrics; every other number is a user counter
# (state.counters[...]: the serving bench's p50/p99/qps/interference).
NOT_METRICS = {"real_time", "cpu_time", "iterations", "name", "run_name",
               "run_type", "family_index", "per_family_instance_index",
               "repetitions", "repetition_index", "threads", "time_unit"}

merged = {"schema": 1, "benches": {}}
for path in inputs:
    with open(path) as f:
        data = json.load(f)
    name = path.rsplit("/", 1)[-1].removesuffix(".json")
    ctx = data.get("context", {})
    merged.setdefault("context", {
        "host": ctx.get("host_name"),
        "date": ctx.get("date"),
        "cmake_build_type": os.environ["BENCH_BUILD_TYPE"],
        "compiler": os.environ["BENCH_COMPILER"],
        "nproc": int(os.environ["BENCH_NPROC"]),
        "isa": os.environ["BENCH_ISA"],
    })
    # Group the repetitions of each benchmark (google-benchmark's own
    # aggregate rows are skipped: their units vary per statistic).
    runs = {}
    for b in data.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        scale = NS_PER_UNIT[b.get("time_unit", "ns")]
        row = {"real_time_ns": b["real_time"] * scale,
               "cpu_time_ns": b["cpu_time"] * scale,
               "iterations": b["iterations"]}
        for key, value in b.items():
            if key not in NOT_METRICS and isinstance(value, (int, float)):
                row[key] = value
        runs.setdefault(b.get("run_name", b["name"]), []).append(row)
    bench = {}
    for run_name, rows in runs.items():
        record = {key: statistics.median(row[key] for row in rows)
                  for key in rows[0]}
        record["repetitions"] = len(rows)
        if len(rows) > 1:
            times = [row["real_time_ns"] for row in rows]
            record["cv_real_time"] = round(
                statistics.stdev(times) / statistics.mean(times), 4)
        bench[run_name] = record
    merged["benches"][name] = bench

# Shard-scaling curve (docs/STREAMING.md, "Sharded ingestion"): distill
# the BM_ShardedIngest/N rows into one comparable record — events/s per
# shard count (medians over the repetitions) plus the speedup over the
# single-writer (N=1) baseline. On the 4-vCPU reference host sharding
# does not pay (see docs/STREAMING.md); the raw rows stay in "benches".
curve = {}
for bench in merged["benches"].values():
    for name, row in bench.items():
        # Row names look like "BM_ShardedIngest/4/real_time" (the bench
        # uses a wall-clock base; see bench_stream_throughput.cc).
        parts = name.split("/")
        if parts[0] == "BM_ShardedIngest" and len(parts) > 1 \
                and parts[1].isdigit():
            curve[parts[1]] = row.get("items_per_second")
if curve and curve.get("1"):
    merged["shard_scaling"] = {
        "bench": "BM_ShardedIngest",
        "repetitions": int(os.environ["BENCH_REPETITIONS"]),
        "events_per_second": curve,
        "speedup_vs_single_writer": {
            shards: round(rate / curve["1"], 4)
            for shards, rate in curve.items() if rate is not None
        },
    }

with open(out_path, "w") as f:
    json.dump(merged, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out_path}")
EOF
