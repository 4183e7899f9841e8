#!/usr/bin/env bash
# bench.sh — run the key performance benchmarks and record the results as
# a dated JSON summary, so the repo accumulates a perf trajectory.
#
# Usage:
#   scripts/bench.sh [output.json]
#
# Environment:
#   BENCHTIME   go test -benchtime value (default 1x: one run per case,
#               the large-n elections already take ~20 s each)
#   BENCH_RE    benchmark regex (default: the count/batch/hybrid PLL race at
#               n=10^7, the engine head-to-heads, the large-n rows, the
#               ensemble executor's Table 1 row — 50 replicates at
#               n=10^5, serial vs all-core, whose wall-clock ratio is
#               the multi-core replication speedup — and the sweep
#               orchestrator's PLL scaling row, n∈{1e3,1e4,1e5}, which
#               reports the fitted log-slope/R² and bounds the sweep
#               layer's overhead)
#   STORE_BENCHTIME  -benchtime for the store benchmarks (default 2s;
#               they need wall-clock, not iteration counts, because the
#               append paths are fsync-bound)
#   POPPROTO_BENCH_XL=1 additionally runs the 10^8- and 10^9-agent cases
#               (including the batch engine's Table 1 row at n=10^8 and
#               the hybrid engine's n=10^9 PLL election)
#
# Besides BENCH_RE, the reactive-pair-index micro-benchmark in
# internal/pp (incremental maintenance vs from-scratch re-enumeration at
# live ∈ {64, 384, 1024}) always runs, so the index's O(row+col) claim
# is re-measured alongside the end-to-end rows. So do the store
# benchmarks in internal/store: durable-append throughput (v1
# fsync-per-record vs v2 group commit, at 1/16/64 writers) and boot
# replay over a 100k-record corpus (v1 full scan vs v2 footer indexes).
# And so does the front-door layer benchmark in internal/service: a
# cached POST /v1/jobs through the HTTP handler in process
# (BenchmarkHandler_JobCacheHit — spec decode, canonicalization, run
# index, frozen response bytes).
#
# The JSON is an object {date, go, commit, benchtime, benchmarks: [...]},
# one entry per benchmark line with every reported metric (ns/op, B/op,
# allocs/op, and custom metrics like parallel-time/op and max-heap-MiB).
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${1:-BENCH_$(date -u +%Y-%m-%d).json}
BENCH_RE=${BENCH_RE:-'^BenchmarkPLL$|^BenchmarkPLLWindow$|^BenchmarkPLLSeeds$|Engines_|LargeN_|Table1_PLL_XL|^BenchmarkEnsemble_|^BenchmarkSweep_|^BenchmarkCluster_'}
BENCHTIME=${BENCHTIME:-1x}

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

echo "running benchmarks matching /${BENCH_RE}/ with -benchtime ${BENCHTIME}..." >&2
go test -run '^$' -bench "$BENCH_RE" -benchmem -benchtime "$BENCHTIME" \
  -timeout 120m . | tee "$RAW" >&2

echo "running reactive-pair index micro-benchmarks..." >&2
go test -run '^$' -bench '^BenchmarkReactivePairIndex$' -benchmem \
  -timeout 10m ./internal/pp | tee -a "$RAW" >&2

echo "running store append/replay benchmarks..." >&2
go test -run '^$' -bench '^BenchmarkStore_' -benchmem \
  -benchtime "${STORE_BENCHTIME:-2s}" \
  -timeout 30m ./internal/store | tee -a "$RAW" >&2

echo "running front-door handler benchmarks..." >&2
go test -run '^$' -bench '^BenchmarkHandler_' -benchmem \
  -timeout 10m ./internal/service | tee -a "$RAW" >&2

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    -v go_version="$(go version | awk '{print $3}')" \
    -v commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)" \
    -v benchtime="$BENCHTIME" '
BEGIN {
  printf "{\n  \"date\": \"%s\",\n  \"go\": \"%s\",\n  \"commit\": \"%s\",\n", date, go_version, commit
  printf "  \"benchtime\": \"%s\",\n  \"benchmarks\": [", benchtime
  first = 1
}
/^Benchmark/ {
  name = $1
  iters = $2
  if (!first) printf ","
  first = 0
  printf "\n    {\"name\": \"%s\", \"iterations\": %s", name, iters
  # Remaining fields come in value-unit pairs (ns/op, B/op, allocs/op,
  # plus any b.ReportMetric custom units).
  for (i = 3; i + 1 <= NF; i += 2) {
    unit = $(i + 1)
    gsub(/"/, "", unit)
    printf ", \"%s\": %s", unit, $i
  }
  printf "}"
}
END { printf "\n  ]\n}\n" }
' "$RAW" > "$OUT"

echo "wrote $OUT" >&2
