#!/usr/bin/env bash
# bench.sh — measure the host-performance benchmarks and write a JSON
# baseline for before/after comparisons.
#
#   scripts/bench.sh BENCH_PR<n>.json             # a PR's baseline, 5 iterations
#   BENCHTIME=20x scripts/bench.sh out.json       # steadier numbers
#   GOMAXPROCS=1 scripts/bench.sh out.json        # measure at one CPU
#   MEMPROFILE=/tmp/prof scripts/bench.sh out.json  # also write -memprofile artifacts
#
# Compare a fresh measurement against the committed baseline with
# cmd/benchcheck (CI's bench-smoke job does exactly this):
#
#   scripts/bench.sh /tmp/now.json
#   go run ./cmd/benchcheck -current /tmp/now.json
#
# The baseline records the measuring environment (go version, the -cpu
# value the benchmarks ran at, git SHA) so a regression report can be
# traced to the machine and commit that produced it. At -cpu N > 1 go test
# names rows "...-N"; benchcheck strips that suffix before matching.
#
# The ladder covers three layers: the core pipeline step
# (BenchmarkDetStep, whose rows also carry ns_per_core_cycle),
# checkpoint and rollback (BenchmarkCheckpointRestore), and whole runs on
# both hosts (BenchmarkSimulatorThroughput, BenchmarkParallelHost). The steady-state benchmarks (SimulatorThroughput,
# ParallelHost) carry a hard "max_allocs" ceiling of 500 allocs/op that
# benchcheck enforces absolutely — the zero-alloc steady state must not
# erode even through a chain of individually-tolerated regressions.
#
# The headline metric is densest_deep_over_incremental: how many times
# cheaper the incremental copy-on-write checkpoint path is than the
# reference deep-copy path at the densest checkpoint interval.
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${BENCHTIME:-5x}"
if [[ $# -ne 1 ]]; then
  echo "usage: scripts/bench.sh <output.json>   (e.g. BENCH_PR<n>.json)" >&2
  exit 2
fi
out="$1"

go_version=$(go env GOVERSION)
cpu="${GOMAXPROCS:-$(getconf _NPROCESSORS_ONLN)}"
git_sha=$(git rev-parse HEAD 2>/dev/null || echo unknown)

engine_prof=()
root_prof=()
if [[ -n "${MEMPROFILE:-}" ]]; then
  mkdir -p "$MEMPROFILE"
  engine_prof=(-memprofile "$MEMPROFILE/engine.memprofile")
  root_prof=(-memprofile "$MEMPROFILE/root.memprofile")
fi

engine_raw=$(go test ./internal/engine/ -run '^$' -bench 'BenchmarkCheckpointRestore|BenchmarkDetStep' -benchtime "$benchtime" -count 1 -cpu "$cpu" "${engine_prof[@]}")
root_raw=$(go test . -run '^$' -bench 'BenchmarkSimulatorThroughput|BenchmarkParallelHost' -benchtime "$benchtime" -count 1 -cpu "$cpu" "${root_prof[@]}")

printf '%s\n%s\n' "$engine_raw" "$root_raw" | awk \
  -v benchtime="$benchtime" -v go_version="$go_version" \
  -v cpu="$cpu" -v git_sha="$git_sha" '
/^Benchmark/ {
  name = $1; iters = $2; ns = "null"; bytes = "null"; allocs = "null"; extra = ""
  for (i = 2; i < NF; i++) {
    if ($(i+1) == "ns/op")         ns = $i
    if ($(i+1) == "B/op")          bytes = $i
    if ($(i+1) == "allocs/op")     allocs = $i
    if ($(i+1) == "ns/core-cycle") extra = extra sprintf(", \"ns_per_core_cycle\": %s", $i)
  }
  # The steady-state benchmarks carry the hard allocs/op ceiling.
  if (name ~ /SimulatorThroughput|ParallelHost/) extra = extra ", \"max_allocs\": 500"
  # Strip the -cpu suffix for the headline lookup below.
  key = name; sub(/-[0-9]+$/, "", key)
  ns_by[key] = ns
  rows[n++] = sprintf("    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s%s}",
                      name, iters, ns, bytes, allocs, extra)
}
END {
  deep = ""; inc = ""; densest = 1e18
  for (k in ns_by) {
    if (k ~ /CheckpointRestore\/interval=/) {
      split(k, parts, "=");  split(parts[2], p2, "/")
      if (p2[1] + 0 < densest) densest = p2[1] + 0
    }
  }
  for (k in ns_by) {
    if (k ~ ("interval=" densest "/deep$"))        deep = ns_by[k]
    if (k ~ ("interval=" densest "/incremental$")) inc  = ns_by[k]
  }
  print "{"
  printf "  \"benchtime\": \"%s\",\n", benchtime
  printf "  \"env\": {\"go_version\": \"%s\", \"cpu\": %s, \"git_sha\": \"%s\"},\n", go_version, cpu, git_sha
  if (deep != "" && inc != "" && inc + 0 > 0)
    printf "  \"densest_deep_over_incremental\": %.2f,\n", deep / inc
  print "  \"results\": ["
  for (i = 0; i < n; i++) printf "%s%s\n", rows[i], (i < n - 1 ? "," : "")
  print "  ]"
  print "}"
}' > "$out"

echo "wrote $out"
grep densest_deep_over_incremental "$out" || true
