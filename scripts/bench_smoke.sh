#!/usr/bin/env bash
# Bench-smoke: run every criterion-shim bench target at reduced iterations
# (BENCH_SMOKE=1 → ≤ 3 samples × ≤ 3 iters per bench) plus the E23
# billion-address experiment (whose wall-clocks and sampled-error use the
# same "name": ns line protocol), and assemble the results into
# BENCH_<n>.json at the repo root, seeding the perf trajectory tracked
# across PRs.
#
# Usage: scripts/bench_smoke.sh [output.json]
#   (default: the next free BENCH_<n>.json — one past the highest n
#   already at the repo root, so each run extends the trajectory)
#
# PR 7 added the checkpoint_overhead/* tier: the resumable replay with
# checkpoints every 2^24 addresses (the production default) must stay
# within ~5% of the uncheckpointed replay, with the every-2^20 tier
# showing the amortized cost of real image writes (the tiers now share
# one warm-up pass, so run order no longer skews the comparison).
#
# PR 8 added the analytic tier: capacity_sweep_matmul_n96/engine_analytic
# (the closed-form histogram, zero replay) and the headline
# analytic_vs_stackdist_speedup ratio, which must stay >= 100x.
#
# PR 9 adds the device-traffic tiers: line_granular_sweep/* (the 16-point
# matmul sweep under the 8-word-line dirty-write-back model, one-pass
# vs tagged replay vs the word baseline) and the headline
# blocked_vs_naive_line_win ratio — how much more blocked matmul beats
# naive at 8-word lines than at word granularity (> 1, ~8.7x measured).
#
# PR 10 adds the profile-store tiers: profstore/serve_query_warm (one
# warm what-if query through the real `balance serve` session) and the
# headlines store_query_throughput (>= 1e5 queries/s acceptance bar)
# and store_build_registry (full 11-kernel registry x {16,32} grid into
# a fresh crash-safe store, every image checksummed and atomically
# published).
set -euo pipefail
cd "$(dirname "$0")/.."

last=0
for f in BENCH_*.json; do
  k="${f#BENCH_}"
  k="${k%.json}"
  if [[ "$k" =~ ^[0-9]+$ ]] && (( 10#$k > last )); then
    last=$((10#$k))
  fi
done
out="${1:-BENCH_$((last + 1)).json}"
# Absolute path: cargo bench runs each target with cwd = its package dir.
jsonl="$(pwd)/target/bench_smoke.jsonl"
rm -f "$jsonl"

BENCH_SMOKE=1 BENCH_JSON="$jsonl" cargo bench -p balance-bench

# E23 at the large tier streams a 1.03e9-address trace through the
# segmented and sampled engines and appends
# bigtrace/{segmented,sampled}_wall_ns and the sampled
# max-relative-error (ppm) to the same jsonl file.
cargo build --release -p balance-bench
BENCH_JSON="$jsonl" ./target/release/repro --scale large bigtrace

# Each shim line is one JSON object member ("name": ns); wrap into an object.
{
  echo '{'
  sed 's/^/  /; $!s/$/,/' "$jsonl"
  echo '}'
} > "$out"

echo "wrote $out ($(grep -c ':' "$out") benches)"
