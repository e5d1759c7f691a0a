#!/usr/bin/env bash
# Machine-readable bench trajectory: runs the 2mm (Config A and B) and
# linreg sweeps, the replacement-policy x cap sweep (solo, plus the
# three-session lockstep multi-tenant sweep where the merged ScheduleOpt
# clock must beat LRU at the sub-working-set cap), the
# concurrent-session sweep (sessions x pool cap: per-session + aggregate
# throughput, admission parking, cross-session dedup), the
# expression-built workloads (covariance + ridge: CSE, scratch-write
# elision), and the open-loop serving sweep (Zipf whale-plus-mice traffic
# vs offered load per admission policy: p50/p99/p999, mouse/whale tails,
# admission waits; plus a pool-cap x replacement sweep with per-run
# block_reads / policy_saved_reads / evictions) and drops
# BENCH_<name>.json files (wall, io_seconds, compute_seconds, overlap,
# threads, DAG width, per-policy block_reads/evictions/spills, and
# per-session throughput) into the output directory.
#
# Usage: scripts/bench_json.sh [build_dir] [out_dir]
#   build_dir: CMake build tree with the bench binaries (default: build)
#   out_dir:   where to write BENCH_*.json (default: .)
# RIOT_SCALE shrinks/grows execution scale as usual.
set -euo pipefail

cd "$(dirname "$0")/.."
build_dir="${1:-build}"
out_dir="${2:-.}"

if [[ ! -x "${build_dir}/bench_fig4_2mm_a" ]]; then
  echo "bench binaries missing; build first: cmake --build ${build_dir} -j" >&2
  exit 1
fi
mkdir -p "${out_dir}"

for bench in fig4_2mm_a fig5_2mm_b fig6_linreg replacement sessions expr serve; do
  bin="${build_dir}/bench_${bench}"
  out="${out_dir}/BENCH_${bench}.json"
  echo "=== ${bench} -> ${out}"
  "${bin}" --json "${out}"
done

# Kernel microbenchmarks (google-benchmark binary, built only when the
# library is present): GFLOP/s for packed vs naive vs scalar GEMM across
# sizes/transposes, every paper_io GEMM shape on each ISA tier the host
# supports, elementwise bandwidth, reduction bandwidth. Any build
# runs the widest kernel tier the host supports (src/kernels/dense_tier.h);
# BENCH_kernels_baseline.json keeps the run from before the tiers, when
# default builds ran the SSE2 tile only.
if [[ -x "${build_dir}/bench_micro" ]]; then
  out="${out_dir}/BENCH_kernels.json"
  echo "=== kernels -> ${out}"
  "${build_dir}/bench_micro" \
    --benchmark_filter='GemmBench|GemmTier|BM_Elementwise|BM_SumSquares' \
    --benchmark_out="${out}" --benchmark_out_format=json
else
  echo "bench_micro not built (google-benchmark missing); skipping BENCH_kernels.json" >&2
fi
echo "wrote: $(ls "${out_dir}"/BENCH_*.json | tr '\n' ' ')"
