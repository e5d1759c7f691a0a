#!/usr/bin/env bash
# Proof that the dense kernels vectorize in the default build, on every ISA
# tier. The hot loops live once in src/kernels/dense_tier.inc and are
# compiled per tier (dense_baseline.cc, dense_avx2.cc, dense_avx512.cc; see
# src/kernels/dense_tier.h). For each tier TU this compiles it standalone at
# -O3 with the flags a default Release build uses (no -march), and asserts
#   1. each kernel of interest — the GEMM microkernel, the elementwise
#      streams, the fused-tape interpreter and the fixed-lane reduction — has
#      at least one vectorized loop reported INSIDE its body (by line range
#      in dense_tier.inc);
#   2. the object holds the tier's packed double-precision SIMD:
#      baseline  SSE2 packed arithmetic and no VEX/EVEX code at all, so the
#                fallback runs on any x86-64;
#      avx2      packed FMA on ymm registers, and no zmm;
#      avx512    packed FMA on zmm registers.
#
# Usage: scripts/check_vectorization.sh [compiler]   (default: c++; x86-64)
set -euo pipefail
cd "$(dirname "$0")/.."
CXX="${1:-${CXX:-c++}}"
INC=src/kernels/dense_tier.inc
tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT

# Kernels that MUST vectorize, matched by their defining line in the .inc.
kernels=(MicroKernel Add Sub Scale FusedEval SumSquaresRange)

# start line of a tier function definition in the .inc
start_line() { grep -n -E "^RIOT_TIER_TARGET .*[ ]$1\(" "${INC}" | head -1 | cut -d: -f1; }
# first closing brace at column 0 after the start line = end of function
end_line() { awk -v s="$1" 'NR > s && /^}/ { print NR; exit }' "${INC}"; }

fail=0
ok() { echo "   ok   $*"; }
bad() { echo "   FAIL $*"; fail=1; }

check_tier() {
  local tier="$1" src="src/kernels/dense_$1.cc"
  echo "== ${tier}: ${CXX} -O3 ${src}"
  "${CXX}" -std=c++17 -O3 -DNDEBUG -Isrc -c "${src}" -o "${tmp}/${tier}.o" \
      -fopt-info-vec-optimized="${tmp}/${tier}.vec"
  for k in "${kernels[@]}"; do
    local s e n
    s="$(start_line "${k}")"
    e="$(end_line "${s}")"
    n=$(grep "dense_tier.inc:" "${tmp}/${tier}.vec" |
        awk -F: -v s="${s}" -v e="${e}" \
        '/loop vectorized/ && $2+0 >= s && $2+0 <= e' | wc -l)
    if [[ "${n}" -ge 1 ]]; then
      ok "${k} (dense_tier.inc:${s}-${e}): ${n} vectorized loop(s)"
    else
      bad "${k} (dense_tier.inc:${s}-${e}): no vectorized loop reported"
    fi
  done
  objdump -d --no-show-raw-insn "${tmp}/${tier}.o" > "${tmp}/${tier}.s"
  local asm="${tmp}/${tier}.s"
  case "${tier}" in
    baseline)
      if grep -Eq '\s(mul|add)pd\s+%xmm' "${asm}"; then
        ok "SSE2 packed double arithmetic present"
      else
        bad "no SSE2 packed double arithmetic"
      fi
      if grep -Eq '%[yz]mm|\sv[a-z0-9]+\s' "${asm}"; then
        bad "baseline tier holds VEX/EVEX code"
      else
        ok "no VEX/EVEX code: runs on any x86-64"
      fi
      ;;
    avx2)
      if grep -Eq 'vfmadd[0-9]+pd\s+%ymm' "${asm}"; then
        ok "packed FMA on ymm registers"
      else
        bad "no packed ymm FMA"
      fi
      if grep -q '%zmm' "${asm}"; then bad "avx2 tier holds zmm code"; fi
      ;;
    avx512)
      if grep -Eq 'vfmadd[0-9]+pd\s+%zmm' "${asm}"; then
        ok "packed FMA on zmm registers"
      else
        bad "no packed zmm FMA"
      fi
      ;;
  esac
}

for tier in baseline avx2 avx512; do check_tier "${tier}"; done

if [[ "${fail}" -ne 0 ]]; then
  echo "vectorization check FAILED"
  exit 1
fi
echo "vectorization check passed"
