#!/usr/bin/env bash
# Tier-1 verification matrix: build + ctest in Debug and Release, mirroring
# .github/workflows/ci.yml for machines without Actions. The fast suite
# excludes stress-labeled soaks; pass --stress to run those too (Release),
# mirroring the CI stress job.
set -euo pipefail

cd "$(dirname "$0")/.."
jobs="$(nproc 2>/dev/null || echo 2)"
run_stress=0
[[ "${1:-}" == "--stress" ]] && run_stress=1

for build_type in Debug Release; do
  dir="build-${build_type,,}"
  echo "=== ${build_type} ==="
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE="${build_type}"
  cmake --build "${dir}" -j "${jobs}"
  ctest --test-dir "${dir}" --output-on-failure -j "${jobs}" -LE stress
done

# Optimizer bench smoke, mirroring CI's Release-only step: the uncapped
# border search must make at most 64 FindSchedule calls on ridge and
# linreg.
echo "=== optimizer bench smoke ==="
opt_json="$(mktemp)"
trap 'rm -f "${opt_json}"' EXIT
./build-release/bench_opt_time --json "${opt_json}"
python3 - "${opt_json}" <<'EOF'
import json, sys
runs = {r["program"]: r for r in json.load(open(sys.argv[1]))["runs"]}
for name in ("ridge", "linreg"):
    calls = runs[name]["find_schedule_calls"]
    print(f"{name}: {calls} FindSchedule calls")
    if calls > 64:
        sys.exit(f"{name} made {calls} FindSchedule calls (limit 64)")
EOF

# Traced serve_zipf, mirroring CI's perfbench-smoke step: the run is
# correct, no job fails, every session fan-out and lookahead read is
# adopted (prefetch_useful_ratio 1) and no session parks on its budget.
echo "=== serve_zipf fan-out smoke ==="
serve_out="$(mktemp)"
trap 'rm -f "${opt_json}" "${serve_out}"' EXIT
python3 perfbench/run.py --workload serve_zipf --seconds 5 --trace 1 \
  --build-dir build-perf --out perf-out > "${serve_out}"
python3 - "${serve_out}" <<'EOF'
import json, sys
r = json.loads(open(sys.argv[1]).read().strip().splitlines()[-1])
m = r["metrics"]
useful = m["pool.prefetch_useful_ratio"]["value"]
parks = m["sessions.budget_parks"]["value"]
print("correct:", r["correct"], "failed:", r["failed"],
      "prefetch_useful_ratio:", useful, "budget_parks:", parks)
if not (r["correct"] and r["failed"] == 0 and useful == 1 and parks == 0):
    sys.exit("serve_zipf: wrong output, failed jobs, wasted prefetch or "
             "budget parks")
EOF

# Static-analysis gate, mirroring the CI static-analysis job. The
# plan-integrity linter runs everywhere; the Clang legs (thread-safety
# annotations as errors, clang-tidy) need a Clang toolchain and are
# skipped with a notice when one is not installed.
echo "=== static analysis ==="
./build-release/riot_lint --seeds 25
# No code opts out of the thread-safety analysis; the grep needs no Clang.
if grep -rn NO_THREAD_SAFETY_ANALYSIS src | grep -v '^src/util/thread_annotations.h:'; then
  echo "NO_THREAD_SAFETY_ANALYSIS used in src/ outside util/thread_annotations.h" >&2
  exit 1
fi
if command -v clang++ >/dev/null 2>&1; then
  cmake -B build-clang -S . -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_C_COMPILER=clang -DCMAKE_CXX_COMPILER=clang++ \
    -DRIOT_THREAD_SAFETY=ON \
    -DRIOT_BUILD_BENCHES=OFF -DRIOT_BUILD_EXAMPLES=OFF
  cmake --build build-clang -j "${jobs}"
  if command -v clang-tidy >/dev/null 2>&1; then
    find src -name '*.cc' -print0 | sort -z | \
      xargs -0 clang-tidy -p build-clang --quiet
  else
    echo "clang-tidy not installed; skipping (CI runs it)"
  fi
else
  echo "clang not installed; skipping thread-safety/clang-tidy legs (CI runs them)"
fi
if [[ "${run_stress}" == "1" ]]; then
  echo "=== stress (Release) ==="
  ctest --test-dir build-release --output-on-failure -j "${jobs}" -L stress
fi
echo "All checks passed."
