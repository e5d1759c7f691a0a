// Expression-built workloads through the standard harness: covariance
// (centered X'X with scratch temporaries) and ridge regression at two
// lambdas (hash-consed X'X / X'y shared across both solves). Reports the
// usual predicted-vs-measured plan table plus the expression-level facts:
// CSE hits at graph-construction time and the scratch-write elision the
// best plan achieves. Each best plan, and twomm_a's, also runs at depth 2
// under its exact peak and 1.5 x it, and linreg's and chain's as perfbench's
// paper_io runs them.
//
//   --json <path> dumps every run for scripts/bench_json.sh
//   (BENCH_expr.json).
#include <cstdio>

#include "bench_common.h"
#include "exec/verify.h"
#include "ir/expr.h"
#include "util/logging.h"

namespace riot {
namespace bench {
namespace {

// The plan at depth 2 under its exact peak and 1.5 x it: the reads each
// cap lets run ahead (prefetch issued/declined), with I/O and peak checked
// against the cost model as in every harness run.
void RunLookahead(Harness* h, int plan_index, const std::string& name,
                  BenchJson* json) {
  std::vector<PlanRun> lookahead;
  for (const double cap_factor : {1.0, 1.5}) {
    char label[64];
    std::snprintf(label, sizeof(label), "best plan d2 cap %.1fx",
                  cap_factor);
    lookahead.push_back(
        h->RunPlan(plan_index, label, /*pipeline_depth=*/2, cap_factor));
    const PlanRun& run = lookahead.back();
    json->Add(name + "/" + run.label, "lookahead", /*threads=*/1,
              /*pipeline_depth=*/2, run.measured, /*policy=*/"",
              run.cap_bytes);
    std::printf("%s: prefetch issued %lld, declined %lld, hits %lld, "
                "wasted %lld\n",
                run.label.c_str(),
                static_cast<long long>(run.measured.pool.prefetch_issued),
                static_cast<long long>(run.measured.pool.prefetch_declined),
                static_cast<long long>(run.measured.prefetch_hits),
                static_cast<long long>(run.measured.prefetch_wasted));
  }
  Harness::PrintRuns(lookahead);
  std::printf("\n");
}

void RunOne(const std::string& name,
            const std::function<Workload(int64_t)>& factory,
            BenchJson* json) {
  std::printf("=== %s (expression-built) ===\n", name.c_str());
  Harness h(name, factory);
  const auto& r = h.Optimize();

  int scratch = 0;
  for (const ArrayInfo& a : h.paper_workload().program.arrays()) {
    scratch += a.persistent ? 0 : 1;
  }
  std::printf("%zu statements, %d scratch temporaries\n",
              h.paper_workload().program.statements().size(), scratch);

  std::vector<PlanRun> runs;
  runs.push_back(h.RunPlan(0, "Plan 0 (original)"));
  if (r.best_index != 0) {
    runs.push_back(h.RunPlan(r.best_index, "best plan"));
  }
  for (const PlanRun& run : runs) {
    json->Add(name + "/" + run.label, "plan", /*threads=*/1,
              /*pipeline_depth=*/0, run.measured);
  }
  Harness::PrintRuns(runs);
  if (runs.size() > 1) {
    std::printf("scratch-write elision: best plan writes %.2f MB vs %.2f MB "
                "unoptimized (%.1f%% of temporary I/O gone)\n\n",
                runs[1].measured.bytes_written / 1e6,
                runs[0].measured.bytes_written / 1e6,
                100.0 * (1.0 - double(runs[1].measured.bytes_written) /
                                   double(runs[0].measured.bytes_written)));
  }

  RunLookahead(&h, r.best_index, name, json);
}

// twomm_a's best plan, the one paper_io runs. Its requirement sits at the
// peak at nearly every position, so at 1.0x nothing runs ahead but each
// instance's second read, fanned out inside the instance's own
// requirement.
void RunTwoMmLookahead(BenchJson* json) {
  std::printf("=== twomm_a (Config A) best plan under lookahead ===\n");
  Harness h("twomm_a", [](int64_t s) {
    return MakeTwoMatMul(TwoMatMulConfig::kConfigA, s);
  });
  const auto& r = h.Optimize();
  RunLookahead(&h, r.best_index, "twomm_a", json);
}

// linreg's and chain's best plans as perfbench's paper_io runs them: at
// its scales (linreg 1/100, chain 1/50), depth 2, a cap of 1.5 x the
// predicted peak, on the paper's disk, slept. linreg prefetches X[k+1]
// while X[k] is read, and chain's output writes go behind; both are calls
// on one store that overlap on the disk. Block counts are checked against
// the cost model by RunPlan.
void RunPaperIoLookahead(BenchJson* json) {
  std::printf("=== paper_io best plans: d2, cap 1.5x, paper disk slept ===\n");
  struct Spec {
    const char* name;
    std::function<Workload(int64_t)> factory;
    int64_t scale;
  };
  const Spec specs[] = {
      {"linreg", MakeLinReg, 100},
      {"chain", [](int64_t s) { return MakeElementwiseChain(s); }, 50}};
  std::vector<ExecStats> measured;
  for (const Spec& spec : specs) {
    Harness h(spec.name, spec.factory, spec.scale);
    h.UsePaperDisk();
    const auto& r = h.Optimize();
    const PlanRun run = h.RunPlan(r.best_index, "best plan d2 cap 1.5x disk",
                                  /*pipeline_depth=*/2, /*cap_factor=*/1.5);
    json->Add(std::string(spec.name) + "/" + run.label, "paper_io",
              /*threads=*/1, /*pipeline_depth=*/2, run.measured,
              /*policy=*/"", run.cap_bytes);
    measured.push_back(run.measured);
  }
  std::printf("%-8s %9s %12s %12s %11s %10s\n", "program", "wall(s)",
              "block_reads", "block_writes", "overlap(s)", "io(s)");
  for (size_t i = 0; i < measured.size(); ++i) {
    const ExecStats& m = measured[i];
    std::printf("%-8s %9.4f %12lld %12lld %11.4f %10.4f\n", specs[i].name,
                m.wall_seconds, static_cast<long long>(m.block_reads),
                static_cast<long long>(m.block_writes), m.overlap_seconds,
                m.io_seconds);
  }
  std::printf("(io = time inside store calls, summed over the calls in "
              "flight at once)\n\n");
}

// Fusion sweep (ISSUE 10): the 7-op elementwise chain through both
// lowerings on a paper-rate throttled disk (real sleeps, so wall clock is
// I/O-bound the way the paper's disk is) under the same memory cap. The
// fused lowering must strictly reduce statements, scratch temporaries, and
// block reads, produce bit-identical output, and not be slower.
void RunFusionSweep(BenchJson* json) {
  const int64_t scale = ExecScale();
  auto base = NewMemEnv();
  auto disk = NewThrottledEnv(base.get(), kPaperReadMBps, kPaperWriteMBps,
                              kPaperRequestMs, /*sleep_scale=*/1.0);

  std::printf(
      "\n=== elementwise chain: fused vs unfused lowering (throttled disk "
      "%g/%g MB/s, 1/%lld scale, same cap) ===\n",
      kPaperReadMBps, kPaperWriteMBps, static_cast<long long>(scale));
  std::printf("%10s %6s %8s %12s %10s %11s %9s\n", "lowering", "stmts",
              "scratch", "block_reads", "read(MB)", "write(MB)", "wall(s)");

  struct SweepRun {
    ExecStats stats;
    size_t statements;
    int scratch;
  };
  SweepRun runs[2];
  Runtime ref_rt;
  ArrayInfo ref_out;
  int ref_arr = -1;
  int64_t cap = 0;
  for (const bool fuse : {true, false}) {
    Workload w = MakeElementwiseChain(scale, fuse);
    w.program.Validate().CheckOK();
    int scratch = 0;
    int64_t block_bytes = 0;
    for (const ArrayInfo& a : w.program.arrays()) {
      scratch += a.persistent ? 0 : 1;
      block_bytes = std::max(block_bytes, a.BlockBytes());
    }
    // Both lowerings get the identical cap: enough for a handful of blocks,
    // far too small to hide the unfused chain's temporaries in the pool.
    if (cap == 0) cap = 8 * block_bytes;

    auto rt = OpenStores(disk.get(), w.program, fuse ? "/fused" : "/unfused");
    rt.status().CheckOK();
    InitInputs(w, *rt, /*seed=*/1234).CheckOK();
    ExecOptions eo;
    eo.memory_cap_bytes = cap;
    Executor ex(w.program, rt->raw(), w.kernels, eo);
    auto stats = ex.Run(w.program.original_schedule(), {});
    stats.status().CheckOK();

    const char* name = fuse ? "fused" : "unfused";
    std::printf("%10s %6zu %8d %12lld %10.2f %11.2f %9.3f\n", name,
                w.program.statements().size(), scratch,
                static_cast<long long>(stats->block_reads),
                stats->bytes_read / 1e6, stats->bytes_written / 1e6,
                stats->wall_seconds);
    if (json != nullptr) {
      json->Add(std::string("chain-") + name, "fusion", /*threads=*/1,
                /*pipeline_depth=*/0, *stats);
    }
    runs[fuse ? 0 : 1] = {*stats, w.program.statements().size(), scratch};
    if (fuse) {
      RIOT_CHECK_EQ(w.output_arrays.size(), 1u);
      ref_arr = w.output_arrays[0];
      ref_out = w.program.array(ref_arr);
      ref_rt = std::move(rt).ValueOrDie();
    } else {
      // Same graph, same inputs: the two lowerings must agree bit for bit
      // (the output's array id differs between lowerings; its shape cannot).
      auto d = MaxAbsDifference(
          ref_out, ref_rt.stores[static_cast<size_t>(ref_arr)].get(),
          rt->stores[static_cast<size_t>(w.output_arrays[0])].get());
      d.status().CheckOK();
      RIOT_CHECK(*d == 0.0) << "fused/unfused outputs diverged: " << *d;
    }
  }

  const SweepRun& f = runs[0];
  const SweepRun& u = runs[1];
  RIOT_CHECK_LT(f.statements, u.statements);
  RIOT_CHECK_LT(f.scratch, u.scratch);
  RIOT_CHECK_LT(f.stats.block_reads, u.stats.block_reads);
  RIOT_CHECK(f.stats.wall_seconds <= u.stats.wall_seconds)
      << "fused lowering slower than unfused on a disk-bound config";
  std::printf("fusion: %zu -> %zu statements, %d -> %d scratch, "
              "%lld -> %lld block reads, wall %.3fs -> %.3fs (%.2fx)\n\n",
              u.statements, f.statements, u.scratch, f.scratch,
              static_cast<long long>(u.stats.block_reads),
              static_cast<long long>(f.stats.block_reads),
              u.stats.wall_seconds, f.stats.wall_seconds,
              u.stats.wall_seconds / f.stats.wall_seconds);
}

void Run(int argc, char** argv) {
  BenchJson json("expr", argc, argv);

  // CSE evidence straight from the graph: ridge's factory spells X'X and
  // X'y out twice (once per lambda) and hash-consing dedups both.
  {
    Workload probe = MakeRidge(ExecScale());
    std::printf("ridge: %zu statements for two lambdas (10 without CSE)\n\n",
                probe.program.statements().size());
  }

  RunOne("covariance", [](int64_t s) { return MakeCovariance(s); }, &json);
  RunOne("ridge", MakeRidge, &json);
  RunTwoMmLookahead(&json);
  RunPaperIoLookahead(&json);

  RunFusionSweep(&json);
  RunThreadSweep("ridge", MakeRidge, &json);
  json.Flush();
}

}  // namespace
}  // namespace bench
}  // namespace riot

int main(int argc, char** argv) {
  riot::bench::Run(argc, argv);
  return 0;
}
