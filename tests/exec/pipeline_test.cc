// The prefetching pipeline (ExecOptions::pipeline_depth) must change
// *when* disk reads happen, never *what* the plan does: identical I/O
// counts, identical results, identical memory requirement — while wall
// time drops below io + compute once reads overlap kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>

#include "analysis/coaccess.h"
#include "core/access_plan.h"
#include "core/cost_model.h"
#include "core/optimizer.h"
#include "core/schedule_solver.h"
#include "exec/executor.h"
#include "exec/verify.h"
#include "ops/runtime.h"
#include "ops/workload.h"
#include "storage/env.h"
#include "testing/in_flight_store.h"

namespace riot {
namespace {

const CoAccess* Find(const std::vector<CoAccess>& list, const Program& p,
                     const std::string& label) {
  for (const auto& ca : list) {
    if (ca.Label(p) == label) return &ca;
  }
  return nullptr;
}

ExecStats MustRun(const Workload& w, Env* env, const std::string& dir,
                  const Schedule& sched, const std::vector<const CoAccess*>& q,
                  ExecOptions opts, Runtime* rt_out = nullptr,
                  StorageFormat format = StorageFormat::kDaf) {
  auto rt = OpenStores(env, w.program, dir, format);
  rt.status().CheckOK();
  InitInputs(w, *rt, /*seed=*/7).CheckOK();
  Executor ex(w.program, rt->raw(), w.kernels, opts);
  auto stats = ex.Run(sched, q);
  stats.status().CheckOK();
  if (rt_out != nullptr) *rt_out = std::move(rt).ValueOrDie();
  return *stats;
}

// The sharing set of the optimizer's best plan.
std::vector<const CoAccess*> BestRealized(const OptimizationResult& r) {
  std::vector<const CoAccess*> q;
  for (int oi : r.best().opportunities) {
    q.push_back(&r.analysis.sharing[static_cast<size_t>(oi)]);
  }
  return q;
}

void ExpectOutputsEqual(const Workload& w, const Runtime& a,
                        const Runtime& b) {
  for (int arr : w.output_arrays) {
    const ArrayInfo& info = w.program.array(arr);
    auto d = MaxAbsDifference(info, a.stores[size_t(arr)].get(),
                              b.stores[size_t(arr)].get());
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(*d, 0.0) << info.name;
  }
}

TEST(PipelineTest, DepthZeroMatchesCostModelExactly) {
  // The synchronous degradation: I/O counts and peak memory must equal the
  // cost model's static prediction, as they always have.
  Workload w = MakeTwoMatMul(TwoMatMulConfig::kConfigA, /*scale=*/1000);
  auto env = NewMemEnv();
  PlanCost predicted =
      EvaluatePlanCost(w.program, w.program.original_schedule(), {});
  ExecOptions opts;
  opts.pipeline_depth = 0;
  ExecStats s = MustRun(w, env.get(), "/d0", w.program.original_schedule(),
                        {}, opts);
  EXPECT_EQ(s.bytes_read, predicted.read_bytes);
  EXPECT_EQ(s.bytes_written, predicted.write_bytes);
  EXPECT_EQ(s.peak_required_bytes, predicted.peak_memory_bytes);
  EXPECT_EQ(s.prefetch_hits, 0);
  EXPECT_EQ(s.prefetch_wasted, 0);
  EXPECT_EQ(s.pool.prefetch_issued, 0);
}

TEST(PipelineTest, PipelinedPreservesIoCountsAndResults) {
  Workload w = MakeTwoMatMul(TwoMatMulConfig::kConfigA, /*scale=*/1000);
  auto env = NewMemEnv();
  ExecOptions sync_opts;
  Runtime rt0;
  ExecStats s0 = MustRun(w, env.get(), "/sync", w.program.original_schedule(),
                         {}, sync_opts, &rt0);

  for (int depth : {1, 2, 4}) {
    ExecOptions opts;
    opts.pipeline_depth = depth;
    Runtime rt1;
    ExecStats s1 =
        MustRun(w, env.get(), "/p" + std::to_string(depth),
                w.program.original_schedule(), {}, opts, &rt1);
    // Same plan, same I/O — only the timing moved.
    EXPECT_EQ(s1.bytes_read, s0.bytes_read) << "depth " << depth;
    EXPECT_EQ(s1.bytes_written, s0.bytes_written) << "depth " << depth;
    EXPECT_EQ(s1.block_reads, s0.block_reads) << "depth " << depth;
    EXPECT_EQ(s1.block_writes, s0.block_writes) << "depth " << depth;
    EXPECT_EQ(s1.peak_required_bytes, s0.peak_required_bytes)
        << "depth " << depth;
    EXPECT_GT(s1.prefetch_hits, 0) << "depth " << depth;
    EXPECT_EQ(s1.prefetch_wasted, 0) << "depth " << depth;
    for (int arr : w.output_arrays) {
      const ArrayInfo& info = w.program.array(arr);
      auto d = MaxAbsDifference(info, rt0.stores[size_t(arr)].get(),
                                rt1.stores[size_t(arr)].get());
      ASSERT_TRUE(d.ok());
      EXPECT_EQ(*d, 0.0) << "depth " << depth << " array " << info.name;
    }
  }
}

TEST(PipelineTest, SharedPlanSemanticsUnchangedUnderPipeline) {
  // kPlanExact with realized opportunities: the pipeline must not disturb
  // saved reads (served from retained memory), W->W saves, or write
  // elision.
  Workload w = MakeExample1(2, 3, 1);
  AnalysisResult a = AnalyzeProgram(w.program);
  ScheduleSolver solver(w.program, a.dependences);
  std::vector<const CoAccess*> q = {
      Find(a.sharing, w.program, "s1WC->s2RC"),
      Find(a.sharing, w.program, "s2WE->s2RE"),
      Find(a.sharing, w.program, "s2WE->s2WE")};
  for (auto* o : q) ASSERT_NE(o, nullptr);
  auto s = solver.FindSchedule(q);
  ASSERT_TRUE(s.has_value());

  auto env = NewMemEnv();
  const int64_t blk = w.program.array(0).BlockBytes();
  for (int depth : {0, 2}) {
    ExecOptions opts;
    opts.pipeline_depth = depth;
    ExecStats st = MustRun(w, env.get(), "/sh" + std::to_string(depth), *s,
                           q, opts);
    // C never touches disk (n3 = 1, fully pipelined); E written once per
    // block; reads only A, B, D — identical at every depth.
    EXPECT_EQ(st.bytes_read, (2 * 2 * 3 + 3 * 1 * 2) * blk) << depth;
    EXPECT_EQ(st.bytes_written, 2 * 1 * blk) << depth;
  }
}

TEST(PipelineTest, PipelinedLabTreeStoresStaySerialized) {
  // LAB-tree stores mutate their node cache even on reads, and worker
  // prefetch reads run beside the consumer's synchronous writes on the
  // same store with no lock around the store call: the store's own index
  // lock must keep its node cache whole. Wrong data or a crash here means
  // that lock broke.
  Workload w = MakeTwoMatMul(TwoMatMulConfig::kConfigA, /*scale=*/1000);
  auto env = NewMemEnv();
  Runtime rt0;
  ExecStats s0 = MustRun(w, env.get(), "/lt0", w.program.original_schedule(),
                         {}, ExecOptions{}, &rt0, StorageFormat::kLabTree);
  ExecOptions opts;
  opts.pipeline_depth = 2;
  opts.io_threads = 2;
  Runtime rt1;
  ExecStats s1 = MustRun(w, env.get(), "/lt1", w.program.original_schedule(),
                         {}, opts, &rt1, StorageFormat::kLabTree);
  EXPECT_EQ(s1.bytes_read, s0.bytes_read);
  EXPECT_EQ(s1.bytes_written, s0.bytes_written);
  EXPECT_GT(s1.prefetch_hits, 0);
  for (int arr : w.output_arrays) {
    const ArrayInfo& info = w.program.array(arr);
    auto d = MaxAbsDifference(info, rt0.stores[size_t(arr)].get(),
                              rt1.stores[size_t(arr)].get());
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(*d, 0.0) << info.name;
  }
}

TEST(PipelineTest, PrefetchRespectsMemoryCapOfInCapPlan) {
  // Run the best plan at exactly its predicted memory requirement: the
  // lookahead must decline rather than evict what the plan needs.
  Workload w = MakeExample1(3, 3, 2);
  AnalysisResult a = AnalyzeProgram(w.program);
  ScheduleSolver solver(w.program, a.dependences);
  std::vector<const CoAccess*> q = {Find(a.sharing, w.program, "s1WC->s2RC")};
  ASSERT_NE(q[0], nullptr);
  auto s = solver.FindSchedule(q);
  ASSERT_TRUE(s.has_value());
  PlanCost cost = EvaluatePlanCost(w.program, *s, q);

  auto env = NewMemEnv();
  ExecOptions opts;
  opts.memory_cap_bytes = cost.peak_memory_bytes;
  opts.pipeline_depth = 2;
  ExecStats st = MustRun(w, env.get(), "/cap", *s, q, opts);
  EXPECT_EQ(st.bytes_read, cost.read_bytes);
  EXPECT_EQ(st.bytes_written, cost.write_bytes);
  EXPECT_EQ(st.peak_required_bytes, cost.peak_memory_bytes);
}

TEST(PipelineTest, PrefetchesAtExactPeakWhereRequirementDips) {
  // addmul's best plan requires its peak only at some positions. At a cap
  // of exactly that peak, a budget of cap - peak would leave no lookahead
  // at all; charging each prefetch the requirement over the positions its
  // frame spans lets reads run ahead across the dips, and the run still
  // reads exactly the predicted blocks with nothing canceled.
  Workload w = MakeAddMul(/*scale=*/100);
  OptimizationResult r = Optimize(w.program, OptimizerOptions{});
  const std::vector<const CoAccess*> q = BestRealized(r);
  const Schedule& sched = r.best().schedule;
  PlanCost cost = EvaluatePlanCost(w.program, sched, q);
  const std::vector<int64_t> required =
      LowerPlan(w.program, sched, q).ValueOrDie().required_bytes;
  ASSERT_LT(*std::min_element(required.begin(), required.end()),
            cost.peak_memory_bytes);

  auto env = NewMemEnv();
  Runtime ref_rt;
  MustRun(w, env.get(), "/dip_ref", sched, q, ExecOptions{}, &ref_rt);
  BufferPool pool(cost.peak_memory_bytes);
  ExecOptions opts;
  opts.pipeline_depth = 2;
  opts.shared_pool = &pool;
  Runtime rt;
  ExecStats st = MustRun(w, env.get(), "/dip", sched, q, opts, &rt);
  EXPECT_GT(st.pool.prefetch_issued, 0);
  EXPECT_EQ(st.prefetch_hits, st.pool.prefetch_issued);
  EXPECT_EQ(st.prefetch_wasted, 0);
  EXPECT_EQ(st.block_reads, cost.block_reads);
  EXPECT_EQ(st.block_writes, cost.block_writes);
  EXPECT_EQ(st.peak_required_bytes, cost.peak_memory_bytes);
  EXPECT_EQ(pool.PinnedFrames(), 0);
  ExpectOutputsEqual(w, ref_rt, rt);
}

TEST(PipelineTest, FansOutInstanceReadsAtExactPeak) {
  // twomm_a's best plan requires its peak at nearly every position, so at
  // a cap of exactly that peak lookahead for later positions has no room.
  // Each instance's second disk read still goes to the I/O workers when
  // the instance is dispatched: that frame is part of the instance's own
  // requirement, so it is charged inside it. The run reads exactly the
  // predicted blocks, cancels nothing and holds the predicted peak.
  Workload w = MakeTwoMatMul(TwoMatMulConfig::kConfigA, /*scale=*/1000);
  OptimizationResult r = Optimize(w.program, OptimizerOptions{});
  const std::vector<const CoAccess*> q = BestRealized(r);
  const Schedule& sched = r.best().schedule;
  PlanCost cost = EvaluatePlanCost(w.program, sched, q);
  const AccessScript script = LowerPlan(w.program, sched, q).ValueOrDie();
  // The peak holds at 660 of the plan's 720 positions.
  ASSERT_GT(std::count(script.required_bytes.begin(),
                       script.required_bytes.end(), cost.peak_memory_bytes) *
                10,
            static_cast<std::ptrdiff_t>(script.required_bytes.size()) * 9);
  // Instances with a second disk read: each has one to fan out.
  int64_t two_reads = 0;
  for (const auto& [begin, end] : script.per_pos) {
    int64_t reads = 0;
    for (uint32_t i = begin; i < end; ++i) {
      const BlockAccessRecord& rec = script.records[i];
      if (rec.type == AccessType::kRead && !rec.saved) ++reads;
    }
    if (reads >= 2) ++two_reads;
  }
  ASSERT_GT(two_reads, 0);

  auto env = NewMemEnv();
  Runtime runs[2];
  for (int depth : {0, 1}) {
    SCOPED_TRACE("depth " + std::to_string(depth));
    BufferPool pool(cost.peak_memory_bytes);
    ExecOptions opts;
    opts.pipeline_depth = depth;
    opts.shared_pool = &pool;
    ExecStats st = MustRun(w, env.get(), "/fan" + std::to_string(depth),
                           sched, q, opts, &runs[depth]);
    if (depth == 0) {
      EXPECT_EQ(st.pool.prefetch_issued, 0);
    } else {
      EXPECT_GE(st.pool.prefetch_issued, two_reads);
    }
    EXPECT_EQ(st.prefetch_hits, st.pool.prefetch_issued);
    EXPECT_EQ(st.prefetch_wasted, 0);
    EXPECT_EQ(st.block_reads, cost.block_reads);
    EXPECT_EQ(st.block_writes, cost.block_writes);
    EXPECT_EQ(st.peak_required_bytes, cost.peak_memory_bytes);
    EXPECT_EQ(pool.PinnedFrames(), 0);
  }
  ExpectOutputsEqual(w, runs[0], runs[1]);
}

// Runs `w`'s best plan at depth 2 under a cap of 1.5 x its predicted peak,
// as the paper_io benchmark does, with array `arr`'s store wrapped in an
// InFlightCounter; returns its peak. The run must match the plan's block
// counts and waste no prefetch, and its outputs must equal a depth-0
// run's bit for bit.
int PeakInFlight(const Workload& w, const std::string& dir, int arr,
                 bool count_writes) {
  OptimizationResult r = Optimize(w.program, OptimizerOptions{});
  const std::vector<const CoAccess*> q = BestRealized(r);
  const Schedule& sched = r.best().schedule;
  PlanCost cost = EvaluatePlanCost(w.program, sched, q);

  auto env = NewMemEnv();
  Runtime ref;
  MustRun(w, env.get(), dir + "_ref", sched, q, ExecOptions{}, &ref);

  auto rt = OpenStores(env.get(), w.program, dir);
  rt.status().CheckOK();
  InitInputs(w, *rt, /*seed=*/7).CheckOK();
  // Outputs exist on disk, as after an earlier job, so their writes may go
  // behind to the I/O workers.
  for (int out : w.output_arrays) {
    ZeroArray(w.program.array(out), rt->stores[size_t(out)].get()).CheckOK();
  }
  InFlightCounter counter(count_writes);
  std::vector<BlockStore*> stores = rt->raw();
  stores[size_t(arr)] = counter.Wrap(stores[size_t(arr)]);
  ExecOptions opts;
  opts.pipeline_depth = 2;
  opts.memory_cap_bytes =
      static_cast<int64_t>(1.5 * static_cast<double>(cost.peak_memory_bytes));
  Executor ex(w.program, stores, w.kernels, opts);
  auto st = ex.Run(sched, q);
  st.status().CheckOK();
  EXPECT_EQ(st->block_reads, cost.block_reads);
  EXPECT_EQ(st->block_writes, cost.block_writes);
  EXPECT_EQ(st->prefetch_wasted, 0);
  ExpectOutputsEqual(w, ref, *rt);
  return counter.peak();
}

int ArrayNamed(const Program& p, const std::string& name) {
  for (const ArrayInfo& a : p.arrays()) {
    if (a.name == name) return a.id;
  }
  return -1;
}

TEST(PipelineTest, SameStoreReadsOverlapOnLinreg) {
  // linreg reads X[k] and prefetches X[k+1] from one store: with calls on
  // distinct blocks free to overlap, both reads are in flight at once.
  Workload w = MakeLinReg(/*scale=*/200);
  const int x = ArrayNamed(w.program, "X");
  ASSERT_GE(x, 0);
  EXPECT_GE(PeakInFlight(w, "/olr", x, /*count_writes=*/false), 2);
}

TEST(PipelineTest, SameStoreWritesOverlapOnChain) {
  // chain's output blocks go behind to the I/O workers one per instance;
  // two workers land two writes to the output store at once.
  Workload w = MakeElementwiseChain(/*scale=*/200);
  ASSERT_EQ(w.output_arrays.size(), 1u);
  EXPECT_GE(PeakInFlight(w, "/och", w.output_arrays[0],
                         /*count_writes=*/true),
            2);
}

TEST(PipelineTest, OverlapsComputeWithIoOn2mm) {
  // The acceptance criterion: against a ThrottledEnv that physically
  // blocks, the pipelined 2mm run runs kernels while disk reads are in
  // flight, and finishes in less wall time than io + compute — disk time
  // hidden behind kernel time.
  Workload w = MakeTwoMatMul(TwoMatMulConfig::kConfigA, /*scale=*/1000);
  // Give the kernels measurable compute (the scaled blocks are tiny).
  for (auto& kernel : w.kernels) {
    StatementKernel inner = kernel;
    kernel = [inner](const std::vector<int64_t>& iter,
                     const std::vector<DenseView*>& views) {
      inner(iter, views);
      auto t0 = std::chrono::steady_clock::now();
      volatile double sink = 0.0;
      while (std::chrono::duration<double>(
                 std::chrono::steady_clock::now() - t0)
                 .count() < 300e-6) {
        sink = sink + 1.0;
      }
    };
  }
  auto mem = NewMemEnv();
  // Negligible byte rate term, 0.15 ms per request, physically slept.
  auto disk = NewThrottledEnv(mem.get(), /*read=*/1e6, /*write=*/1e6,
                              /*per_request_ms=*/0.15, /*sleep_scale=*/1.0);

  ExecOptions sync_opts;
  ExecStats s0 = MustRun(w, disk.get(), "/ov0",
                         w.program.original_schedule(), {}, sync_opts);
  ExecOptions pipe_opts;
  pipe_opts.pipeline_depth = 2;
  ExecStats s1 = MustRun(w, disk.get(), "/ov1",
                         w.program.original_schedule(), {}, pipe_opts);

  std::printf("s0 wall=%.3f io=%.3f cpu=%.3f | s1 wall=%.3f io=%.3f "
              "cpu=%.3f hits=%lld wasted=%lld issued=%lld declined=%lld "
              "reads=%lld\n",
              s0.wall_seconds, s0.io_seconds, s0.compute_seconds,
              s1.wall_seconds, s1.io_seconds, s1.compute_seconds,
              (long long)s1.prefetch_hits, (long long)s1.prefetch_wasted,
              (long long)s1.pool.prefetch_issued,
              (long long)s1.pool.prefetch_declined,
              (long long)s1.block_reads);
  // Synchronous: io and compute strictly add (allow small scheduling
  // slack).
  EXPECT_GE(s0.wall_seconds, s0.io_seconds + s0.compute_seconds - 0.02);
  EXPECT_GT(s1.prefetch_hits, 0);
  // Same I/O either way.
  EXPECT_EQ(s1.bytes_read, s0.bytes_read);
  EXPECT_EQ(s1.bytes_written, s0.bytes_written);

  // Overlap by count, whatever the host's speed: a third, pipelined run
  // through stores that count reads in flight (holding one until a kernel
  // sees it) must start a kernel while a disk read is in flight.
  InFlightCounter reads(/*count_writes=*/false, /*release_at_two=*/false);
  std::atomic<int> kernels_during_reads{0};
  Workload counted = w;
  for (auto& kernel : counted.kernels) {
    StatementKernel inner = kernel;
    kernel = [inner, &reads, &kernels_during_reads](
                 const std::vector<int64_t>& iter,
                 const std::vector<DenseView*>& views) {
      if (reads.Busy()) ++kernels_during_reads;
      inner(iter, views);
    };
  }
  auto rt = OpenStores(disk.get(), counted.program, "/ov2");
  rt.status().CheckOK();
  InitInputs(counted, *rt, /*seed=*/7).CheckOK();
  std::vector<BlockStore*> stores = rt->raw();
  for (BlockStore*& store : stores) store = reads.Wrap(store);
  Executor ex(counted.program, stores, counted.kernels, pipe_opts);
  auto s2 = ex.Run(counted.program.original_schedule(), {});
  ASSERT_TRUE(s2.ok()) << s2.status().ToString();
  EXPECT_EQ(s2->bytes_read, s0.bytes_read);
  EXPECT_GT(kernels_during_reads.load(), 0);
#ifndef RIOT_SANITIZED
  // Wall clock, where the host runs the engine at full speed.
  EXPECT_LT(s1.wall_seconds,
            s1.io_seconds + s1.compute_seconds - 0.05);
  EXPECT_GT(s1.overlap_seconds, 0.05);
#endif
}

// ---------------------------------------------------------------------------
// Parallel kernel dispatch (ExecOptions::exec_threads): every thread/depth
// configuration must reproduce the serial engine's stored outputs exactly.
// ---------------------------------------------------------------------------

TEST(ParallelExecTest, MatchesSerialAcrossThreadDepthMatrix) {
  Workload w = MakeTwoMatMul(TwoMatMulConfig::kConfigA, /*scale=*/1000);
  auto env = NewMemEnv();
  Runtime rt0;
  ExecStats s0 = MustRun(w, env.get(), "/pm0", w.program.original_schedule(),
                         {}, ExecOptions{}, &rt0);
  for (int threads : {2, 4}) {
    for (int depth : {0, 2}) {
      ExecOptions opts;
      opts.exec_threads = threads;
      opts.pipeline_depth = depth;
      Runtime rt1;
      ExecStats s1 = MustRun(
          w, env.get(),
          "/pm_t" + std::to_string(threads) + "d" + std::to_string(depth),
          w.program.original_schedule(), {}, opts, &rt1);
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " depth=" + std::to_string(depth));
      // Writes are plan-exact in every mode; reads may come in under the
      // serial count (residency dedupe), never over.
      EXPECT_EQ(s1.bytes_written, s0.bytes_written);
      EXPECT_EQ(s1.block_writes, s0.block_writes);
      EXPECT_LE(s1.block_reads, s0.block_reads);
      EXPECT_GT(s1.block_reads, 0);
      EXPECT_GT(s1.parallel_groups, 0);
      EXPECT_GT(s1.max_ready_width, 1);
      for (int arr : w.output_arrays) {
        const ArrayInfo& info = w.program.array(arr);
        auto d = MaxAbsDifference(info, rt0.stores[size_t(arr)].get(),
                                  rt1.stores[size_t(arr)].get());
        ASSERT_TRUE(d.ok());
        EXPECT_EQ(*d, 0.0) << "array " << info.name;
      }
    }
  }
}

TEST(ParallelExecTest, SharedPlanSemanticsPreservedUnderThreads) {
  // Saved reads, W->W saves, and write elision must survive parallel
  // dispatch: the DAG's materializer edges order every consumer after the
  // access that retained its block.
  Workload w = MakeExample1(2, 3, 1);
  AnalysisResult a = AnalyzeProgram(w.program);
  ScheduleSolver solver(w.program, a.dependences);
  std::vector<const CoAccess*> q = {
      Find(a.sharing, w.program, "s1WC->s2RC"),
      Find(a.sharing, w.program, "s2WE->s2RE"),
      Find(a.sharing, w.program, "s2WE->s2WE")};
  for (auto* o : q) ASSERT_NE(o, nullptr);
  auto s = solver.FindSchedule(q);
  ASSERT_TRUE(s.has_value());

  auto env = NewMemEnv();
  Runtime rt0;
  ExecStats s0 = MustRun(w, env.get(), "/sp0", *s, q, ExecOptions{}, &rt0);
  for (int threads : {2, 4}) {
    ExecOptions opts;
    opts.exec_threads = threads;
    opts.pipeline_depth = 2;
    Runtime rt1;
    ExecStats s1 = MustRun(w, env.get(), "/sp" + std::to_string(threads), *s,
                           q, opts, &rt1);
    // Elided/saved writes stay elided: written bytes match the plan.
    EXPECT_EQ(s1.bytes_written, s0.bytes_written) << threads;
    for (int arr : w.output_arrays) {
      const ArrayInfo& info = w.program.array(arr);
      auto d = MaxAbsDifference(info, rt0.stores[size_t(arr)].get(),
                                rt1.stores[size_t(arr)].get());
      ASSERT_TRUE(d.ok());
      EXPECT_EQ(*d, 0.0) << "threads " << threads << " array " << info.name;
    }
  }
}

TEST(ParallelExecTest, LabTreeStoresStaySerializedUnderThreads) {
  // Kernel workers + prefetch workers calling LAB-tree stores at once:
  // the store's own index lock must keep its node cache whole while
  // data-extent I/O on distinct blocks overlaps.
  Workload w = MakeTwoMatMul(TwoMatMulConfig::kConfigA, /*scale=*/1000);
  auto env = NewMemEnv();
  Runtime rt0;
  ExecStats s0 = MustRun(w, env.get(), "/plt0", w.program.original_schedule(),
                         {}, ExecOptions{}, &rt0, StorageFormat::kLabTree);
  ExecOptions opts;
  opts.exec_threads = 4;
  opts.pipeline_depth = 2;
  opts.io_threads = 2;
  Runtime rt1;
  ExecStats s1 = MustRun(w, env.get(), "/plt1", w.program.original_schedule(),
                         {}, opts, &rt1, StorageFormat::kLabTree);
  EXPECT_EQ(s1.bytes_written, s0.bytes_written);
  for (int arr : w.output_arrays) {
    const ArrayInfo& info = w.program.array(arr);
    auto d = MaxAbsDifference(info, rt0.stores[size_t(arr)].get(),
                              rt1.stores[size_t(arr)].get());
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(*d, 0.0) << info.name;
  }
}

TEST(ParallelExecTest, SharedPoolEndsCleanOnSuccess) {
  // The shared_pool contract: a completed run leaves no pins and no
  // retentions, only clean evictable cache.
  Workload w = MakeExample1(3, 3, 2);
  auto env = NewMemEnv();
  auto rt = OpenStores(env.get(), w.program, "/spool");
  rt.status().CheckOK();
  InitInputs(w, *rt, /*seed=*/7).CheckOK();
  BufferPool pool(int64_t{1} << 30);
  ExecOptions opts;
  opts.exec_threads = 4;
  opts.pipeline_depth = 2;
  opts.shared_pool = &pool;
  Executor ex(w.program, rt->raw(), w.kernels, opts);
  auto stats = ex.Run(w.program.original_schedule(), {});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(pool.PinnedFrames(), 0);
  EXPECT_EQ(pool.PinnedOrRetainedBytes(), 0);
  // A second run against the now-warm shared pool must still be correct
  // (frames left behind are clean cache, never stale).
  auto stats2 = ex.Run(w.program.original_schedule(), {});
  ASSERT_TRUE(stats2.ok()) << stats2.status().ToString();
  EXPECT_EQ(pool.PinnedFrames(), 0);
}

TEST(ParallelExecTest, DivergentWriteFramesDroppedFromSharedPool) {
  // A plan with elided writes finishes with frames whose contents never
  // reached disk (the paper's footnote-8 temporaries). Such frames must
  // not survive the run as "clean cache" in a shared pool: a later run's
  // parallel residency-dedupe would trust them over the stores.
  Workload w = MakeExample1(2, 3, 1);
  AnalysisResult a = AnalyzeProgram(w.program);
  ScheduleSolver solver(w.program, a.dependences);
  std::vector<const CoAccess*> q = {
      Find(a.sharing, w.program, "s1WC->s2RC"),
      Find(a.sharing, w.program, "s2WE->s2RE"),
      Find(a.sharing, w.program, "s2WE->s2WE")};
  for (auto* o : q) ASSERT_NE(o, nullptr);
  auto s = solver.FindSchedule(q);
  ASSERT_TRUE(s.has_value());

  auto env = NewMemEnv();
  for (int threads : {1, 4}) {
    auto rt = OpenStores(env.get(), w.program, "/dv" + std::to_string(threads));
    rt.status().CheckOK();
    InitInputs(w, *rt, /*seed=*/7).CheckOK();
    BufferPool pool(int64_t{1} << 30);
    ExecOptions opts;
    opts.exec_threads = threads;
    opts.pipeline_depth = 2;
    opts.shared_pool = &pool;
    Executor ex(w.program, rt->raw(), w.kernels, opts);
    auto stats = ex.Run(*s, q);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    // C's writes are fully elided under this plan (its blocks never touch
    // disk), so no C frame may linger after the run.
    const int c_id = 2;
    for (int64_t b = 0; b < w.program.array(c_id).NumBlocks(); ++b) {
      EXPECT_EQ(pool.Probe(c_id, b), nullptr)
          << "threads=" << threads << " C block " << b;
    }
    // Per-run pool stats must be deltas even though the pool is shared.
    ExecStats again = ex.Run(*s, q).ValueOrDie();
    EXPECT_LE(again.pool.misses, stats->pool.misses + stats->pool.hits);
  }
}

TEST(ParallelExecTest, TightCapParksInsteadOfCorrupting) {
  // Cap near the serial peak: parallel acquisition must back off (park and
  // retry) rather than deadlock or corrupt. ResourceExhausted is an
  // acceptable outcome at pathological caps; silent wrong answers or
  // hangs are not.
  Workload w = MakeTwoMatMul(TwoMatMulConfig::kConfigA, /*scale=*/1000);
  auto env = NewMemEnv();
  Runtime rt0;
  ExecStats s0 = MustRun(w, env.get(), "/tc0", w.program.original_schedule(),
                         {}, ExecOptions{}, &rt0);
  ExecOptions opts;
  opts.exec_threads = 4;
  opts.pipeline_depth = 2;
  opts.memory_cap_bytes = s0.peak_required_bytes * 2;
  auto rt1 = OpenStores(env.get(), w.program, "/tc1");
  rt1.status().CheckOK();
  InitInputs(w, *rt1, /*seed=*/7).CheckOK();
  BufferPool pool(opts.memory_cap_bytes);
  opts.shared_pool = &pool;
  Executor ex(w.program, rt1->raw(), w.kernels, opts);
  auto stats = ex.Run(w.program.original_schedule(), {});
  EXPECT_EQ(pool.PinnedFrames(), 0);
  if (!stats.ok()) {
    EXPECT_EQ(stats.status().code(), StatusCode::kResourceExhausted)
        << stats.status().ToString();
    return;  // starved at a pathological cap: acceptable, and clean
  }
  for (int arr : w.output_arrays) {
    const ArrayInfo& info = w.program.array(arr);
    auto d = MaxAbsDifference(info, rt0.stores[size_t(arr)].get(),
                              rt1->stores[size_t(arr)].get());
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(*d, 0.0) << info.name;
  }
}

}  // namespace
}  // namespace riot
