// The catalog binds each template to the cheapest plan its optimizer finds
// within the original schedule's peak. At serve_zipf's shapes that plan is
// pinned here: its predicted block counts, a solo session run reporting
// exactly those counts, and outputs bit-equal to the original schedule's
// on the hottest and the coldest dataset. Also covers Create's argument
// checks and its I/O error paths, which return while the plan searches
// may still be running.
#include <gtest/gtest.h>

#include <string>

#include "exec/executor.h"
#include "exec/verify.h"
#include "serve/catalog.h"
#include "storage/env.h"

namespace riot {
namespace serve {
namespace {

// serve_zipf's template shapes and disk rates (perfbench), over fewer
// datasets and slots: neither changes a template's plan.
CatalogOptions ZipfShapes() {
  CatalogOptions copts;
  copts.num_datasets = 3;
  copts.num_slots = 2;
  copts.mouse_grid = 2;
  copts.mouse_block = 32;
  copts.whale_grid = 3;
  copts.whale_block = 32;
  copts.cost.read_mb_per_s = 30.0;
  copts.cost.write_mb_per_s = 20.0;
  return copts;
}

struct Expected {
  JobKind kind;
  int64_t block_reads;
  int64_t block_writes;
};

// Original schedules: 14/8 (read), 8/4 (write), 90/36 (whale).
constexpr Expected kBound[] = {
    {JobKind::kRead, 10, 4},
    {JobKind::kWrite, 8, 4},
    {JobKind::kWhale, 72, 18},
};

std::string KindName(JobKind kind) {
  switch (kind) {
    case JobKind::kRead:
      return "read";
    case JobKind::kWrite:
      return "write";
    case JobKind::kWhale:
      return "whale";
  }
  return "?";
}

class CatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    auto catalog = Catalog::Create(env_.get(), ZipfShapes());
    ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
    catalog_ = std::move(catalog).ValueOrDie();
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<Catalog> catalog_;
};

TEST_F(CatalogTest, FootprintIsTheBoundPlansPeakWithinTheOriginal) {
  for (const Expected& e : kBound) {
    SCOPED_TRACE(KindName(e.kind));
    const OptimizationResult& search = catalog_->plan_search(e.kind);
    const PlanCost& bound = search.best().cost;
    EXPECT_EQ(catalog_->footprint_bytes(e.kind), bound.peak_memory_bytes);
    EXPECT_LE(bound.peak_memory_bytes, search.plans[0].cost.peak_memory_bytes);
    EXPECT_EQ(catalog_->expected_work_seconds(e.kind), bound.TotalSeconds());
    EXPECT_EQ(bound.block_reads, e.block_reads);
    EXPECT_EQ(bound.block_writes, e.block_writes);
  }
  // The pool cap perfbench derives from the whale does not move.
  EXPECT_EQ(catalog_->footprint_bytes(JobKind::kWhale),
            catalog_->plan_search(JobKind::kWhale).plans[0].cost
                .peak_memory_bytes);
}

TEST_F(CatalogTest, BindCarriesTheBoundPlan) {
  for (const Expected& e : kBound) {
    SCOPED_TRACE(KindName(e.kind));
    JobSpec job;
    job.kind = e.kind;
    const SessionSpec spec = catalog_->Bind(job, 0);
    const Plan& plan = catalog_->plan_search(e.kind).best();
    EXPECT_EQ(spec.schedule, &plan.schedule);
    EXPECT_EQ(spec.realized.size(), plan.opportunities.size());
    EXPECT_EQ(spec.footprint_bytes, plan.cost.peak_memory_bytes);
  }
  // The write mouse has nothing to share: it keeps the original plan.
  EXPECT_EQ(catalog_->plan_search(JobKind::kWrite).best_index, 0);
}

// With the pool capped at the footprint, nothing beyond the plan's own
// retention stays cached, so the session does exactly the plan's I/O.
TEST_F(CatalogTest, SoloSessionReadsAndWritesExactlyThePlan) {
  for (const Expected& e : kBound) {
    SCOPED_TRACE(KindName(e.kind));
    SessionRuntimeOptions ro;
    ro.pool_cap_bytes = catalog_->footprint_bytes(e.kind);
    SessionRuntime rt(ro);
    JobSpec job;
    job.kind = e.kind;
    Result<SessionStats> stats = rt.Run(catalog_->Bind(job, 0));
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->exec.block_reads, e.block_reads);
    EXPECT_EQ(stats->exec.block_writes, e.block_writes);
    ASSERT_TRUE(catalog_->ReleaseFrom(rt).ok());
  }
}

TEST_F(CatalogTest, OutputsBitEqualTheOriginalSchedule) {
  SessionRuntime rt;
  for (const Expected& e : kBound) {
    for (int dataset : {0, catalog_->num_datasets() - 1}) {
      SCOPED_TRACE(KindName(e.kind) + " on dataset " +
                   std::to_string(dataset));
      JobSpec job;
      job.kind = e.kind;
      job.dataset = dataset;
      const SessionSpec served = catalog_->Bind(job, 0);
      ASSERT_TRUE(rt.Run(served).ok());

      // The serial engine over the original schedule, sharing nothing,
      // into the other slot's stores.
      const SessionSpec ref = catalog_->Bind(job, 1);
      Executor ex(*ref.program, ref.stores, *ref.kernels);
      ASSERT_TRUE(ex.Run(ref.program->original_schedule(), {}).ok());
      int outputs = 0;
      for (size_t a = 0; a < ref.stores.size(); ++a) {
        const ArrayInfo& info = ref.program->array(static_cast<int>(a));
        if (ref.stores[a] == served.stores[a] || !info.persistent) continue;
        ++outputs;
        EXPECT_TRUE(
            VerifyBitEqual(info, ref.stores[a], served.stores[a]).ok())
            << info.name;
      }
      EXPECT_GT(outputs, 0);
    }
  }
  ASSERT_TRUE(catalog_->ReleaseFrom(rt).ok());
}

TEST(CatalogCreateTest, NonPositiveDatasetsOrSlotsAreInvalid) {
  auto env = NewMemEnv();
  for (auto [datasets, slots] : {std::pair{0, 2}, std::pair{-1, 2},
                                 std::pair{2, 0}, std::pair{2, -3}}) {
    CatalogOptions copts = ZipfShapes();
    copts.num_datasets = datasets;
    copts.num_slots = slots;
    auto catalog = Catalog::Create(env.get(), copts);
    ASSERT_FALSE(catalog.ok());
    EXPECT_EQ(catalog.status().code(), StatusCode::kInvalidArgument);
  }
}

// A failed input write returns its IoError from Create while the plan
// searches run; the searches are joined first, never destroyed running.
TEST(CatalogCreateTest, FailedSetUpWriteReturnsIoError) {
  int64_t setup_writes = 0;
  {
    auto mem = NewMemEnv();
    ASSERT_TRUE(Catalog::Create(mem.get(), ZipfShapes()).ok());
    setup_writes = mem->stats().write_ops;
  }
  ASSERT_GT(setup_writes, 3);
  for (int64_t k : {int64_t{0}, int64_t{1}, setup_writes / 2,
                    setup_writes - 1}) {
    SCOPED_TRACE("writes before the fault: " + std::to_string(k));
    auto mem = NewMemEnv();
    auto faulty = NewFaultyEnv(mem.get(), k, FaultOps::kWrites);
    auto catalog = Catalog::Create(faulty.get(), ZipfShapes());
    ASSERT_FALSE(catalog.ok());
    EXPECT_EQ(catalog.status().code(), StatusCode::kIoError);
  }
}

}  // namespace
}  // namespace serve
}  // namespace riot
