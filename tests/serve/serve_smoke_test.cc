// Fast end-to-end check of the serving front end: a small open-loop burst
// through Catalog + Server over a MemEnv completes every job, the metrics
// add up, per-session budgets hold, and the catalog's stores release
// cleanly. The heavy open-loop soak lives in serve_soak_test.cc (stress
// label).
#include <gtest/gtest.h>

#include <thread>

#include "serve/catalog.h"
#include "serve/metrics.h"
#include "serve/server.h"
#include "serve/workload_gen.h"
#include "storage/env.h"

namespace riot {
namespace serve {
namespace {

CatalogOptions SmallCatalog() {
  CatalogOptions copts;
  copts.num_datasets = 3;
  copts.num_slots = 2;
  copts.mouse_grid = 2;
  copts.mouse_block = 16;
  copts.whale_grid = 3;
  copts.whale_block = 32;
  return copts;
}

TEST(ServeSmokeTest, BurstOfMiceAllComplete) {
  auto env = NewMemEnv();
  auto catalog = Catalog::Create(env.get(), SmallCatalog());
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();

  ServerOptions sopts;
  sopts.worker_threads = 2;
  sopts.runtime.pool_cap_bytes = int64_t{16} << 20;
  {
    Server server(catalog->get(), sopts);

    TrafficOptions traffic;
    traffic.num_datasets = 3;
    traffic.write_fraction = 0.3;
    traffic.seed = 17;
    OpenLoopGenerator gen(traffic);
    const int kJobs = 24;
    for (const JobSpec& job : gen.Take(kJobs)) server.Submit(job);
    server.Drain();

    const MetricsSnapshot s = server.Snapshot();
    EXPECT_EQ(s.submitted, kJobs);
    EXPECT_EQ(s.completed, kJobs);
    EXPECT_EQ(s.failed, 0);
    EXPECT_EQ(s.latency.count(), kJobs);
    EXPECT_EQ(s.exec_wall.count(), kJobs);
    EXPECT_GT(s.latency.P50(), 0.0);
    EXPECT_GE(s.latency.P99(), s.latency.P50());
    EXPECT_GT(s.throughput_jobs_per_sec, 0.0);

    const RuntimeStats rs = server.runtime().stats();
    EXPECT_EQ(rs.sessions_completed, kJobs);
    EXPECT_EQ(rs.sessions_failed, 0);

    // Store hygiene: every cached frame must drop before the catalog dies.
    ASSERT_TRUE((*catalog)->ReleaseFrom(server.runtime()).ok());
  }
}

TEST(ServeSmokeTest, WhalesAndMiceUnderSmallCap) {
  auto env = NewMemEnv();
  auto catalog = Catalog::Create(env.get(), SmallCatalog());
  ASSERT_TRUE(catalog.ok());
  // Cap sized so a whale and a mouse coexist but two whales park.
  const int64_t whale_fp = (*catalog)->footprint_bytes(JobKind::kWhale);

  ServerOptions sopts;
  sopts.worker_threads = 2;
  sopts.runtime.pool_cap_bytes = whale_fp + whale_fp / 2;
  Server server(catalog->get(), sopts);

  TrafficOptions traffic;
  traffic.num_datasets = 3;
  traffic.whale_fraction = 0.4;
  traffic.seed = 23;
  OpenLoopGenerator gen(traffic);
  const int kJobs = 16;
  for (const JobSpec& job : gen.Take(kJobs)) server.Submit(job);
  server.Drain();

  const MetricsSnapshot s = server.Snapshot();
  EXPECT_EQ(s.completed, kJobs);
  EXPECT_EQ(s.failed, 0);
  ASSERT_TRUE((*catalog)->ReleaseFrom(server.runtime()).ok());
}

TEST(ServeSmokeTest, SubmitNeverBlocksWhileWorkersAreBusy) {
  auto env = NewMemEnv();
  auto catalog = Catalog::Create(env.get(), SmallCatalog());
  ASSERT_TRUE(catalog.ok());

  ServerOptions sopts;
  sopts.worker_threads = 1;  // single worker: the queue must absorb bursts
  sopts.runtime.pool_cap_bytes = int64_t{16} << 20;
  Server server(catalog->get(), sopts);

  TrafficOptions traffic;
  traffic.num_datasets = 3;
  OpenLoopGenerator gen(traffic);
  // Submitting far faster than one worker drains must return immediately
  // (open loop); Drain() then retires the backlog.
  for (const JobSpec& job : gen.Take(32)) server.Submit(job);
  server.Drain();
  EXPECT_EQ(server.Snapshot().completed, 32);
  // Queue wait must dominate exec for the tail under a 1-worker backlog.
  const MetricsSnapshot s = server.Snapshot();
  EXPECT_GT(s.queue_wait.max_seconds(), 0.0);
  ASSERT_TRUE((*catalog)->ReleaseFrom(server.runtime()).ok());
}

// A job naming a dataset the catalog lacks fails alone: it never reaches
// Bind (whose CHECK would abort the worker thread) or the runtime.
TEST(ServeSmokeTest, OutOfRangeDatasetFailsOnlyThatJob) {
  auto env = NewMemEnv();
  auto catalog = Catalog::Create(env.get(), SmallCatalog());
  ASSERT_TRUE(catalog.ok());

  ServerOptions sopts;
  sopts.worker_threads = 1;
  Server server(catalog->get(), sopts);
  for (int dataset : {-1, (*catalog)->num_datasets()}) {
    JobSpec bad;
    bad.kind = JobKind::kWhale;
    bad.dataset = dataset;
    server.Submit(bad);
  }
  server.Drain();
  EXPECT_EQ(server.Snapshot().failed, 2);
  EXPECT_EQ(server.Snapshot().completed, 0);

  JobSpec good;
  good.kind = JobKind::kWhale;
  server.Submit(good);
  server.Drain();
  const MetricsSnapshot s = server.Snapshot();
  EXPECT_EQ(s.failed, 2);
  EXPECT_EQ(s.completed, 1);

  // Only the valid job ever reserved pool memory, and it let it all go.
  const RuntimeStats rs = server.runtime().stats();
  EXPECT_EQ(rs.sessions_completed, 1);
  EXPECT_EQ(rs.sessions_failed, 0);
  EXPECT_EQ(rs.sessions_parked, 0);
  EXPECT_EQ(rs.peak_reserved_bytes,
            (*catalog)->footprint_bytes(JobKind::kWhale));
  EXPECT_EQ(server.runtime().pool()->PinnedOrRetainedBytes(), 0);
  ASSERT_TRUE((*catalog)->ReleaseFrom(server.runtime()).ok());
}

}  // namespace
}  // namespace serve
}  // namespace riot
