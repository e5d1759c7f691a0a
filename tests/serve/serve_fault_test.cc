// Serving under a transient write fault. Catalog binds every job at
// pipeline_depth 2, so a job's writes go behind its kernels on the shared
// I/O workers (or synchronously, for a first write that extends its file).
// For every k, a FaultyEnv fails exactly the k-th write that a burst of a
// whale and mice issues through a two-worker Server. Whichever job owned
// that write must be counted failed, every other job must complete, the
// drain must finish (no hang) with nothing pinned or retained in the
// shared pool, and jobs served afterwards must produce outputs bit-equal
// to the serial depth-0 engine's.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <vector>

#include "exec/executor.h"
#include "exec/verify.h"
#include "serve/catalog.h"
#include "serve/server.h"
#include "storage/env.h"

namespace riot {
namespace serve {
namespace {

CatalogOptions SmallCatalog() {
  CatalogOptions copts;
  copts.num_datasets = 2;
  copts.num_slots = 2;
  copts.mouse_grid = 2;
  copts.mouse_block = 16;
  copts.whale_grid = 3;
  copts.whale_block = 16;
  return copts;
}

std::vector<JobSpec> Burst() {
  std::vector<JobSpec> jobs;
  for (JobKind kind : {JobKind::kWrite, JobKind::kWhale, JobKind::kRead,
                       JobKind::kWrite, JobKind::kRead, JobKind::kWrite}) {
    JobSpec job;
    job.kind = kind;
    job.dataset = static_cast<int>(jobs.size() % 2);
    jobs.push_back(job);
  }
  return jobs;
}

ServerOptions TwoWorkers(const Catalog& catalog) {
  ServerOptions so;
  so.worker_threads = 2;
  // A whale and a mouse fit together; two whales would park.
  const int64_t whale = catalog.footprint_bytes(JobKind::kWhale);
  so.runtime.pool_cap_bytes = whale + whale / 2;
  return so;
}

// Drain, aborting loudly instead of letting a hang run into the ctest
// timeout without saying which k hung.
void DrainOrAbort(Server* server, int k) {
  auto done = std::async(std::launch::async, [server] { server->Drain(); });
  if (done.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
    std::fprintf(stderr, "Server::Drain hung with write %d failed\n", k);
    std::abort();
  }
}

// Serves one job of each kind through a one-worker server (slot 0) and
// checks each output against the serial depth-0 engine run into slot 1.
void ExpectLaterJobsBitEqual(const Catalog& catalog) {
  ServerOptions one = TwoWorkers(catalog);
  one.worker_threads = 1;
  for (JobKind kind : {JobKind::kRead, JobKind::kWrite, JobKind::kWhale}) {
    JobSpec job;
    job.kind = kind;
    {
      Server server(&catalog, one);
      server.Submit(job);
      server.Drain();
      ASSERT_EQ(server.Snapshot().completed, 1);
    }
    const SessionSpec served = catalog.Bind(job, 0);
    const SessionSpec ref = catalog.Bind(job, 1);
    Executor ex(*ref.program, ref.stores, *ref.kernels);
    ASSERT_TRUE(ex.Run(*ref.schedule, ref.realized).ok());
    for (size_t a = 0; a < ref.stores.size(); ++a) {
      const ArrayInfo& info = ref.program->array(static_cast<int>(a));
      if (ref.stores[a] == served.stores[a] || !info.persistent) continue;
      EXPECT_TRUE(VerifyBitEqual(info, ref.stores[a], served.stores[a]).ok())
          << info.name;
    }
  }
}

TEST(ServeFaultTest, EveryFailedWriteFailsOneJobAndLeaksNothing) {
  const std::vector<JobSpec> jobs = Burst();
  const int64_t n = static_cast<int64_t>(jobs.size());

  // Writes the catalog's set-up issues, then the burst's own.
  int64_t setup_writes = 0, burst_writes = 0;
  {
    auto mem = NewMemEnv();
    auto catalog = Catalog::Create(mem.get(), SmallCatalog());
    ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
    setup_writes = mem->stats().write_ops;
    Server server(catalog->get(), TwoWorkers(**catalog));
    for (const JobSpec& job : jobs) server.Submit(job);
    server.Drain();
    ASSERT_EQ(server.Snapshot().completed, n);
    burst_writes = mem->stats().write_ops - setup_writes;
  }
  ASSERT_GT(burst_writes, 0);

  for (int k = 1; k <= burst_writes; ++k) {
    SCOPED_TRACE("failed write " + std::to_string(k));
    auto mem = NewMemEnv();
    auto faulty =
        NewFaultyEnv(mem.get(), setup_writes + k - 1, FaultOps::kOneWrite);
    auto catalog = Catalog::Create(faulty.get(), SmallCatalog());
    ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
    {
      Server server(catalog->get(), TwoWorkers(**catalog));
      for (const JobSpec& job : jobs) server.Submit(job);
      DrainOrAbort(&server, k);
      const MetricsSnapshot s = server.Snapshot();
      EXPECT_EQ(s.failed, 1);
      EXPECT_EQ(s.completed, n - 1);
      BufferPool* pool = server.runtime().pool();
      EXPECT_EQ(pool->PinnedOrRetainedBytes(), 0);
      EXPECT_EQ(pool->PinnedFrames(), 0);
      ASSERT_TRUE((*catalog)->ReleaseFrom(server.runtime()).ok());
    }
    ExpectLaterJobsBitEqual(**catalog);
  }
}

}  // namespace
}  // namespace serve
}  // namespace riot
