// Open-loop soak (stress label): hundreds of jobs at an offered load that
// overruns capacity, whales mixed in, across admission policies AND
// replacement policies — the TSan/ASan stress leg drives this to shake
// races out of the full serve -> session -> shared-pool stack, including
// ScheduleOpt's merged multi-plan clock under concurrent binds. Asserts no
// job fails, budgets hold for every session, and SJF does not starve the
// whale (aging).
#include <gtest/gtest.h>

#include <cstdint>

#include "ops/admission.h"
#include "serve/catalog.h"
#include "serve/server.h"
#include "serve/workload_gen.h"
#include "storage/env.h"
#include "storage/replacement.h"

namespace riot {
namespace serve {
namespace {

void Soak(AdmissionPolicyKind policy,
          ReplacementKind replacement = ReplacementKind::kLru) {
  auto env = NewMemEnv();
  CatalogOptions copts;
  copts.num_datasets = 4;
  copts.num_slots = 8;
  copts.mouse_grid = 2;
  copts.mouse_block = 16;
  copts.whale_grid = 3;
  copts.whale_block = 48;
  auto catalog = Catalog::Create(env.get(), copts);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();

  ServerOptions sopts;
  sopts.worker_threads = 8;
  sopts.runtime.admission = policy;
  sopts.runtime.admission_aging_seconds = 0.5;
  sopts.runtime.replacement = replacement;
  // Tight cap: one whale plus a few mice fit; concurrent whales park, so
  // admission continuously reorders under pressure.
  const int64_t whale_fp = (*catalog)->footprint_bytes(JobKind::kWhale);
  sopts.runtime.pool_cap_bytes = whale_fp + whale_fp / 2;
  Server server(catalog->get(), sopts);

  TrafficOptions traffic;
  traffic.num_datasets = 4;
  traffic.write_fraction = 0.25;
  traffic.whale_fraction = 0.1;
  traffic.zipf_theta = 0.99;
  traffic.seed = 31 + static_cast<uint64_t>(policy) +
                 17 * static_cast<uint64_t>(replacement);
  OpenLoopGenerator gen(traffic);
  const int kJobs = 300;
  for (const JobSpec& job : gen.Take(kJobs)) server.Submit(job);
  server.Drain();

  const MetricsSnapshot s = server.Snapshot();
  EXPECT_EQ(s.submitted, kJobs);
  EXPECT_EQ(s.completed, kJobs) << "policy="
                                << AdmissionPolicyName(policy);
  EXPECT_EQ(s.failed, 0);

  const RuntimeStats rs = server.runtime().stats();
  EXPECT_EQ(rs.sessions_completed, kJobs);
  EXPECT_LE(rs.peak_reserved_bytes, sopts.runtime.pool_cap_bytes);
  ASSERT_TRUE((*catalog)->ReleaseFrom(server.runtime()).ok());
}

TEST(ServeSoakTest, OpenLoopFifo) { Soak(AdmissionPolicyKind::kFifo); }

TEST(ServeSoakTest, OpenLoopSmallestFootprint) {
  Soak(AdmissionPolicyKind::kSmallestFootprint);
}

TEST(ServeSoakTest, OpenLoopShortestWork) {
  Soak(AdmissionPolicyKind::kShortestWork);
}

// Replacement dimension at the same tight cap: many sessions bind and
// unbind use plans concurrently, so ScheduleOpt exercises the merged
// multi-plan clock (rebinds, sole-survivor reactivation, unclaimed-frame
// LRU fallback) under real thread interleavings — the TSan leg's best shot
// at racing the policy's bookkeeping.
TEST(ServeSoakTest, ReplacementLru) {
  Soak(AdmissionPolicyKind::kFifo, ReplacementKind::kLru);
}

TEST(ServeSoakTest, ReplacementScheduleOpt) {
  Soak(AdmissionPolicyKind::kFifo, ReplacementKind::kScheduleOpt);
}

}  // namespace
}  // namespace serve
}  // namespace riot
