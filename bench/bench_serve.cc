// Open-loop serving sweep: YCSB-style Zipf traffic (whale-plus-mice mix)
// replayed in real time against the serving front end, at several offered
// loads and under each admission policy, over a throttled (sleeping)
// virtual disk so service times are physical. Reports per-request
// p50/p99/p999 latency, throughput vs offered load, and the admission-
// wait breakdown — the head-of-line story in numbers: under FIFO a parked
// whale stalls every mouse behind it, so mouse-dominated p99 balloons;
// small-job-first admission keeps the mice flowing and cuts p99 at the
// same offered load (the whale's extra wait is bounded by aging).
//
// Every template runs the plan the catalog binds it to: the optimizer's
// cheapest plan within the original schedule's peak. The bench prints each
// template's original and bound plan (block reads and writes, bytes, peak)
// and the search's wall time first.
//
// A second sweep holds the offered load fixed and varies the buffer-pool
// cap crossed with the replacement policy: at sub-working-set caps the
// merged multi-plan ScheduleOpt clock saves block reads over LRU even
// with many sessions bound at once (the PR-8 merged-clock payoff, here
// under real thread interleavings rather than the lockstep oracle).
//
// `--json <path>` writes:
//   {"bench":"serve","templates":[{"template":"read","plan":"original",
//     "block_reads":..,"block_writes":..,"bytes":..,"peak_bytes":..,
//     "search_seconds":..}, ...],
//    "runs":[{"policy":"fifo","replacement":"lru",
//     "offered_jobs_per_sec":40,"pool_cap_bytes":..,
//     "jobs":N,"completed":..,"failed":..,"elapsed_seconds":..,
//     "throughput_jobs_per_sec":..,"latency_p50_s":..,"latency_p99_s":..,
//     "latency_p999_s":..,"latency_mean_s":..,"latency_max_s":..,
//     "queue_wait_p99_s":..,"admission_wait_p99_s":..,
//     "admission_wait_mean_s":..,"exec_wall_p50_s":..,
//     "sessions_parked":..,"peak_reserved_bytes":..,
//     "block_reads":..,"policy_saved_reads":..,"evictions":..}, ...]}
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "ops/admission.h"
#include "serve/catalog.h"
#include "serve/server.h"
#include "serve/workload_gen.h"
#include "storage/replacement.h"
#include "util/logging.h"

namespace riot {
namespace bench {
namespace {

using serve::Catalog;
using serve::CatalogOptions;
using serve::JobKind;
using serve::JobSpec;
using serve::MetricsSnapshot;
using serve::OpenLoopGenerator;
using serve::Server;
using serve::ServerOptions;
using serve::TrafficOptions;

struct ServePoint {
  std::string policy;
  std::string replacement;
  double offered = 0;
  int jobs = 0;
  int64_t pool_cap_bytes = 0;
  MetricsSnapshot snap;
  int64_t sessions_parked = 0;
  int64_t peak_reserved_bytes = 0;
  int64_t block_reads = 0;
  int64_t policy_saved_reads = 0;
  int64_t evictions = 0;
};

ServePoint RunOne(const Catalog& catalog, AdmissionPolicyKind policy,
                  ReplacementKind replacement, int64_t pool_cap_bytes,
                  double offered_jobs_per_sec, int jobs) {
  ServerOptions sopts;
  sopts.worker_threads = 8;
  sopts.runtime.admission = policy;
  sopts.runtime.admission_aging_seconds = 0.5;  // bound whale starvation tightly
  sopts.runtime.replacement = replacement;
  sopts.runtime.pool_cap_bytes = pool_cap_bytes;
  Server server(&catalog, sopts);

  TrafficOptions traffic;
  traffic.offered_jobs_per_sec = offered_jobs_per_sec;
  traffic.num_datasets = catalog.num_datasets();
  traffic.zipf_theta = 0.99;
  traffic.write_fraction = 0.2;
  traffic.whale_fraction = 0.08;
  traffic.seed = 1234;  // identical arrival stream for every policy
  OpenLoopGenerator gen(traffic);

  // Open-loop replay: submit at the generated arrival instants no matter
  // how far behind the server falls.
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < jobs; ++i) {
    const JobSpec job = gen.Next();
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double>(job.arrival_seconds)));
    server.Submit(job);
  }
  server.Drain();

  ServePoint pt;
  pt.policy = AdmissionPolicyName(policy);
  pt.replacement = ReplacementKindName(replacement);
  pt.offered = offered_jobs_per_sec;
  pt.jobs = jobs;
  pt.pool_cap_bytes = pool_cap_bytes;
  pt.snap = server.Snapshot();
  const RuntimeStats rs = server.runtime().stats();
  pt.sessions_parked = rs.sessions_parked;
  pt.peak_reserved_bytes = rs.peak_reserved_bytes;
  pt.block_reads = rs.block_reads;
  pt.policy_saved_reads = rs.policy_saved_reads;
  pt.evictions = rs.pool.evictions;
  RIOT_CHECK_EQ(pt.snap.completed + pt.snap.failed,
                static_cast<int64_t>(jobs));
  return pt;
}

/// One template's plan as the catalog reports it.
struct TemplatePlan {
  const char* name;
  const char* plan;  // "original" or "bound"
  PlanCost cost;
  double search_seconds;
};

std::vector<TemplatePlan> TemplatePlans(const Catalog& catalog) {
  const std::pair<JobKind, const char*> kinds[] = {
      {JobKind::kRead, "read"},
      {JobKind::kWrite, "write"},
      {JobKind::kWhale, "whale"}};
  std::vector<TemplatePlan> plans;
  for (const auto& [kind, name] : kinds) {
    const OptimizationResult& search = catalog.plan_search(kind);
    plans.push_back(
        {name, "original", search.plans[0].cost, search.optimize_seconds});
    plans.push_back(
        {name, "bound", search.best().cost, search.optimize_seconds});
  }
  return plans;
}

void WriteJson(const std::string& path,
               const std::vector<TemplatePlan>& templates,
               const std::vector<ServePoint>& runs) {
  std::ofstream out(path);
  out << "{\"bench\": \"serve\", \"templates\": [\n";
  for (size_t i = 0; i < templates.size(); ++i) {
    const TemplatePlan& t = templates[i];
    out << "  {\"template\": \"" << t.name << "\""
        << ", \"plan\": \"" << t.plan << "\""
        << ", \"block_reads\": " << t.cost.block_reads
        << ", \"block_writes\": " << t.cost.block_writes
        << ", \"bytes\": " << t.cost.TotalBytes()
        << ", \"peak_bytes\": " << t.cost.peak_memory_bytes
        << ", \"search_seconds\": " << t.search_seconds << "}"
        << (i + 1 < templates.size() ? "," : "") << "\n";
  }
  out << "], \"runs\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    const ServePoint& r = runs[i];
    out << "  {\"policy\": \"" << r.policy << "\""
        << ", \"replacement\": \"" << r.replacement << "\""
        << ", \"offered_jobs_per_sec\": " << r.offered
        << ", \"pool_cap_bytes\": " << r.pool_cap_bytes
        << ", \"jobs\": " << r.jobs
        << ", \"completed\": " << r.snap.completed
        << ", \"failed\": " << r.snap.failed
        << ", \"elapsed_seconds\": " << r.snap.elapsed_seconds
        << ", \"throughput_jobs_per_sec\": "
        << r.snap.throughput_jobs_per_sec
        << ", \"latency_p50_s\": " << r.snap.latency.P50()
        << ", \"latency_p99_s\": " << r.snap.latency.P99()
        << ", \"latency_p999_s\": " << r.snap.latency.P999()
        << ", \"latency_mean_s\": " << r.snap.latency.mean_seconds()
        << ", \"latency_max_s\": " << r.snap.latency.max_seconds()
        << ", \"mouse_latency_p50_s\": " << r.snap.latency_mice.P50()
        << ", \"mouse_latency_p99_s\": " << r.snap.latency_mice.P99()
        << ", \"mouse_latency_p999_s\": " << r.snap.latency_mice.P999()
        << ", \"whale_latency_p50_s\": " << r.snap.latency_whales.P50()
        << ", \"whale_latency_p99_s\": " << r.snap.latency_whales.P99()
        << ", \"queue_wait_p99_s\": " << r.snap.queue_wait.P99()
        << ", \"admission_wait_p99_s\": " << r.snap.admission_wait.P99()
        << ", \"admission_wait_mean_s\": "
        << r.snap.admission_wait.mean_seconds()
        << ", \"exec_wall_p50_s\": " << r.snap.exec_wall.P50()
        << ", \"sessions_parked\": " << r.sessions_parked
        << ", \"peak_reserved_bytes\": " << r.peak_reserved_bytes
        << ", \"block_reads\": " << r.block_reads
        << ", \"policy_saved_reads\": " << r.policy_saved_reads
        << ", \"evictions\": " << r.evictions << "}"
        << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "]}\n";
  std::printf("wrote %s\n", path.c_str());
}

void Run(const std::string& json_path) {
  // Sleeping virtual disk: reads/writes cost real wall time, so a whale's
  // service time physically dwarfs a mouse's and head-of-line blocking is
  // measured, not simulated.
  auto base = NewMemEnv();
  auto env = NewThrottledEnv(base.get(), /*read_mb_per_s=*/30.0,
                             /*write_mb_per_s=*/20.0,
                             /*per_request_ms=*/0.2, /*sleep_scale=*/1.0);

  CatalogOptions copts;
  copts.num_datasets = 6;
  copts.num_slots = 8;
  copts.mouse_grid = 2;
  copts.mouse_block = 32;
  copts.whale_grid = 3;
  copts.whale_block = 64;
  auto catalog = Catalog::Create(env.get(), copts);
  catalog.status().CheckOK();

  const std::vector<TemplatePlan> templates = TemplatePlans(**catalog);
  std::printf(
      "\n=== bound plans (cheapest plan within the original schedule's "
      "peak) ===\n");
  std::printf("%8s %9s %12s %12s %10s %10s %10s\n", "template", "plan",
              "block_reads", "block_writes", "bytes", "peak(B)", "search(s)");
  for (const TemplatePlan& t : templates) {
    std::printf("%8s %9s %12lld %12lld %10lld %10lld %10.3f\n", t.name,
                t.plan, static_cast<long long>(t.cost.block_reads),
                static_cast<long long>(t.cost.block_writes),
                static_cast<long long>(t.cost.TotalBytes()),
                static_cast<long long>(t.cost.peak_memory_bytes),
                t.search_seconds);
  }

  std::printf(
      "\n=== open-loop serving sweep (Zipf 0.99 over %d datasets, 20%% "
      "writes, 8%% whales, sleeping disk 30/20 MB/s; whale footprint "
      "%.1f KB, mouse read %.1f KB) ===\n",
      copts.num_datasets,
      (*catalog)->footprint_bytes(JobKind::kWhale) / 1e3,
      (*catalog)->footprint_bytes(JobKind::kRead) / 1e3);
  std::printf("%15s %9s %6s %9s %9s %9s %10s %10s %9s %8s\n", "policy",
              "offered/s", "jobs", "tput/s", "p50(ms)", "p99(ms)",
              "mouse99(ms)", "whale99(ms)", "adm99(ms)", "parked");

  std::vector<ServePoint> runs;
  const int kJobs = 400;
  // One whale plus a handful of mice coexist; a second whale parks.
  const int64_t whale_fp = (*catalog)->footprint_bytes(JobKind::kWhale);
  const int64_t tight_cap = whale_fp + whale_fp / 2;
  for (const double offered : {10.0, 20.0, 30.0}) {
    for (const auto policy : {AdmissionPolicyKind::kFifo,
                              AdmissionPolicyKind::kSmallestFootprint,
                              AdmissionPolicyKind::kShortestWork}) {
      ServePoint pt = RunOne(**catalog, policy, ReplacementKind::kLru,
                             tight_cap, offered, kJobs);
      std::printf(
          "%15s %9.0f %6d %9.1f %9.2f %9.2f %10.2f %10.2f %9.2f %8lld\n",
          pt.policy.c_str(), pt.offered, pt.jobs,
          pt.snap.throughput_jobs_per_sec, pt.snap.latency.P50() * 1e3,
          pt.snap.latency.P99() * 1e3, pt.snap.latency_mice.P99() * 1e3,
          pt.snap.latency_whales.P99() * 1e3,
          pt.snap.admission_wait.P99() * 1e3,
          static_cast<long long>(pt.sessions_parked));
      runs.push_back(std::move(pt));
    }
  }
  std::printf(
      "(same seed per offered load: every policy serves the identical "
      "arrival stream. p99 under FIFO absorbs the whales' head-of-line "
      "blocking; small-job-first/shortest-work admission lets mice "
      "overtake a parked whale, cutting tail latency at the same offered "
      "load.)\n");

  // Cap x replacement sweep at a fixed offered load: how much disk traffic
  // each eviction policy saves as the pool shrinks below the hot working
  // set. FIFO admission and one seed per cap, so within a cap every
  // replacement policy faces the identical arrival stream.
  std::printf(
      "\n=== buffer-pool cap x replacement sweep (FIFO admission, "
      "20 jobs/s) ===\n");
  std::printf("%12s %12s %6s %12s %12s %10s %9s %9s\n", "cap(KB)",
              "replacement", "jobs", "block_reads", "saved_reads",
              "evictions", "tput/s", "p99(ms)");
  for (const int64_t cap : {tight_cap, 2 * tight_cap, 4 * tight_cap}) {
    for (const auto replacement :
         {ReplacementKind::kLru, ReplacementKind::kScheduleOpt}) {
      ServePoint pt = RunOne(**catalog, AdmissionPolicyKind::kFifo,
                             replacement, cap, /*offered=*/20.0, kJobs);
      std::printf(
          "%12.1f %12s %6d %12lld %12lld %10lld %9.1f %9.2f\n", cap / 1e3,
          pt.replacement.c_str(), pt.jobs,
          static_cast<long long>(pt.block_reads),
          static_cast<long long>(pt.policy_saved_reads),
          static_cast<long long>(pt.evictions),
          pt.snap.throughput_jobs_per_sec, pt.snap.latency.P99() * 1e3);
      runs.push_back(std::move(pt));
    }
  }
  std::printf(
      "(the merged multi-plan clock keeps ScheduleOpt's future-use "
      "ordering live while several sessions are bound, so its saved reads "
      "over LRU survive multi-tenancy at sub-working-set caps.)\n");

  if (!json_path.empty()) WriteJson(json_path, templates, runs);
}

}  // namespace
}  // namespace bench
}  // namespace riot

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") json_path = argv[i + 1];
  }
  riot::bench::Run(json_path);
  return 0;
}
