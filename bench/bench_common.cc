#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <thread>

#include "exec/verify.h"
#include "util/logging.h"

namespace riot {
namespace bench {

int64_t ExecScale(int64_t def) {
  const char* env = std::getenv("RIOT_SCALE");
  if (env != nullptr) {
    int64_t v = std::atoll(env);
    if (v > 0) return v;
  }
  return def;
}

Harness::Harness(std::string name, std::function<Workload(int64_t)> factory)
    : name_(std::move(name)), factory_(std::move(factory)),
      paper_(factory_(1)), scaled_(factory_(ExecScale())),
      env_(NewPosixEnv()) {
  dir_ = "bench_data_" + name_;
  std::filesystem::create_directories(dir_);
  paper_.program.Validate().CheckOK();
  scaled_.program.Validate().CheckOK();
}

Harness::~Harness() {
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
}

const OptimizationResult& Harness::Optimize(const OptimizerOptions& opts) {
  if (!optimized_) {
    result_ = riot::Optimize(paper_.program, opts);
    optimized_ = true;
    std::printf(
        "[%s] optimizer: %zu sharing opportunities, %zu plans, "
        "%lld candidates tested, %lld pruned, %.2f s\n",
        name_.c_str(), result_.analysis.sharing.size(), result_.plans.size(),
        static_cast<long long>(result_.candidates_tested),
        static_cast<long long>(result_.candidates_pruned),
        result_.optimize_seconds);
  }
  return result_;
}

PlanRun Harness::RunPlan(int plan_index, const std::string& label) {
  RIOT_CHECK(optimized_);
  const Plan& plan = result_.plans[static_cast<size_t>(plan_index)];

  // Map the paper-scale plan onto the scaled program: block grids (and thus
  // statements, domains, accesses, schedules, opportunity order) are
  // identical across scales; only block byte sizes differ.
  AnalysisResult scaled_analysis = AnalyzeProgram(scaled_.program);
  RIOT_CHECK_EQ(scaled_analysis.sharing.size(),
                result_.analysis.sharing.size());
  std::vector<const CoAccess*> q;
  for (int oi : plan.opportunities) {
    const CoAccess& paper_opp =
        result_.analysis.sharing[static_cast<size_t>(oi)];
    const CoAccess& scaled_opp =
        scaled_analysis.sharing[static_cast<size_t>(oi)];
    RIOT_CHECK_EQ(paper_opp.Label(paper_.program),
                  scaled_opp.Label(scaled_.program));
    q.push_back(&scaled_analysis.sharing[static_cast<size_t>(oi)]);
  }

  auto rt = OpenStores(env_.get(), scaled_.program, dir_);
  rt.status().CheckOK();
  InitInputs(scaled_, *rt, /*seed=*/1234).CheckOK();
  // Reset outputs so plans never see stale results.
  for (int arr : scaled_.output_arrays) {
    ZeroArray(scaled_.program.array(arr),
              rt->stores[static_cast<size_t>(arr)].get())
        .CheckOK();
  }

  PlanCost scaled_cost = EvaluatePlanCost(scaled_.program, plan.schedule, q);
  ExecOptions eo;
  eo.memory_cap_bytes = scaled_cost.peak_memory_bytes;
  Executor ex(scaled_.program, rt->raw(), scaled_.kernels, eo);
  auto stats = ex.Run(plan.schedule, q);
  stats.status().CheckOK();

  // Exactness checks: measured I/O must equal the scaled prediction.
  RIOT_CHECK_EQ(stats->bytes_read, scaled_cost.read_bytes);
  RIOT_CHECK_EQ(stats->bytes_written, scaled_cost.write_bytes);
  RIOT_CHECK_EQ(stats->peak_required_bytes, scaled_cost.peak_memory_bytes);

  PlanRun run;
  run.label = label;
  run.predicted = plan.cost;
  run.measured = *stats;
  run.measured_model_s =
      static_cast<double>(stats->bytes_read) / (kPaperReadMBps * 1e6) +
      static_cast<double>(stats->bytes_written) / (kPaperWriteMBps * 1e6);
  run.scale_factor =
      static_cast<double>(plan.cost.TotalBytes()) /
      std::max<int64_t>(1, scaled_cost.TotalBytes());
  return run;
}

void Harness::PrintRuns(const std::vector<PlanRun>& runs) {
  std::printf(
      "%-28s %14s %14s %16s %14s %12s %12s\n", "plan",
      "pred I/O(s)", "pred mem(MB)", "meas I/O vol(MB)", "meas I/O(s)",
      "meas CPU(s)", "model I/O(s)");
  for (const auto& r : runs) {
    std::printf(
        "%-28s %14.1f %14.1f %16.1f %14.3f %12.3f %12.3f\n", r.label.c_str(),
        r.predicted.io_seconds, r.predicted.peak_memory_bytes / 1e6,
        (r.measured.bytes_read + r.measured.bytes_written) / 1e6,
        r.measured.io_seconds, r.measured.compute_seconds,
        r.measured_model_s);
  }
  std::printf(
      "(pred = optimizer at paper scale; meas = executed at 1/%lld scale on "
      "real files; model = measured volume at the paper's 96/60 MB/s disk)\n",
      ExecScale());
}

BenchJson::BenchJson(std::string bench_name, int argc, char** argv)
    : bench_(std::move(bench_name)) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      path_ = argv[i + 1];
      break;
    }
  }
}

void BenchJson::Add(const std::string& plan, const std::string& kind,
                    int threads, int pipeline_depth, const ExecStats& stats,
                    const std::string& policy, int64_t cap_bytes) {
  if (!active()) return;
  entries_.push_back(
      Entry{plan, kind, threads, pipeline_depth, policy, cap_bytes, stats});
}

namespace {
std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}
}  // namespace

void BenchJson::Flush() {
  if (!active()) return;
  std::ofstream f(path_);
  RIOT_CHECK(f.good()) << "cannot write " << path_;
  f << "{\n  \"bench\": \"" << JsonEscape(bench_) << "\",\n  \"runs\": [\n";
  // Streamed field by field: a fixed row buffer would silently truncate
  // long plan names into invalid JSON.
  f << std::fixed << std::setprecision(6);
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    const ExecStats& s = e.stats;
    f << "    {\"plan\": \"" << JsonEscape(e.plan) << "\", \"kind\": \""
      << JsonEscape(e.kind) << "\", \"threads\": " << e.threads
      << ", \"pipeline_depth\": " << e.depth << ", \"policy\": \""
      << JsonEscape(e.policy) << "\", \"cap_bytes\": " << e.cap_bytes
      << ", \"wall_seconds\": " << s.wall_seconds
      << ", \"io_seconds\": " << s.io_seconds
      << ", \"compute_seconds\": " << s.compute_seconds
      << ", \"overlap_seconds\": " << s.overlap_seconds
      << ", \"compute_overlap_seconds\": " << s.compute_overlap_seconds
      << ", \"bytes_read\": " << s.bytes_read
      << ", \"bytes_written\": " << s.bytes_written
      << ", \"block_reads\": " << s.block_reads
      << ", \"evictions\": " << s.pool.evictions
      << ", \"dirty_writebacks\": " << s.pool.dirty_writebacks
      << ", \"policy_saved_reads\": " << s.policy_saved_reads
      << ", \"prefetch_hits\": " << s.prefetch_hits
      << ", \"prefetch_wasted\": " << s.prefetch_wasted
      << ", \"parallel_groups\": " << s.parallel_groups
      << ", \"max_ready_width\": " << s.max_ready_width << "}"
      << (i + 1 < entries_.size() ? "," : "") << "\n";
  }
  f << "  ]\n}\n";
  std::printf("[%s] wrote %zu runs to %s\n", bench_.c_str(), entries_.size(),
              path_.c_str());
}

void RunThreadSweep(const std::string& name,
                    const std::function<Workload(int64_t)>& factory,
                    BenchJson* json) {
  Workload w = factory(ExecScale());
  w.program.Validate().CheckOK();
  auto env = NewMemEnv();

  std::printf(
      "\n=== %s: exec_threads sweep (MemEnv, original schedule, "
      "1/%lld scale) ===\n",
      name.c_str(), static_cast<long long>(ExecScale()));
  std::printf("%8s %6s %9s %9s %9s %10s %12s %6s %7s\n", "threads", "depth",
              "wall(s)", "io(s)", "cpu(s)", "overlap(s)", "cpu_ovl(s)",
              "width", "groups");

  Runtime ref_rt;
  double serial_wall = 0.0, best_parallel_wall = 0.0;
  int run_idx = 0;
  for (int threads : {1, 2, 4}) {
    for (int depth : {0, 2}) {
      std::string dir = "/sweep" + std::to_string(run_idx++);
      auto rt = OpenStores(env.get(), w.program, dir);
      rt.status().CheckOK();
      InitInputs(w, *rt, /*seed=*/1234).CheckOK();
      ExecOptions eo;
      eo.exec_threads = threads;
      eo.pipeline_depth = depth;
      Executor ex(w.program, rt->raw(), w.kernels, eo);
      auto stats = ex.Run(w.program.original_schedule(), {});
      stats.status().CheckOK();
      std::printf("%8d %6d %9.3f %9.3f %9.3f %10.3f %12.3f %6lld %7lld\n",
                  threads, depth, stats->wall_seconds, stats->io_seconds,
                  stats->compute_seconds, stats->overlap_seconds,
                  stats->compute_overlap_seconds,
                  static_cast<long long>(stats->max_ready_width),
                  static_cast<long long>(stats->parallel_groups));
      if (json != nullptr) {
        json->Add("original", "sweep", threads, depth, *stats);
      }
      if (threads == 1 && depth == 0) {
        serial_wall = stats->wall_seconds;
        ref_rt = std::move(rt).ValueOrDie();
        continue;
      }
      if (threads == 4) {
        best_parallel_wall = best_parallel_wall == 0.0
                                 ? stats->wall_seconds
                                 : std::min(best_parallel_wall,
                                            stats->wall_seconds);
      }
      // Every configuration must reproduce the serial outputs exactly.
      for (int arr : w.output_arrays) {
        const ArrayInfo& info = w.program.array(arr);
        auto d = MaxAbsDifference(
            info, ref_rt.stores[static_cast<size_t>(arr)].get(),
            rt->stores[static_cast<size_t>(arr)].get());
        d.status().CheckOK();
        RIOT_CHECK(*d == 0.0)
            << name << " threads=" << threads << " depth=" << depth
            << " diverged on " << info.name;
      }
    }
  }
  if (serial_wall > 0.0 && best_parallel_wall > 0.0) {
    std::printf("speedup exec_threads=4 over serial: %.2fx "
                "(hardware: %u cores)\n",
                serial_wall / best_parallel_wall,
                std::thread::hardware_concurrency());
  }
}

void Harness::PrintPlanSpace(size_t max_rows) const {
  RIOT_CHECK(optimized_);
  std::printf("plan space (%zu plans): footprint(MB) vs I/O time(s)\n",
              result_.plans.size());
  size_t shown = 0;
  for (size_t i = 0; i < result_.plans.size() && shown < max_rows; ++i) {
    const Plan& p = result_.plans[i];
    std::printf("  plan %-4zu mem=%9.1f MB  io=%9.1f s  {%s}\n", i,
                p.cost.peak_memory_bytes / 1e6, p.cost.io_seconds,
                p.DescribeOpportunities(paper_.program,
                                        result_.analysis.sharing)
                    .c_str());
    ++shown;
  }
  if (shown < result_.plans.size()) {
    std::printf("  ... %zu more plans omitted\n",
                result_.plans.size() - shown);
  }
}

}  // namespace bench
}  // namespace riot
