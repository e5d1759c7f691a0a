// The riotshare benchmark: four named workloads, one per process. An
// untraced run (--trace 0) prints the end-to-end metrics; a traced run
// (--trace 1) prints the per-layer metrics and writes a Chrome trace.
// README.md gives the workloads, the metric definitions and the map from
// layer metrics to the end-to-end metrics they should move.
//
//   bench_workloads --workload NAME --seed N --seconds S --trace 0|1
//                   [--out DIR]
//   bench_workloads --selftest
//
// The last line of stdout is one JSON object:
//   {"correct": true, "attempted": N, "failed": 0,
//    "metrics": {"<name>": {"value": V, "unit": "U"}, ...}}
// Every line before it reads "<workload> <metric> <value> <unit> n=<count>".
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_trace.h"
#include "core/cost_model.h"
#include "core/optimizer.h"
#include "exec/executor.h"
#include "exec/verify.h"
#include "ops/runtime.h"
#include "ops/workload.h"
#include "serve/catalog.h"
#include "serve/metrics.h"
#include "serve/server.h"
#include "serve/workload_gen.h"
#include "storage/env.h"

namespace riot {
namespace perfbench {
namespace {

// The reference host has 4 cores; no workload runs more load threads.
constexpr int kLoadThreads = 4;
// Set-ups per untraced run; setup_s reports their median.
constexpr int kSetupRepeats = 3;
constexpr size_t kNoCap = std::numeric_limits<size_t>::max();

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Quantile `q` of `v`, interpolated linearly between order statistics.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] + (pos - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
}

/// Quantile `q` of a serve histogram. LatencyHistogram::Quantile answers
/// with the upper bound of the bucket holding the q-th sample, so it moves
/// in steps of one bucket (~9.6%). This finds that bucket's rank range
/// through the same public call and interpolates log-linearly inside it,
/// as Prometheus' histogram_quantile does, so the value moves smoothly.
double HistQuantile(const serve::LatencyHistogram& h, double q) {
  using H = serve::LatencyHistogram;
  const int64_t n = h.count();
  if (n == 0) return 0;
  const int64_t rank = std::clamp<int64_t>(
      static_cast<int64_t>(std::ceil(q * static_cast<double>(n))), 1, n);
  auto upper = [&](int64_t r) {
    return h.Quantile((static_cast<double>(r) - 0.5) / static_cast<double>(n));
  };
  const double u = upper(rank);
  int64_t lo = 1, hi = rank;  // first rank in the bucket
  while (lo < hi) {
    const int64_t m = (lo + hi) / 2;
    if (upper(m) == u) hi = m; else lo = m + 1;
  }
  const int64_t first = lo;
  lo = rank;
  hi = n;  // last rank in the bucket
  while (lo < hi) {
    const int64_t m = (lo + hi + 1) / 2;
    if (upper(m) == u) lo = m; else hi = m - 1;
  }
  const int64_t last = lo;
  // u is the bucket's upper bound B(i) = kMin * 10^(i / k), or the exact
  // max when that falls inside the bucket; either way the bucket is i.
  const double k = H::kBucketsPerDecade;
  const double i = std::ceil(std::log10(u / H::kMinSeconds) * k - 1e-9);
  const double lower = H::kMinSeconds * std::pow(10.0, (i - 1) / k);
  if (!(u > lower)) return u;
  const double frac = (static_cast<double>(rank - first) + 0.5) /
                      static_cast<double>(last - first + 1);
  return lower * std::pow(u / lower, frac);
}

double Ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

double MaxRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB on Linux
}

// ------------------------------------------------------------------ report

/// The per-layer metrics every traced run prints, in order. A workload
/// that never enters a layer reports 0 for it (README lists which).
const std::vector<std::pair<const char*, const char*>>& LayerMetricUnits() {
  static const std::vector<std::pair<const char*, const char*>> kUnits = {
      {"lowering.busy_s", "s"},
      {"lowering.statements", "count"},
      {"lowering.scratch_arrays", "count"},
      {"optimizer.busy_s", "s"},
      {"optimizer.share", "fraction"},
      {"optimizer.opportunities", "count"},
      {"optimizer.candidates_tested", "count"},
      {"optimizer.candidates_pruned", "count"},
      {"optimizer.schedules_found", "count"},
      {"optimizer.plans", "count"},
      {"optimizer.useful_ratio", "fraction"},
      {"optimizer.best_pred_io_s", "s"},
      {"cost_model.busy_s", "s"},
      {"cost_model.read_pred_error", "fraction"},
      {"exec.busy_s", "s"},
      {"exec.self_s", "s"},
      {"exec.io_wait_s", "s"},
      {"exec.compute_s", "s"},
      {"exec.overlap_s", "s"},
      {"exec.block_reads", "count"},
      {"exec.block_writes", "count"},
      {"exec.prefetch_hits", "count"},
      {"exec.prefetch_wasted", "count"},
      {"exec.policy_saved_reads", "count"},
      {"exec.max_ready_width", "count"},
      {"exec.peak_required_mb", "MB"},
      {"kernels.calls", "count"},
      {"kernels.busy_s", "s"},
      {"kernels.gemm_s", "s"},
      {"kernels.elementwise_s", "s"},
      {"kernels.other_s", "s"},
      {"kernels.share", "fraction"},
      {"kernels.vs_exec_compute", "ratio"},
      {"disk.read_ops", "count"},
      {"disk.write_ops", "count"},
      {"disk.read_mb", "MB"},
      {"disk.write_mb", "MB"},
      {"disk.read_busy_s", "s"},
      {"disk.write_busy_s", "s"},
      {"disk.read_p50_s", "s"},
      {"disk.read_p99_s", "s"},
      {"disk.share", "fraction"},
      {"pool.hits", "count"},
      {"pool.misses", "count"},
      {"pool.hit_ratio", "fraction"},
      {"pool.evictions", "count"},
      {"pool.prefetch_issued", "count"},
      {"pool.prefetch_useful_ratio", "fraction"},
      {"pool.writeback_stall_s", "s"},
      {"pool.coalesced_loads", "count"},
      {"sessions.parked", "count"},
      {"sessions.admission_wait_p99_s", "s"},
      {"sessions.admission_wait_mean_s", "s"},
      {"sessions.peak_concurrent", "count"},
      {"sessions.peak_reserved_mb", "MB"},
      {"sessions.budget_parks", "count"},
      {"serve.queue_wait_p99_s", "s"},
      {"serve.exec_wall_p50_s", "s"},
      {"serve.whale_p99_s", "s"},
      {"serve.job_p99_s", "s"},
      {"serve.mouse_p99_s", "s"},
      {"loadgen.late_p99_s", "s"},
      {"loadgen.late_max_s", "s"},
      {"trace.overhead_frac", "fraction"},
      {"trace.residual_share", "fraction"},
  };
  return kUnits;
}

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           int64_t n) {
    rows_.push_back(Row{name, std::isfinite(value) ? value : 0.0, unit, n});
  }

  /// Human-readable lines, then the JSON result as the last line.
  void Print(const std::string& workload, bool correct, int64_t attempted,
             int64_t failed) const {
    for (const Row& r : rows_) {
      std::printf("%s %s %.9g %s n=%lld\n", workload.c_str(), r.name.c_str(),
                  r.value, r.unit.c_str(), static_cast<long long>(r.n));
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                correct ? "true" : "false", static_cast<long long>(attempted),
                static_cast<long long>(failed));
    for (size_t i = 0; i < rows_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", rows_[i].name.c_str(), rows_[i].value,
                  rows_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
    int64_t n;
  };
  std::vector<Row> rows_;
};

/// Per-layer values a workload measured; Emit() prints the full table.
class LayerValues {
 public:
  void Set(const std::string& name, double value, int64_t n) {
    values_[name] = {value, n};
  }
  void Emit(Report* report) const {
    size_t used = 0;
    for (const auto& [name, unit] : LayerMetricUnits()) {
      auto it = values_.find(name);
      if (it != values_.end()) ++used;
      report->Add(name, it == values_.end() ? 0.0 : it->second.first, unit,
                  it == values_.end() ? 0 : it->second.second);
    }
    if (used != values_.size()) {
      std::fprintf(stderr, "internal: a layer metric is missing from the "
                           "table\n");
      std::exit(3);
    }
  }

 private:
  std::map<std::string, std::pair<double, int64_t>> values_;
};

// ------------------------------------------------------------------ phases

/// End-to-end results of one measured phase.
struct Phase {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t samples = 0;  // latency samples behind the percentiles
  double jobs_per_s = 0;
  double p50 = 0;
  double p90 = 0;
  double disk_bytes_per_job = 0;
};

/// A traced run: every job's outcome, and the tracing overhead as the
/// traced jobs' median latency over the untraced jobs', minus one.
struct TracedPhase {
  Phase phase;
  double overhead = 0;
};

/// One workload: built by Setup(), driven by Measure().
class Bench {
 public:
  virtual ~Bench() = default;
  /// One-time work every set-up reuses, done once per process and untimed:
  /// compiling the programs' plans, as a deployment caches them.
  virtual void Compile() {}
  /// Builds every input from scratch, replacing any earlier set-up.
  virtual void Setup() = 0;
  /// Runs each job shape once, untimed, so lazy set-up is paid up front.
  virtual void Warmup() = 0;
  /// Runs jobs for about `seconds` and checks every output.
  virtual Phase Measure(double seconds) = 0;
  /// Like Measure(), recording spans for half of the jobs.
  virtual TracedPhase MeasureTraced(double seconds) = 0;
  /// Per-layer values of the traced jobs of the last MeasureTraced().
  virtual void Layers(const TraceSummary& trace, LayerValues* out) const = 0;
};

void FatalIfError(const Status& st, const char* what) {
  if (st.ok()) return;
  std::fprintf(stderr, "set-up failed (%s): %s\n", what,
               st.ToString().c_str());
  std::exit(1);
}

/// Per-layer values common to the batch and serve workloads' traces.
void TraceLayers(const TraceSummary& t, int64_t jobs, LayerValues* out) {
  const double j = static_cast<double>(std::max<int64_t>(jobs, 1));
  const auto& read = t.of(Layer::kDiskRead);
  const auto& write = t.of(Layer::kDiskWrite);
  out->Set("disk.read_ops", read.job_count / j, jobs);
  out->Set("disk.write_ops", write.job_count / j, jobs);
  out->Set("disk.read_busy_s", read.job_busy / j, jobs);
  out->Set("disk.write_busy_s", write.job_busy / j, jobs);
  const int64_t nreads = static_cast<int64_t>(t.read_seconds.size());
  out->Set("disk.read_p50_s", Percentile(t.read_seconds, 0.50), nreads);
  out->Set("disk.read_p99_s", Percentile(t.read_seconds, 0.99), nreads);
  out->Set("disk.share",
           t.Share(Layer::kDiskRead) + t.Share(Layer::kDiskWrite), jobs);
  out->Set("trace.residual_share", t.Share(Layer::kJob), jobs);
}

// ------------------------------------------------------- batch workloads

struct ProgramSpec {
  const char* name;
  Workload (*make)(int64_t scale);
  size_t max_combination_size;  // optimizer search cap; kNoCap = none
  int64_t scale;                // execution scale divisor
};

Workload TwoMatMulA(int64_t s) {
  return MakeTwoMatMul(TwoMatMulConfig::kConfigA, s);
}
Workload Covariance(int64_t s) { return MakeCovariance(s); }
Workload Chain(int64_t s) { return MakeElementwiseChain(s); }

struct BatchConfig {
  /// Five programs, run in equal numbers: with an odd count, p50 falls in
  /// the middle of the third-slowest program's jobs and p90 in the middle
  /// of the slowest's, not on the edge between two programs.
  std::vector<ProgramSpec> programs;
  /// plan_search: every job lowers and optimizes its program; otherwise
  /// set-up does, once per program, and jobs only execute the best plan.
  bool optimize_per_job = false;
  int exec_threads = 1;
  int pipeline_depth = 0;
  /// Memory cap as a multiple of the plan's predicted peak; 0 = no cap.
  double cap_factor = 0;
  /// Jobs run on a sleeping ThrottledEnv over real files (else a MemEnv).
  bool paper_disk = false;
};

// The paper's disk (Section 6): 96 MB/s read, 60 MB/s write, plus 0.05 ms
// per request, slept for real.
constexpr double kPaperReadMBps = 96.0;
constexpr double kPaperWriteMBps = 60.0;
constexpr double kPaperRequestMs = 0.05;

BatchConfig PlanSearchConfig() {
  // Search caps keep a round of five jobs near 1.1 s, so a 40 s run holds
  // ~180 jobs; addmul, twomm_a and covariance still search several Apriori
  // levels, ridge and linreg one.
  BatchConfig c;
  c.programs = {{"addmul", MakeAddMul, kNoCap, 200},
                {"twomm_a", TwoMatMulA, 2, 200},
                {"covariance", Covariance, 3, 200},
                {"ridge", MakeRidge, 1, 200},
                {"linreg", MakeLinReg, 1, 200}};
  c.optimize_per_job = true;
  return c;
}

BatchConfig PaperIoConfig() {
  BatchConfig c;
  c.programs = {{"addmul", MakeAddMul, kNoCap, 100},
                {"twomm_a", TwoMatMulA, kNoCap, 200},
                {"covariance", Covariance, kNoCap, 30},
                {"linreg", MakeLinReg, 2, 100},
                {"chain", Chain, kNoCap, 50}};
  c.pipeline_depth = 2;
  // Half a peak of headroom lets the depth-2 prefetcher run ahead. At
  // exactly the peak it has no room, and on twomm_b (not in this set) it
  // cancels and re-reads 1632 blocks where the plan predicts 1200.
  c.cap_factor = 1.5;
  c.paper_disk = true;
  return c;
}

BatchConfig ComputeMemConfig() {
  BatchConfig c;
  c.programs = {{"addmul", MakeAddMul, kNoCap, 50},
                {"twomm_a", TwoMatMulA, kNoCap, 40},
                {"covariance", Covariance, kNoCap, 20},
                {"linreg", MakeLinReg, 2, 40},
                {"chain", Chain, kNoCap, 40}};
  // Two kernel workers, not four: on the 4-vCPU reference host, which
  // shares its cores with other machines, four workers gave a 16-27%
  // run-to-run spread in jobs_per_s and two gave 8-12%.
  c.exec_threads = 2;
  return c;
}

OptimizerOptions OptimizerOptionsFor(const ProgramSpec& spec) {
  OptimizerOptions o;
  o.num_threads = kLoadThreads;
  o.max_combination_size = spec.max_combination_size;
  return o;
}

/// A program's plan search at paper scale; set-up maps the best plan onto
/// the program at its execution scale.
struct Compiled {
  Program paper;
  OptimizationResult result;
};

/// One program of a batch workload at its execution scale, with its stores.
struct Prepared {
  const ProgramSpec* spec = nullptr;
  Workload scaled;
  std::vector<StatementKernel> kernels;  // wrapped when tracing
  AnalysisResult analysis;               // of the scaled program
  // The chosen plan (set-up chooses it unless jobs optimize).
  Schedule schedule;
  std::vector<const CoAccess*> realized;  // into `analysis`
  PlanCost predicted;
  Runtime job_stores;    // through the measured Env
  Runtime check_stores;  // the same files through the undecorated Env
  Runtime ref_stores;    // original-schedule outputs, on a MemEnv (its
                         // input stores stay empty: the run reads
                         // check_stores' inputs)
};

class BatchBench : public Bench {
 public:
  BatchBench(BatchConfig config, uint64_t seed, std::string data_dir,
             Tracer* tracer)
      : cfg_(std::move(config)), seed_(seed), data_dir_(std::move(data_dir)),
        tracer_(tracer) {}

  ~BatchBench() override {
    progs_.clear();
    if (cfg_.paper_disk) {
      std::error_code ec;
      std::filesystem::remove_all(data_dir_, ec);
    }
  }

  void Compile() override {
    if (cfg_.optimize_per_job) return;
    compiled_.clear();
    for (const ProgramSpec& spec : cfg_.programs) {
      Compiled c;
      {
        ScopedSpan span(tracer_, Layer::kLowering);
        c.paper = spec.make(1).program;
      }
      {
        ScopedSpan span(tracer_, Layer::kOptimizer);
        c.result = Optimize(c.paper, OptimizerOptionsFor(spec));
      }
      opt_.Add(c.result);
      compiled_.push_back(std::move(c));
    }
  }

  void Setup() override {
    progs_.clear();
    timed_env_.reset();
    disk_env_.reset();
    ref_env_ = NewMemEnv();
    if (cfg_.paper_disk) {
      std::error_code ec;
      std::filesystem::remove_all(data_dir_, ec);
      std::filesystem::create_directories(data_dir_, ec);
      if (ec) FatalIfError(Status::IoError(ec.message()), "data dir");
      base_env_ = NewPosixEnv();
      disk_env_ = NewThrottledEnv(base_env_.get(), kPaperReadMBps,
                                  kPaperWriteMBps, kPaperRequestMs,
                                  /*sleep_scale=*/1.0);
    } else {
      base_env_ = NewMemEnv();
    }
    Env* measured = disk_env_ ? disk_env_.get() : base_env_.get();
    if (tracer_ != nullptr) {
      timed_env_ = std::make_unique<TimedEnv>(measured, tracer_);
      measured = timed_env_.get();
    }
    job_env_ = measured;

    for (size_t i = 0; i < cfg_.programs.size(); ++i) {
      const ProgramSpec& spec = cfg_.programs[i];
      auto p = std::make_unique<Prepared>();
      p->spec = &spec;
      p->scaled = BuildScaled(spec, p.get());
      if (!cfg_.optimize_per_job) {
        const Compiled& c = compiled_[i];
        p->schedule = c.result.best().schedule;
        FatalIfError(MapPlan(c.paper, c.result, p.get()), "plan mapping");
        ScopedSpan span(tracer_, Layer::kCostModel);
        p->predicted =
            EvaluatePlanCost(p->scaled.program, p->schedule, p->realized);
      }
      OpenAndInit(p.get());
      progs_.push_back(std::move(p));
    }
  }

  void Warmup() override {
    for (auto& p : progs_) RunJob(p.get());
  }

  Phase Measure(double seconds) override {
    return Rounds(seconds, false).phase;
  }

  TracedPhase MeasureTraced(double seconds) override {
    return Rounds(seconds, true);
  }

 private:
  /// Runs whole rounds of every program, so each shape is equally
  /// represented; a round starts only if it should end within half a
  /// round of the deadline. With `alternate`, every second round is
  /// traced: adjacent rounds see the same host, so the ratio of the two
  /// kinds' median round times is the tracing overhead, and the layer
  /// totals count the traced rounds only.
  TracedPhase Rounds(double seconds, bool alternate) {
    ResetTotals();
    TracedPhase out;
    Phase& ph = out.phase;
    std::vector<double> latencies;
    std::vector<double> rounds[2];  // job seconds per round: plain, traced
    int64_t disk = 0;
    int64_t job_id = 0;
    const IoStats& io = job_env_->stats();
    const auto t0 = Clock::now();
    for (size_t round = 0;; ++round) {
      const bool traced = alternate && round % 2 == 1;
      if (alternate) tracer_->set_recording(traced);
      counting_ = !alternate || traced;
      const int64_t r0 = io.bytes_read, w0 = io.bytes_written;
      const auto round0 = Clock::now();
      double round_jobs_s = 0;
      for (auto& p : progs_) {
        if (tracer_ != nullptr) tracer_->set_job(job_id);
        ++job_id;
        const JobOutcome o = RunJob(p.get());
        if (tracer_ != nullptr) tracer_->set_job(-1);
        ++ph.attempted;
        if (!o.ok) ++ph.failed;
        latencies.push_back(o.seconds);
        round_jobs_s += o.seconds;
        disk += o.disk_bytes;
        if (counting_) ++jobs_;
      }
      if (counting_) {
        phase_read_bytes_ += io.bytes_read - r0;
        phase_write_bytes_ += io.bytes_written - w0;
      }
      rounds[traced ? 1 : 0].push_back(round_jobs_s);
      const double round_s = SecondsSince(round0);
      const bool both_kinds = !alternate || round >= 1;
      if (both_kinds && SecondsSince(t0) + round_s / 2 > seconds) break;
    }
    if (alternate) tracer_->set_recording(false);
    counting_ = true;
    out.overhead = Ratio(Median(rounds[1]), Median(rounds[0])) - 1.0;
    ph.samples = static_cast<int64_t>(latencies.size());
    // Closed loop, one client: jobs per second of job time in the median
    // round. The untimed output reset and check between jobs are the
    // benchmark's, not the system's, so they are left out; the median
    // keeps a burst of contention from other tenants of the host out too.
    ph.jobs_per_s =
        Ratio(static_cast<double>(progs_.size()), Median(rounds[0]));
    ph.p50 = Percentile(latencies, 0.50);
    ph.p90 = Percentile(latencies, 0.90);
    ph.disk_bytes_per_job =
        Ratio(static_cast<double>(disk), static_cast<double>(ph.samples));
    return out;
  }

  void Layers(const TraceSummary& t, LayerValues* out) const override {
    const int64_t jobs = jobs_;
    const double j = static_cast<double>(std::max<int64_t>(jobs, 1));
    int64_t statements = 0, scratch = 0;
    for (const auto& p : progs_) {
      statements += static_cast<int64_t>(p->scaled.program.statements().size());
      for (const ArrayInfo& a : p->scaled.program.arrays()) {
        if (!a.persistent) ++scratch;
      }
    }
    const auto& lowering = t.of(Layer::kLowering);
    out->Set("lowering.busy_s", Ratio(lowering.busy, lowering.count),
             lowering.count);
    out->Set("lowering.statements", statements, 1);
    out->Set("lowering.scratch_arrays", scratch, 1);

    const auto& optimizer = t.of(Layer::kOptimizer);
    const double calls = static_cast<double>(opt_.calls);
    out->Set("optimizer.busy_s", Ratio(optimizer.busy, optimizer.count),
             optimizer.count);
    out->Set("optimizer.share", t.Share(Layer::kOptimizer), jobs);
    out->Set("optimizer.opportunities", Ratio(opt_.opportunities, calls),
             opt_.calls);
    out->Set("optimizer.candidates_tested", Ratio(opt_.tested, calls),
             opt_.calls);
    out->Set("optimizer.candidates_pruned", Ratio(opt_.pruned, calls),
             opt_.calls);
    out->Set("optimizer.schedules_found", Ratio(opt_.schedules, calls),
             opt_.calls);
    out->Set("optimizer.plans", Ratio(opt_.plans, calls), opt_.calls);
    out->Set("optimizer.useful_ratio", Ratio(opt_.schedules, opt_.tested),
             opt_.calls);
    out->Set("optimizer.best_pred_io_s", Ratio(opt_.best_io_s, calls),
             opt_.calls);

    const auto& cost = t.of(Layer::kCostModel);
    out->Set("cost_model.busy_s", Ratio(cost.busy, cost.count), cost.count);
    out->Set("cost_model.read_pred_error",
             Ratio(static_cast<double>(read_err_),
                   static_cast<double>(pred_reads_)),
             jobs);

    const ExecStats& s = sum_;
    const auto& exec = t.of(Layer::kExec);
    out->Set("exec.busy_s", exec.job_busy / j, jobs);
    out->Set("exec.self_s", t.exec_self / j, jobs);
    out->Set("exec.io_wait_s", t.exec_disk_only / j, jobs);
    out->Set("exec.compute_s", s.compute_seconds / j, jobs);
    out->Set("exec.overlap_s", t.exec_both / j, jobs);
    out->Set("exec.block_reads", s.block_reads / j, jobs);
    out->Set("exec.block_writes", s.block_writes / j, jobs);
    out->Set("exec.prefetch_hits", s.prefetch_hits / j, jobs);
    out->Set("exec.prefetch_wasted", s.prefetch_wasted / j, jobs);
    out->Set("exec.policy_saved_reads", s.policy_saved_reads / j, jobs);
    out->Set("exec.max_ready_width", s.max_ready_width, jobs);
    out->Set("exec.peak_required_mb", s.peak_required_bytes / 1e6, jobs);

    const auto& kernel = t.of(Layer::kKernel);
    out->Set("kernels.calls", kernel.job_count / j, jobs);
    out->Set("kernels.busy_s", kernel.job_busy / j, jobs);
    out->Set("kernels.gemm_s", t.kernel_gemm / j, jobs);
    out->Set("kernels.elementwise_s", t.kernel_elementwise / j, jobs);
    out->Set("kernels.other_s", t.kernel_other / j, jobs);
    out->Set("kernels.share", t.Share(Layer::kKernel), jobs);
    out->Set("kernels.vs_exec_compute",
             Ratio(kernel.job_busy, s.compute_seconds), jobs);

    out->Set("disk.read_mb", phase_read_bytes_ / 1e6 / j, jobs);
    out->Set("disk.write_mb", phase_write_bytes_ / 1e6 / j, jobs);
    TraceLayers(t, jobs, out);

    const BufferPoolStats& pool = s.pool;
    out->Set("pool.hits", pool.hits / j, jobs);
    out->Set("pool.misses", pool.misses / j, jobs);
    out->Set("pool.hit_ratio",
             Ratio(static_cast<double>(pool.hits),
                   static_cast<double>(pool.hits + pool.misses)),
             jobs);
    out->Set("pool.evictions", pool.evictions / j, jobs);
    out->Set("pool.prefetch_issued", pool.prefetch_issued / j, jobs);
    out->Set("pool.prefetch_useful_ratio",
             Ratio(static_cast<double>(s.prefetch_hits),
                   static_cast<double>(pool.prefetch_issued)),
             jobs);
    out->Set("pool.writeback_stall_s", pool.writeback_stall_seconds / j,
             jobs);
    out->Set("pool.coalesced_loads", pool.coalesced_loads / j, jobs);
  }

 private:
  struct JobOutcome {
    bool ok = false;
    double seconds = 0;
    int64_t disk_bytes = 0;
  };

  /// Optimizer counters summed over every Optimize call of the run.
  struct OptimizerTotals {
    int64_t calls = 0;
    double opportunities = 0, tested = 0, pruned = 0, schedules = 0,
           plans = 0, best_io_s = 0;
    void Add(const OptimizationResult& r) {
      ++calls;
      opportunities += static_cast<double>(r.analysis.sharing.size());
      tested += static_cast<double>(r.candidates_tested);
      pruned += static_cast<double>(r.candidates_pruned);
      schedules += static_cast<double>(r.schedules_found);
      plans += static_cast<double>(r.plans.size());
      best_io_s += r.best().cost.io_seconds;
    }
  };

  Workload BuildScaled(const ProgramSpec& spec, Prepared* p) {
    Workload w;
    {
      ScopedSpan span(tracer_, Layer::kLowering);
      w = spec.make(spec.scale);
    }
    p->analysis = AnalyzeProgram(w.program);
    p->kernels = tracer_ != nullptr ? TimedKernels(w, tracer_) : w.kernels;
    return w;
  }

  /// Points `p->realized` at the scaled program's copies of the paper
  /// plan's opportunities. Block grids, and so opportunity order, are the
  /// same at every scale; the labels must agree.
  Status MapPlan(const Program& paper, const OptimizationResult& r,
                 Prepared* p) const {
    if (r.analysis.sharing.size() != p->analysis.sharing.size()) {
      return Status::Internal(std::string(p->spec->name) +
                              ": opportunity count differs across scales");
    }
    p->realized.clear();
    for (int oi : r.best().opportunities) {
      const size_t i = static_cast<size_t>(oi);
      if (r.analysis.sharing[i].Label(paper) !=
          p->analysis.sharing[i].Label(p->scaled.program)) {
        return Status::Internal(std::string(p->spec->name) +
                                ": opportunity labels differ across scales");
      }
      p->realized.push_back(&p->analysis.sharing[i]);
    }
    return Status::OK();
  }

  void OpenAndInit(Prepared* p) {
    const std::string dir = cfg_.paper_disk
                                ? data_dir_ + "/" + p->spec->name
                                : std::string("/") + p->spec->name;
    if (cfg_.paper_disk) {
      std::error_code ec;
      std::filesystem::create_directories(dir, ec);
    }
    const Program& prog = p->scaled.program;
    auto job = OpenStores(job_env_, prog, dir);
    FatalIfError(job.status(), "open stores");
    auto check = OpenStores(base_env_.get(), prog, dir);
    FatalIfError(check.status(), "open stores");
    auto ref = OpenStores(ref_env_.get(), prog, std::string("/ref") + dir);
    FatalIfError(ref.status(), "open stores");
    p->job_stores = std::move(job).ValueOrDie();
    p->check_stores = std::move(check).ValueOrDie();
    p->ref_stores = std::move(ref).ValueOrDie();
    // Inputs are loaded through the disk the jobs read (paper_io: the
    // paper's, slept for real), as loading a dataset would be.
    FatalIfError(InitInputs(p->scaled, p->job_stores, seed_), "inputs");
    // Reference outputs: the original schedule, reading the jobs' inputs
    // and writing every other array to stores of its own. Compute_mem's
    // reference runs on its two workers; outputs are bit-identical across
    // engine modes, and the serial engine would double its set-up.
    std::vector<BlockStore*> ref_raw = p->ref_stores.raw();
    std::vector<bool> is_input(prog.arrays().size(), false);
    for (int arr : p->scaled.input_arrays) {
      const size_t a = static_cast<size_t>(arr);
      is_input[a] = true;
      ref_raw[a] = p->check_stores.stores[a].get();
    }
    // Write every other array once at full size, so the parallel engine's
    // out-of-order writes never grow a MemEnv file, which would make peak
    // memory vary from run to run.
    for (const ArrayInfo& info : prog.arrays()) {
      const size_t a = static_cast<size_t>(info.id);
      if (is_input[a]) continue;
      FatalIfError(ZeroArray(info, p->check_stores.stores[a].get()), "zero");
      FatalIfError(ZeroArray(info, ref_raw[a]), "zero");
    }
    ExecOptions eo;
    eo.exec_threads = cfg_.exec_threads;
    Executor ex(prog, ref_raw, p->scaled.kernels, eo);
    auto st = ex.Run(prog.original_schedule(), {});
    FatalIfError(st.status(), "reference run");
  }

  JobOutcome RunJob(Prepared* p) {
    JobOutcome o;
    const Program& prog = p->scaled.program;
    // Untimed: clear the outputs, so a plan that skips a write cannot pass
    // on an earlier job's result.
    for (int arr : p->scaled.output_arrays) {
      if (!ZeroArray(prog.array(arr),
                     p->check_stores.stores[static_cast<size_t>(arr)].get())
               .ok()) {
        return o;
      }
    }
    const IoStats& io = job_env_->stats();
    const int64_t b0 = io.bytes_read + io.bytes_written;
    const auto t0 = Clock::now();
    Status st;
    {
      ScopedSpan job(tracer_, Layer::kJob);
      st = ExecuteJob(p);
    }
    o.seconds = SecondsSince(t0);
    o.disk_bytes = io.bytes_read + io.bytes_written - b0;
    if (st.ok()) st = Check(p);
    if (!st.ok() && ++errors_printed_ <= 5) {
      std::fprintf(stderr, "%s: %s\n", p->spec->name, st.ToString().c_str());
    }
    o.ok = st.ok();
    return o;
  }

  /// The timed part of a job.
  Status ExecuteJob(Prepared* p) {
    const Program& prog = p->scaled.program;
    if (cfg_.optimize_per_job) {
      Workload paper;
      {
        ScopedSpan span(tracer_, Layer::kLowering);
        paper = p->spec->make(1);
      }
      OptimizationResult r;
      {
        ScopedSpan span(tracer_, Layer::kOptimizer);
        r = Optimize(paper.program, OptimizerOptionsFor(*p->spec));
      }
      opt_.Add(r);
      p->schedule = r.best().schedule;
      RIOT_RETURN_NOT_OK(MapPlan(paper.program, r, p));
      ScopedSpan span(tracer_, Layer::kCostModel);
      p->predicted = EvaluatePlanCost(prog, p->schedule, p->realized);
    }
    ExecOptions eo;
    eo.exec_threads = cfg_.exec_threads;
    eo.pipeline_depth = cfg_.pipeline_depth;
    if (cfg_.cap_factor > 0) {
      const double peak =
          static_cast<double>(p->predicted.peak_memory_bytes);
      eo.memory_cap_bytes = static_cast<int64_t>(cfg_.cap_factor * peak);
    }
    ScopedSpan span(tracer_, Layer::kExec);
    Executor ex(prog, p->job_stores.raw(), p->kernels, eo);
    auto stats = ex.Run(p->schedule, p->realized);
    if (!stats.ok()) return stats.status();
    Accumulate(*stats, p->predicted);
    return Status::OK();
  }

  Status Check(Prepared* p) const {
    for (int arr : p->scaled.output_arrays) {
      const size_t a = static_cast<size_t>(arr);
      RIOT_RETURN_NOT_OK(VerifyBitEqual(p->scaled.program.array(arr),
                                        p->ref_stores.stores[a].get(),
                                        p->check_stores.stores[a].get()));
    }
    return Status::OK();
  }

  void ResetTotals() {
    sum_ = ExecStats{};
    pred_reads_ = read_err_ = 0;
    jobs_ = 0;
    phase_read_bytes_ = phase_write_bytes_ = 0;
  }

  void Accumulate(const ExecStats& s, const PlanCost& predicted) {
    if (!counting_) return;
    sum_.block_reads += s.block_reads;
    sum_.block_writes += s.block_writes;
    sum_.compute_seconds += s.compute_seconds;
    sum_.prefetch_hits += s.prefetch_hits;
    sum_.prefetch_wasted += s.prefetch_wasted;
    sum_.policy_saved_reads += s.policy_saved_reads;
    sum_.max_ready_width = std::max(sum_.max_ready_width, s.max_ready_width);
    sum_.peak_required_bytes =
        std::max(sum_.peak_required_bytes, s.peak_required_bytes);
    sum_.pool.hits += s.pool.hits;
    sum_.pool.misses += s.pool.misses;
    sum_.pool.evictions += s.pool.evictions;
    sum_.pool.prefetch_issued += s.pool.prefetch_issued;
    sum_.pool.writeback_stall_seconds += s.pool.writeback_stall_seconds;
    sum_.pool.coalesced_loads += s.pool.coalesced_loads;
    pred_reads_ += predicted.block_reads;
    read_err_ += std::abs(s.block_reads - predicted.block_reads);
  }

  const BatchConfig cfg_;
  const uint64_t seed_;
  const std::string data_dir_;
  Tracer* const tracer_;

  std::unique_ptr<Env> base_env_;  // files for init, reset and checks
  std::unique_ptr<Env> disk_env_;  // paper_io: the throttled disk over base
  std::unique_ptr<Env> timed_env_;
  std::unique_ptr<Env> ref_env_;
  Env* job_env_ = nullptr;  // what jobs run against
  std::vector<Compiled> compiled_;  // by program, unless jobs optimize
  std::vector<std::unique_ptr<Prepared>> progs_;

  // Totals of the last Measure(), over its traced rounds when alternating.
  bool counting_ = true;
  ExecStats sum_;
  int64_t pred_reads_ = 0, read_err_ = 0;
  int64_t jobs_ = 0;
  int64_t phase_read_bytes_ = 0, phase_write_bytes_ = 0;
  OptimizerTotals opt_;
  int errors_printed_ = 0;
};

// ----------------------------------------------------------- serve_zipf

constexpr double kServeRate = 30.0;  // offered jobs per second
constexpr double kZipfTheta = 0.99;  // dataset popularity skew
constexpr double kWhaleFraction = 0.08;
constexpr double kWriteFraction = 0.20;  // of the mice

class ServeBench : public Bench {
 public:
  ServeBench(uint64_t seed, Tracer* tracer) : seed_(seed), tracer_(tracer) {}

  void Setup() override {
    catalog_.reset();
    timed_env_.reset();
    disk_env_.reset();
    mem_env_ = NewMemEnv();
    disk_env_ = NewThrottledEnv(mem_env_.get(), /*read_mb_per_s=*/30.0,
                                /*write_mb_per_s=*/20.0,
                                /*per_request_ms=*/0.2, /*sleep_scale=*/1.0);
    env_ = disk_env_.get();
    if (tracer_ != nullptr) {
      timed_env_ = std::make_unique<TimedEnv>(env_, tracer_);
      env_ = timed_env_.get();
    }
    serve::CatalogOptions copts;
    copts.num_datasets = 6;
    copts.num_slots = 8;
    copts.mouse_grid = 2;
    copts.mouse_block = 32;
    copts.whale_grid = 3;
    // bench_serve's 64-element whale blocks make a whale ~20x a mouse: the
    // latency distribution then has a gap between ~9 ms and ~180 ms, p90
    // lands in it, and it swung 28% across seeds. At 32 a whale is ~7x a
    // mouse, the pool cap (1.5 whales) parks ~40% of jobs behind FIFO
    // admission, and p90 holds within 4%.
    copts.whale_block = 32;
    copts.seed = seed_;
    copts.cost.read_mb_per_s = 30.0;
    copts.cost.write_mb_per_s = 20.0;
    auto catalog = serve::Catalog::Create(env_, copts);
    FatalIfError(catalog.status(), "catalog");
    catalog_ = std::move(catalog).ValueOrDie();
  }

  void Warmup() override {
    serve::Server server(catalog_.get(), Options());
    for (serve::JobKind kind : {serve::JobKind::kRead, serve::JobKind::kWrite,
                                serve::JobKind::kWhale}) {
      serve::JobSpec job;
      job.kind = kind;
      server.Submit(job);
    }
    server.Drain();
  }

  Phase Measure(double seconds) override {
    const std::vector<serve::JobSpec> jobs = Stream(seconds);
    const IoStats& io = env_->stats();
    const int64_t r0 = io.bytes_read, w0 = io.bytes_written;
    late_.clear();
    {
      serve::Server server(catalog_.get(), Options());
      if (tracer_ != nullptr) tracer_->set_job(0);
      {
        // The Server has no per-job hook: one span covers the phase and
        // the workers' disk spans nest under it.
        ScopedSpan span(tracer_, Layer::kJob);
        const auto t0 = Clock::now();
        for (const serve::JobSpec& job : jobs) {
          const auto due =
              t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(job.arrival_seconds));
          std::this_thread::sleep_until(due);
          late_.push_back(
              std::chrono::duration<double>(Clock::now() - due).count());
          server.Submit(job);
        }
        server.Drain();
      }
      if (tracer_ != nullptr) tracer_->set_job(-1);
      snap_ = server.Snapshot();
      runtime_ = server.runtime().stats();
    }
    read_bytes_ = io.bytes_read - r0;
    write_bytes_ = io.bytes_written - w0;
    jobs_ = static_cast<int64_t>(jobs.size());
    const double late_p99 = Percentile(late_, 0.99);
    if (late_p99 > 1e-3) {
      std::fprintf(stderr,
                   "warning: generator lateness p99 %.3f ms > 1 ms; the open "
                   "loop fell behind its schedule\n",
                   late_p99 * 1e3);
    }

    Phase ph;
    ph.attempted = jobs_;
    // A job the server never finished counts as failed too.
    ph.failed = snap_.failed + (jobs_ - snap_.completed - snap_.failed);
    const auto [checked, wrong] = CheckOutputs();
    ph.attempted += checked;
    ph.failed += wrong;
    ph.samples = snap_.latency.count();
    ph.jobs_per_s = snap_.throughput_jobs_per_sec;
    ph.p50 = HistQuantile(snap_.latency, 0.50);
    ph.p90 = HistQuantile(snap_.latency, 0.90);
    ph.disk_bytes_per_job =
        Ratio(static_cast<double>(read_bytes_ + write_bytes_),
              static_cast<double>(jobs_));
    return ph;
  }

  /// The window's first half untraced, its second traced, each replaying
  /// the same arrival stream.
  TracedPhase MeasureTraced(double seconds) override {
    TracedPhase out;
    tracer_->set_recording(false);
    const Phase plain = Measure(seconds / 2);
    tracer_->set_recording(true);
    out.phase = Measure(seconds / 2);
    tracer_->set_recording(false);
    out.overhead = Ratio(out.phase.p50, plain.p50) - 1.0;
    out.phase.attempted += plain.attempted;
    out.phase.failed += plain.failed;
    return out;
  }

  void Layers(const TraceSummary& t, LayerValues* out) const override {
    const int64_t jobs = jobs_;
    const double j = static_cast<double>(std::max<int64_t>(jobs, 1));
    int64_t statements = 0, scratch = 0;
    for (serve::JobKind kind : {serve::JobKind::kRead, serve::JobKind::kWrite,
                                serve::JobKind::kWhale}) {
      serve::JobSpec job;
      job.kind = kind;
      const Program& prog = *catalog_->Bind(job, 0).program;
      statements += static_cast<int64_t>(prog.statements().size());
      for (const ArrayInfo& a : prog.arrays()) {
        if (!a.persistent) ++scratch;
      }
    }
    out->Set("lowering.statements", statements, 1);
    out->Set("lowering.scratch_arrays", scratch, 1);

    const RuntimeStats& rs = runtime_;
    out->Set("exec.busy_s", rs.wall_seconds / j, jobs);
    out->Set("exec.compute_s", rs.compute_seconds / j, jobs);
    out->Set("exec.block_reads", rs.block_reads / j, jobs);
    out->Set("exec.block_writes", rs.block_writes / j, jobs);
    out->Set("exec.prefetch_hits", rs.prefetch_hits / j, jobs);
    out->Set("exec.policy_saved_reads", rs.policy_saved_reads / j, jobs);

    out->Set("disk.read_mb", read_bytes_ / 1e6 / j, jobs);
    out->Set("disk.write_mb", write_bytes_ / 1e6 / j, jobs);
    TraceLayers(t, jobs, out);

    // Pool-global counters of the server's shared pool.
    const BufferPoolStats& pool = rs.pool;
    out->Set("pool.hits", pool.hits / j, jobs);
    out->Set("pool.misses", pool.misses / j, jobs);
    out->Set("pool.hit_ratio",
             Ratio(static_cast<double>(pool.hits),
                   static_cast<double>(pool.hits + pool.misses)),
             jobs);
    out->Set("pool.evictions", pool.evictions / j, jobs);
    out->Set("pool.prefetch_issued", pool.prefetch_issued / j, jobs);
    out->Set("pool.prefetch_useful_ratio",
             Ratio(static_cast<double>(rs.prefetch_hits),
                   static_cast<double>(pool.prefetch_issued)),
             jobs);
    out->Set("pool.writeback_stall_s", pool.writeback_stall_seconds / j,
             jobs);
    out->Set("pool.coalesced_loads", pool.coalesced_loads / j, jobs);

    const int64_t done = snap_.completed;
    out->Set("sessions.parked", rs.sessions_parked / j, jobs);
    out->Set("sessions.admission_wait_p99_s",
             HistQuantile(snap_.admission_wait, 0.99),
             snap_.admission_wait.count());
    out->Set("sessions.admission_wait_mean_s",
             Ratio(rs.admission_wait_seconds, static_cast<double>(done)),
             done);
    out->Set("sessions.peak_concurrent", rs.peak_concurrent_sessions, jobs);
    out->Set("sessions.peak_reserved_mb", rs.peak_reserved_bytes / 1e6, jobs);
    out->Set("sessions.budget_parks", rs.session_parks / j, jobs);

    out->Set("serve.queue_wait_p99_s", HistQuantile(snap_.queue_wait, 0.99),
             snap_.queue_wait.count());
    out->Set("serve.exec_wall_p50_s", HistQuantile(snap_.exec_wall, 0.50),
             snap_.exec_wall.count());
    out->Set("serve.whale_p99_s", HistQuantile(snap_.latency_whales, 0.99),
             snap_.latency_whales.count());
    out->Set("serve.job_p99_s", HistQuantile(snap_.latency, 0.99),
             snap_.latency.count());
    out->Set("serve.mouse_p99_s", HistQuantile(snap_.latency_mice, 0.99),
             snap_.latency_mice.count());
    const int64_t sent = static_cast<int64_t>(late_.size());
    out->Set("loadgen.late_p99_s", Percentile(late_, 0.99), sent);
    out->Set("loadgen.late_max_s",
             late_.empty() ? 0.0
                           : *std::max_element(late_.begin(), late_.end()),
             sent);
  }

 private:
  serve::ServerOptions Options() const {
    serve::ServerOptions so;
    so.worker_threads = kLoadThreads;
    // One and a half whale footprints: concurrent jobs outgrow it and park
    // (FIFO admission, LRU replacement).
    const int64_t whale = catalog_->footprint_bytes(serve::JobKind::kWhale);
    so.runtime.pool_cap_bytes = whale + whale / 2;
    return so;
  }

  /// The phase's arrivals: a Poisson stream at kServeRate from the
  /// library's YCSB-style generator, with Zipf(0.99) dataset popularity.
  /// The stream is conditioned on exactly rate x seconds arrivals in the
  /// window (uniform order statistics, rescaled from the generator's own
  /// draws), and every (class, dataset) pair comes in its expected number,
  /// rounded by largest remainder, in shuffled order: the seed changes the
  /// order and the arrival times, never the mix.
  std::vector<serve::JobSpec> Stream(double seconds) const {
    const int64_t n = std::max<int64_t>(1, std::llround(kServeRate * seconds));
    serve::TrafficOptions traffic;
    traffic.offered_jobs_per_sec = kServeRate;
    traffic.seed = seed_;
    serve::OpenLoopGenerator gen(traffic);
    std::vector<serve::JobSpec> jobs = gen.Take(n + 1);
    const double stretch = seconds / jobs.back().arrival_seconds;
    jobs.pop_back();
    for (serve::JobSpec& job : jobs) job.arrival_seconds *= stretch;

    struct Cell {
      serve::JobKind kind;
      int dataset;
      double expected;
    };
    const int datasets = catalog_->num_datasets();
    double zeta = 0;
    for (int d = 0; d < datasets; ++d) zeta += std::pow(d + 1.0, -kZipfTheta);
    const std::pair<serve::JobKind, double> classes[] = {
        {serve::JobKind::kWhale, kWhaleFraction},
        {serve::JobKind::kWrite, (1 - kWhaleFraction) * kWriteFraction},
        {serve::JobKind::kRead, (1 - kWhaleFraction) * (1 - kWriteFraction)}};
    std::vector<Cell> cells;
    for (const auto& [kind, share] : classes) {
      for (int d = 0; d < datasets; ++d) {
        cells.push_back({kind, d,
                         static_cast<double>(n) * share *
                             std::pow(d + 1.0, -kZipfTheta) / zeta});
      }
    }
    std::vector<Cell> mix;
    for (const Cell& c : cells) {
      mix.insert(mix.end(), static_cast<size_t>(c.expected), c);
    }
    std::stable_sort(cells.begin(), cells.end(),
                     [](const Cell& a, const Cell& b) {
                       return a.expected - std::floor(a.expected) >
                              b.expected - std::floor(b.expected);
                     });
    for (size_t i = 0; static_cast<int64_t>(mix.size()) < n; ++i) {
      mix.push_back(cells[i]);
    }
    serve::Rng rng(seed_ ^ 0x5eed5eedULL);
    for (size_t i = mix.size(); i > 1; --i) {
      std::swap(mix[i - 1], mix[rng.Next() % i]);
    }
    for (size_t i = 0; i < jobs.size(); ++i) {
      jobs[i].kind = mix[i].kind;
      jobs[i].dataset = mix[i].dataset;
    }
    return jobs;
  }

  /// Serves one job of each class on the hottest and the coldest dataset
  /// through a one-worker Server (so on slot 0), and checks each output
  /// bit for bit against the serial engine run on the same inputs into
  /// an idle slot's stores. Returns {jobs checked, jobs wrong}.
  std::pair<int64_t, int64_t> CheckOutputs() {
    const int ref_slot = catalog_->num_slots() - 1;
    int64_t checked = 0, wrong = 0;
    serve::ServerOptions one = Options();
    one.worker_threads = 1;
    for (serve::JobKind kind : {serve::JobKind::kRead, serve::JobKind::kWrite,
                                serve::JobKind::kWhale}) {
      for (int dataset : {0, catalog_->num_datasets() - 1}) {
        serve::JobSpec job;
        job.kind = kind;
        job.dataset = dataset;
        {
          serve::Server server(catalog_.get(), one);
          server.Submit(job);
          server.Drain();
          if (server.Snapshot().completed != 1) {
            ++checked;
            ++wrong;
            continue;
          }
        }
        const SessionSpec served = catalog_->Bind(job, 0);
        const SessionSpec ref = catalog_->Bind(job, ref_slot);
        Executor ex(*ref.program, ref.stores, *ref.kernels);
        Status st = ex.Run(*ref.schedule, ref.realized).status();
        for (size_t a = 0; st.ok() && a < ref.stores.size(); ++a) {
          const ArrayInfo& info = ref.program->array(static_cast<int>(a));
          // Slot-private persistent arrays are the outputs.
          if (ref.stores[a] == served.stores[a] || !info.persistent) continue;
          st = VerifyBitEqual(info, ref.stores[a], served.stores[a]);
        }
        ++checked;
        if (!st.ok()) {
          ++wrong;
          std::fprintf(stderr, "serve check: %s\n", st.ToString().c_str());
        }
      }
    }
    return {checked, wrong};
  }

  const uint64_t seed_;
  Tracer* const tracer_;
  std::unique_ptr<Env> mem_env_;
  std::unique_ptr<Env> disk_env_;
  std::unique_ptr<Env> timed_env_;
  Env* env_ = nullptr;
  std::unique_ptr<serve::Catalog> catalog_;

  // The last Measure().
  serve::MetricsSnapshot snap_;
  RuntimeStats runtime_;
  std::vector<double> late_;
  int64_t jobs_ = 0;
  int64_t read_bytes_ = 0, write_bytes_ = 0;
};

// ------------------------------------------------------------------- main

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 40;
  bool trace = false;
  std::string out_dir = ".bench_out";
  bool selftest = false;
};

const char* const kWorkloads[] = {"plan_search", "paper_io", "compute_mem",
                                  "serve_zipf"};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      a->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a->seconds > 0) || a->seconds > 600) return false;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (flag == "--out") {
      a->out_dir = v;
    } else {
      return false;
    }
  }
  if (a->selftest) return true;
  for (const char* w : kWorkloads) {
    if (a->workload == w) return true;
  }
  return false;
}

std::unique_ptr<Bench> MakeBench(const Args& a, Tracer* tracer) {
  if (a.workload == "serve_zipf") {
    return std::make_unique<ServeBench>(a.seed, tracer);
  }
  BatchConfig cfg = a.workload == "plan_search" ? PlanSearchConfig()
                    : a.workload == "paper_io"  ? PaperIoConfig()
                                                : ComputeMemConfig();
  const std::string data_dir = a.out_dir + "/data_" + a.workload + "_" +
                               std::to_string(static_cast<long>(getpid()));
  return std::make_unique<BatchBench>(std::move(cfg), a.seed, data_dir,
                                      tracer);
}

int RunUntraced(const Args& a) {
  auto bench = MakeBench(a, nullptr);
  bench->Compile();
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto t0 = Clock::now();
    bench->Setup();
    setups.push_back(SecondsSince(t0));
  }
  bench->Warmup();
  const Phase ph = bench->Measure(a.seconds);

  Report r;
  r.Add("setup_s", Median(setups), "s", kSetupRepeats);
  r.Add("jobs_per_s", ph.jobs_per_s, "jobs/s", ph.samples);
  r.Add("job_p50_s", ph.p50, "s", ph.samples);
  r.Add("job_p90_s", ph.p90, "s", ph.samples);
  r.Add("disk_mb_per_job", ph.disk_bytes_per_job / 1e6, "MB", ph.samples);
  r.Add("max_rss_mb", MaxRssMb(), "MB", 1);
  r.Print(a.workload, ph.failed == 0, ph.attempted, ph.failed);
  return 0;
}

int RunTraced(const Args& a) {
  Tracer tracer;
  auto bench = MakeBench(a, &tracer);
  tracer.set_recording(true);
  bench->Compile();
  bench->Setup();
  tracer.set_recording(false);
  bench->Warmup();
  const TracedPhase run = bench->MeasureTraced(a.seconds);

  const std::vector<Span> spans = tracer.spans();
  const TraceSummary summary = Summarize(spans);
  LayerValues values;
  bench->Layers(summary, &values);
  values.Set("trace.overhead_frac", run.overhead, run.phase.samples);
  Report r;
  values.Emit(&r);

  std::error_code ec;
  std::filesystem::create_directories(a.out_dir, ec);
  const std::string path = a.out_dir + "/trace_" + a.workload + ".json";
  if (!WriteChromeTrace(path, spans)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %zu spans to %s (%lld dropped)\n", spans.size(),
               path.c_str(), static_cast<long long>(tracer.dropped()));
  r.Print(a.workload, run.phase.failed == 0, run.phase.attempted,
          run.phase.failed);
  return 0;
}

// --------------------------------------------------------------- selftest

bool Near(double a, double b) { return std::abs(a - b) < 1e-9; }

int SelfTest() {
  int bad = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "selftest FAILED: %s\n", what);
      ++bad;
    }
  };
  auto span = [](int64_t id, int64_t parent, Layer l, double s, double e) {
    Span x;
    x.id = id;
    x.parent = parent;
    x.job = 0;
    x.layer = l;
    x.start = s;
    x.end = e;
    return x;
  };
  // job [0,10] > exec [1,9] > kernels [2,4] and [3,5] (overlapping) and a
  // disk read [4,7]; a second disk read [8,12] runs past exec's end.
  std::vector<Span> spans = {
      span(0, -1, Layer::kJob, 0, 10),      span(1, 0, Layer::kExec, 1, 9),
      span(2, 1, Layer::kKernel, 2, 4),     span(3, 1, Layer::kKernel, 3, 5),
      span(4, 1, Layer::kDiskRead, 4, 7),   span(5, 1, Layer::kDiskRead, 8, 12),
      span(6, 0, Layer::kLowering, 9.5, 10)};
  const std::vector<const Span*> exec_children = {&spans[2], &spans[3],
                                                  &spans[4], &spans[5]};
  const Coverage c = CoverageOf(spans[1], exec_children);
  // Children cover [2,7] and [8,9] of exec's [1,9]: self = 1 + 1.
  expect(Near(c.self, 2), "exec self time is its span minus the union");
  expect(Near(c.kernel_only, 2), "kernel-only time [2,4]");
  expect(Near(c.both, 1), "kernel and disk together [4,5]");
  expect(Near(c.disk_only, 3), "disk-only time [5,7] and [8,9]");

  const TraceSummary t = Summarize(spans);
  // The job's direct children are exec [1,9] and lowering [9.5,10].
  expect(Near(t.of(Layer::kJob).job_self, 1.5), "job residual");
  expect(Near(t.of(Layer::kKernel).job_busy, 4), "kernel busy sums overlap");
  double total = 0;
  for (size_t l = 0; l < kNumLayers; ++l) {
    total += t.Share(static_cast<Layer>(l));
  }
  expect(Near(total, 1), "shares sum to one");
  // Self times: job 1.5, exec 2, kernels 2 + 2, disk 3 + 4, lowering 0.5.
  expect(Near(t.job_self_total, 15), "total self time");
  expect(Near(t.Share(Layer::kDiskRead), 7.0 / 15), "disk share");

  // Interpolated histogram quantiles stay inside the bucket and move with
  // the samples, where the raw bucket bound does not.
  serve::LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.Record(0.0100 + 0.0001 * (i % 5));
  const double q = HistQuantile(h, 0.5);
  expect(q > h.Quantile(0.5) / std::pow(10.0, 1.0 / 25) &&
             q <= h.Quantile(0.5),
         "interpolated quantile lies in its bucket");
  serve::LatencyHistogram h2 = h;
  for (int i = 0; i < 20; ++i) h2.Record(0.0101);
  expect(HistQuantile(h2, 0.5) != q, "interpolated quantile moves");
  expect(Near(Percentile({1, 2, 3, 4}, 0.5), 2.5), "percentile interpolates");

  std::printf("selftest %s\n", bad == 0 ? "passed" : "FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace riot

int main(int argc, char** argv) {
  using namespace riot::perfbench;
  // A fixed mmap threshold (glibc's initial one) turns off glibc's sliding
  // threshold, whose history made paper_io's peak RSS vary by 30% from run
  // to run; large blocks then come from mmap and leave on free, so
  // max_rss_mb follows the blocks actually held.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: bench_workloads --workload "
                 "plan_search|paper_io|compute_mem|serve_zipf --seed N "
                 "--seconds S --trace 0|1 [--out DIR]\n"
                 "       bench_workloads --selftest\n");
    return 2;
  }
  if (a.selftest) return SelfTest();
  return a.trace ? RunTraced(a) : RunUntraced(a);
}
