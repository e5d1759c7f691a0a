// Shared benchmark harness: optimizes a workload at paper scale, executes
// selected plans at a reduced scale on real files, and prints paper-style
// tables (predicted vs measured, paper-reported numbers alongside).
#ifndef RIOTSHARE_BENCH_BENCH_COMMON_H_
#define RIOTSHARE_BENCH_BENCH_COMMON_H_

#include <functional>
#include <string>
#include <vector>

#include "core/optimizer.h"
#include "exec/executor.h"
#include "ops/runtime.h"
#include "ops/workload.h"
#include "storage/env.h"

namespace riot {
namespace bench {

/// Execution scale (paper block dims divided by this); RIOT_SCALE overrides.
int64_t ExecScale(int64_t def = 40);

/// Paper disk model: sustained 96 MB/s read, 60 MB/s write (Section 6).
constexpr double kPaperReadMBps = 96.0;
constexpr double kPaperWriteMBps = 60.0;
/// Per-request overhead of the paper disk model (perfbench's paper_io).
constexpr double kPaperRequestMs = 0.05;

struct PlanRun {
  std::string label;
  PlanCost predicted;       // at paper scale
  ExecStats measured;       // at execution scale
  double measured_model_s;  // measured bytes converted at paper disk rates
  double scale_factor;      // paper bytes / scaled bytes (for comparison)
  int64_t cap_bytes = 0;    // memory cap the run executed under
};

/// \brief Machine-readable benchmark trajectory: `--json <path>` on a bench
/// binary collects every run (plan-table runs, thread sweeps, and
/// replacement-policy sweeps) into one JSON file — {"bench": ..., "runs":
/// [{plan, kind, threads, pipeline_depth, policy, cap_bytes, wall_seconds,
/// io_seconds, compute_seconds, overlap_seconds, compute_overlap_seconds,
/// bytes_read, bytes_written, block_reads, block_writes, evictions,
/// policy_saved_reads, prefetch_hits, prefetch_wasted, prefetch_issued,
/// prefetch_declined, parallel_groups, max_ready_width}, ...]} — so
/// scripts/bench_json.sh can track wall/overlap/utilization and the
/// LRU-vs-OPT read gap across commits without parsing tables.
class BenchJson {
 public:
  /// Parses `--json <path>` out of argv; inactive (all calls no-ops) when
  /// the flag is absent.
  BenchJson(std::string bench_name, int argc, char** argv);

  /// `policy`/`cap_bytes` identify a replacement-policy sweep point; leave
  /// defaulted for runs where they do not apply.
  void Add(const std::string& plan, const std::string& kind, int threads,
           int pipeline_depth, const ExecStats& stats,
           const std::string& policy = "", int64_t cap_bytes = 0);
  /// Writes the file; prints the path. No-op when inactive.
  void Flush();

  bool active() const { return !path_.empty(); }

 private:
  struct Entry {
    std::string plan, kind;
    int threads, depth;
    std::string policy;
    int64_t cap_bytes;
    ExecStats stats;
  };
  std::string bench_;
  std::string path_;
  std::vector<Entry> entries_;
};

/// \brief Executes the workload's original schedule at {1, 2, 4} kernel
/// threads x {0, 2} pipeline depth against an in-memory Env (unthrottled,
/// compute-bound), verifies every configuration's outputs are bit-for-bit
/// equal to the serial run, prints a utilization table (wall, io, cpu,
/// overlap, DAG width), and records each point into `json` when provided.
void RunThreadSweep(const std::string& name,
                    const std::function<Workload(int64_t)>& factory,
                    BenchJson* json);

class Harness {
 public:
  /// `factory(scale)` builds the workload at the given scale; plans run at
  /// `exec_scale`.
  Harness(std::string name, std::function<Workload(int64_t)> factory,
          int64_t exec_scale = ExecScale());
  ~Harness();

  /// Runs later plans on the paper's disk instead of real files: a
  /// ThrottledEnv over memory at kPaperReadMBps/kPaperWriteMBps plus
  /// kPaperRequestMs per request, slept for real. Requests overlap, as on
  /// a disk that serves several at once.
  void UsePaperDisk();

  /// Runs the optimizer on the paper-scale program.
  const OptimizationResult& Optimize(const OptimizerOptions& opts = {});

  /// Executes the plan with the given index (into Optimize()'s plan list)
  /// at execution scale against real files, at `pipeline_depth` under a cap
  /// of `cap_factor` times the plan's predicted peak; checks the measured
  /// I/O and peak against the cost model.
  PlanRun RunPlan(int plan_index, const std::string& label,
                  int pipeline_depth = 0, double cap_factor = 1.0);

  /// Index of the plan whose set is exactly the opportunities `labels`
  /// name. The search returns only the plans it needs, so a set it did not
  /// return is appended with FindSchedule's schedule for it. -1 when a
  /// label is unknown or no schedule realizes the set.
  int PlanFor(const std::vector<std::string>& labels);
  /// Appends a plan of the paper-scale program; returns its index.
  int AddPlan(Plan plan);

  const OptimizationResult& result() const { return result_; }
  const Workload& paper_workload() const { return paper_; }
  Workload& scaled_workload() { return scaled_; }

  /// Formats a table of plan runs.
  static void PrintRuns(const std::vector<PlanRun>& runs);
  void PrintPlanSpace(size_t max_rows = 64) const;

 private:
  std::string name_;
  std::string dir_;
  std::function<Workload(int64_t)> factory_;
  Workload paper_;
  Workload scaled_;
  OptimizationResult result_;
  bool optimized_ = false;
  std::unique_ptr<Env> base_env_;  // under env_ after UsePaperDisk()
  std::unique_ptr<Env> env_;
  // Reference outputs from the original plan at execution scale.
  bool have_reference_ = false;
};

}  // namespace bench
}  // namespace riot

#endif  // RIOTSHARE_BENCH_BENCH_COMMON_H_
