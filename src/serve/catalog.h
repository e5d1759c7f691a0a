// The serving catalog: the datasets and job templates behind the traffic
// the open-loop generator emits. Three expression-built templates run
// against Zipf-popular datasets:
//
//   * read mouse  — r = SumSquares(X + Y): scans the dataset, writes one
//                   tiny result row (read-heavy OLAP probe),
//   * write mouse — W = X + Y: materializes a full-size derived array
//                   (write-heavy),
//   * whale       — E = (XW + YW) ZW over much larger arrays: the
//                   heavyweight analytical job whose footprint and
//                   runtime dwarf the mice (the head-of-line hazard).
//
// Dataset *inputs* are opened once and shared by every concurrent job —
// the hot-array sharing (cross-session frame dedup, budget transfer) the
// serving layer exists to exercise. Outputs and scratch temporaries are
// private per worker slot (slot s reuses its output stores across jobs),
// so concurrent identical jobs never write one buffer — results are
// throwaway, isolation is what matters.
//
// Every template runs its optimizer-chosen plan. Create runs Optimize once
// per template, capped at the original schedule's predicted peak, so the
// bound plan is the cheapest one (by the catalog's cost model) that fits
// the footprint the original schedule has: it shares blocks the original
// re-reads and re-writes, and never asks admission for more memory. The
// searches run on their own threads while the stores are opened and the
// inputs written. Footprint and expected work come from the bound plan,
// computed once and stamped onto every SessionSpec, so admission decisions
// cost nothing per job.
//
// Every bound job runs the I/O pipeline (pipeline_depth 2): the session
// prefetches its plan's upcoming reads into the runtime's unreserved
// headroom and writes its outputs behind its kernels on the runtime's
// shared I/O workers (the first write of a fresh output block stays
// synchronous: it extends the file). Outputs are bit-identical to the
// depth-0 serial engine's; what moves is how long a job holds its slot.
#ifndef RIOTSHARE_SERVE_CATALOG_H_
#define RIOTSHARE_SERVE_CATALOG_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/cost_model.h"
#include "core/optimizer.h"
#include "ops/runtime.h"
#include "ops/session_runtime.h"
#include "ops/workload.h"
#include "serve/workload_gen.h"
#include "storage/env.h"
#include "util/status.h"

namespace riot {
namespace serve {

struct CatalogOptions {
  int num_datasets = 4;
  /// Independent worker slots (>= the server's worker threads): slot s
  /// owns the non-input stores job s-of-the-moment writes.
  int num_slots = 4;
  /// Mouse arrays: mouse_grid x mouse_grid blocks of mouse_block^2 doubles.
  int64_t mouse_grid = 2;
  int64_t mouse_block = 64;
  /// Whale arrays, same shape parameters.
  int64_t whale_grid = 4;
  int64_t whale_block = 128;
  uint64_t seed = 7;
  /// Prices the templates' footprints and expected work (pass the rates of
  /// the env the server runs against so shortest-work ranks realistically).
  CostModelOptions cost;
};

class Catalog {
 public:
  /// Opens and initializes every store under `env` (not owned; must
  /// outlive the catalog) and binds each template to its plan. Paths are
  /// prefixed "/serve". kInvalidArgument when num_datasets or num_slots is
  /// not positive.
  static Result<std::unique_ptr<Catalog>> Create(Env* env,
                                                 const CatalogOptions& opts);

  /// True when `job` names a template and a dataset of this catalog.
  bool Serves(const JobSpec& job) const;

  /// The ready-to-run spec for `job` executing on worker `slot`: the
  /// template's bound plan at pipeline_depth 2 (other ExecOptions at their
  /// defaults). Requires Serves(job) and 0 <= slot < num_slots() (CHECKed).
  /// The returned spec's pointers reference catalog-owned state; they are
  /// valid for the catalog's lifetime. Concurrent Bind calls are safe;
  /// two concurrent jobs may share a slot's stores only if they share the
  /// slot (the server pins one slot per worker).
  SessionSpec Bind(const JobSpec& job, int slot) const;

  /// The bound plan's peak memory (never above the original schedule's)
  /// and modeled seconds.
  int64_t footprint_bytes(JobKind kind) const;
  double expected_work_seconds(JobKind kind) const;
  /// The template's plan search: plans[0] is the original schedule,
  /// best() the bound plan.
  const OptimizationResult& plan_search(JobKind kind) const;
  int num_datasets() const { return opts_.num_datasets; }
  int num_slots() const { return opts_.num_slots; }

  /// Drops every catalog store's cached frames from `rt`'s shared pool.
  /// Call after draining the server and before destroying the catalog if
  /// the runtime outlives it.
  Status ReleaseFrom(SessionRuntime& rt) const;

 private:
  /// One template: the lowered workload, its plan search and bound plan,
  /// plus per-dataset shared input stores and per-slot private non-input
  /// stores.
  struct Template {
    Workload workload;
    OptimizationResult search;              // best() is the bound plan
    std::vector<const CoAccess*> realized;  // its Q, into search.analysis
    std::vector<bool> is_input;        // by array id
    std::vector<Runtime> by_dataset;   // inputs used; one per dataset
    std::vector<Runtime> by_slot;      // non-inputs used; one per slot
  };

  Catalog() = default;
  const Template& TemplateFor(JobKind kind) const;

  CatalogOptions opts_;
  Template read_, write_, whale_;
};

}  // namespace serve
}  // namespace riot

#endif  // RIOTSHARE_SERVE_CATALOG_H_
