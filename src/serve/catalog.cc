#include "serve/catalog.h"

#include <string>
#include <utility>

#include "util/logging.h"

namespace riot {
namespace serve {
namespace {

// r = SumSquares(X + Y): reads the whole dataset, emits one {1, grid}
// row of column sums — all read, almost no write.
Workload MakeReadMouse(int64_t grid, int64_t block) {
  ExprGraph g;
  ExprRef x = g.Input("X", {grid, grid}, {block, block});
  ExprRef y = g.Input("Y", {grid, grid}, {block, block});
  ExprRef r = g.SumSquares(g.Add(x, y));
  g.SetName(r, "R");
  return FromExpr("serve_read", g, {r});
}

// W = X + Y: every input block read, a full-size output written back.
Workload MakeWriteMouse(int64_t grid, int64_t block) {
  ExprGraph g;
  ExprRef x = g.Input("X", {grid, grid}, {block, block});
  ExprRef y = g.Input("Y", {grid, grid}, {block, block});
  ExprRef w = g.Add(x, y);
  g.SetName(w, "W");
  return FromExpr("serve_write", g, {w});
}

// E = (XW + YW) ZW over much larger arrays: the contraction revisits
// blocks grid-many times, so both footprint and runtime dwarf the mice.
Workload MakeWhale(int64_t grid, int64_t block) {
  ExprGraph g;
  ExprRef x = g.Input("XW", {grid, grid}, {block, block});
  ExprRef y = g.Input("YW", {grid, grid}, {block, block});
  ExprRef z = g.Input("ZW", {grid, grid}, {block, block});
  ExprRef e = g.Gemm(g.Add(x, y), z);
  g.SetName(e, "E");
  return FromExpr("serve_whale", g, {e});
}

}  // namespace

Result<std::unique_ptr<Catalog>> Catalog::Create(Env* env,
                                                 const CatalogOptions& opts) {
  RIOT_CHECK_GT(opts.num_datasets, 0);
  RIOT_CHECK_GT(opts.num_slots, 0);
  auto catalog = std::unique_ptr<Catalog>(new Catalog());
  catalog->opts_ = opts;

  struct Build {
    Template* tmpl;
    Workload workload;
    const char* dir;
  };
  Build builds[] = {
      {&catalog->read_, MakeReadMouse(opts.mouse_grid, opts.mouse_block),
       "read"},
      {&catalog->write_, MakeWriteMouse(opts.mouse_grid, opts.mouse_block),
       "write"},
      {&catalog->whale_, MakeWhale(opts.whale_grid, opts.whale_block),
       "whale"},
  };
  for (Build& b : builds) {
    Template& t = *b.tmpl;
    t.workload = std::move(b.workload);
    RIOT_RETURN_NOT_OK(t.workload.program.Validate());

    const PlanCost cost =
        EvaluatePlanCost(t.workload.program,
                         t.workload.program.original_schedule(), {}, opts.cost);
    t.footprint_bytes = cost.peak_memory_bytes;
    t.expected_work_seconds = cost.TotalSeconds();

    t.is_input.assign(t.workload.program.arrays().size(), false);
    for (int arr : t.workload.input_arrays) {
      t.is_input[static_cast<size_t>(arr)] = true;
    }

    const std::string prefix = std::string("/serve/") + b.dir;
    for (int d = 0; d < opts.num_datasets; ++d) {
      RIOT_ASSIGN_OR_RETURN(
          Runtime rt, OpenStores(env, t.workload.program,
                                 prefix + "/d" + std::to_string(d)));
      RIOT_RETURN_NOT_OK(InitInputs(t.workload, rt,
                                      opts.seed + static_cast<uint64_t>(d)));
      t.by_dataset.push_back(std::move(rt));
    }
    for (int s = 0; s < opts.num_slots; ++s) {
      RIOT_ASSIGN_OR_RETURN(
          Runtime rt, OpenStores(env, t.workload.program,
                                 prefix + "/s" + std::to_string(s)));
      t.by_slot.push_back(std::move(rt));
    }
  }
  return catalog;
}

const Catalog::Template& Catalog::TemplateFor(JobKind kind) const {
  switch (kind) {
    case JobKind::kRead:
      return read_;
    case JobKind::kWrite:
      return write_;
    case JobKind::kWhale:
      return whale_;
  }
  RIOT_CHECK(false) << "unknown JobKind";
  return read_;
}

SessionSpec Catalog::Bind(const JobSpec& job, int slot) const {
  const Template& t = TemplateFor(job.kind);
  RIOT_CHECK(job.dataset >= 0 && job.dataset < opts_.num_datasets)
      << "job dataset out of range";
  RIOT_CHECK(slot >= 0 && slot < opts_.num_slots) << "slot out of range";
  const Runtime& inputs = t.by_dataset[static_cast<size_t>(job.dataset)];
  const Runtime& scratch = t.by_slot[static_cast<size_t>(slot)];

  SessionSpec spec;
  spec.program = &t.workload.program;
  spec.schedule = &t.workload.program.original_schedule();
  spec.kernels = &t.workload.kernels;
  spec.stores.resize(t.is_input.size());
  for (size_t a = 0; a < t.is_input.size(); ++a) {
    spec.stores[a] =
        (t.is_input[a] ? inputs : scratch).stores[a].get();
  }
  spec.footprint_bytes = t.footprint_bytes;
  spec.expected_work_seconds = t.expected_work_seconds;
  // The I/O pipeline at paper_io's depth: prefetch into the runtime's
  // headroom and write-behind on its shared workers.
  spec.exec.pipeline_depth = 2;
  return spec;
}

int64_t Catalog::footprint_bytes(JobKind kind) const {
  return TemplateFor(kind).footprint_bytes;
}

double Catalog::expected_work_seconds(JobKind kind) const {
  return TemplateFor(kind).expected_work_seconds;
}

Status Catalog::ReleaseFrom(SessionRuntime& rt) const {
  for (const Template* t : {&read_, &write_, &whale_}) {
    for (const Runtime& r : t->by_dataset) {
      for (const auto& store : r.stores) {
        RIOT_RETURN_NOT_OK(rt.ReleaseStore(store.get()));
      }
    }
    for (const Runtime& r : t->by_slot) {
      for (const auto& store : r.stores) {
        RIOT_RETURN_NOT_OK(rt.ReleaseStore(store.get()));
      }
    }
  }
  return Status::OK();
}

}  // namespace serve
}  // namespace riot
