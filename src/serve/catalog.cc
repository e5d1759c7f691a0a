#include "serve/catalog.h"

#include <string>
#include <thread>
#include <utility>
#include <vector>

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

// The plan search of one template: the cheapest plan by `cost` whose peak
// fits the original schedule's, so binding it never asks admission for
// more memory than the original schedule would.
OptimizationResult SearchPlans(const Program& program,
                               const CostModelOptions& cost) {
  OptimizerOptions o;
  o.cost = cost;
  o.memory_cap_bytes =
      EvaluatePlanCost(program, program.original_schedule(), {}, cost)
          .peak_memory_bytes;
  return Optimize(program, o);
}

// Joins its threads when it goes out of scope, so no return path destroys
// a joinable std::thread (which would call std::terminate).
struct JoinOnExit {
  std::vector<std::thread> threads;

  ~JoinOnExit() { Join(); }
  void Join() {
    for (std::thread& t : threads) t.join();
    threads.clear();
  }
};

}  // namespace

Result<std::unique_ptr<Catalog>> Catalog::Create(Env* env,
                                                 const CatalogOptions& opts) {
  if (opts.num_datasets <= 0 || opts.num_slots <= 0) {
    return Status::InvalidArgument(
        "catalog needs a positive num_datasets and num_slots");
  }
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
    b.tmpl->workload = std::move(b.workload);
    RIOT_RETURN_NOT_OK(b.tmpl->workload.program.Validate());
  }

  // The searches are CPU work and set-up is disk work: run them side by
  // side. Declared after `catalog`, so the searches writing into its
  // templates are joined before it can be destroyed on an error return.
  JoinOnExit searches;
  for (Build& b : builds) {
    Template* t = b.tmpl;
    searches.threads.emplace_back([t, &opts] {
      t->search = SearchPlans(t->workload.program, opts.cost);
    });
  }

  for (Build& b : builds) {
    Template& t = *b.tmpl;
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

  searches.Join();
  for (Build& b : builds) {
    Template& t = *b.tmpl;
    for (int oi : t.search.best().opportunities) {
      t.realized.push_back(
          &t.search.analysis.sharing[static_cast<size_t>(oi)]);
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

bool Catalog::Serves(const JobSpec& job) const {
  switch (job.kind) {
    case JobKind::kRead:
    case JobKind::kWrite:
    case JobKind::kWhale:
      return job.dataset >= 0 && job.dataset < opts_.num_datasets;
  }
  return false;
}

SessionSpec Catalog::Bind(const JobSpec& job, int slot) const {
  RIOT_CHECK(Serves(job)) << "job kind or dataset out of range";
  const Template& t = TemplateFor(job.kind);
  RIOT_CHECK(slot >= 0 && slot < opts_.num_slots) << "slot out of range";
  const Runtime& inputs = t.by_dataset[static_cast<size_t>(job.dataset)];
  const Runtime& scratch = t.by_slot[static_cast<size_t>(slot)];

  SessionSpec spec;
  spec.program = &t.workload.program;
  const Plan& plan = t.search.best();
  spec.schedule = &plan.schedule;
  spec.realized = t.realized;
  spec.kernels = &t.workload.kernels;
  spec.stores.resize(t.is_input.size());
  for (size_t a = 0; a < t.is_input.size(); ++a) {
    spec.stores[a] =
        (t.is_input[a] ? inputs : scratch).stores[a].get();
  }
  spec.footprint_bytes = plan.cost.peak_memory_bytes;
  spec.expected_work_seconds = plan.cost.TotalSeconds();
  // The I/O pipeline at paper_io's depth: prefetch into the runtime's
  // headroom and write-behind on its shared workers.
  spec.exec.pipeline_depth = 2;
  return spec;
}

int64_t Catalog::footprint_bytes(JobKind kind) const {
  return TemplateFor(kind).search.best().cost.peak_memory_bytes;
}

double Catalog::expected_work_seconds(JobKind kind) const {
  return TemplateFor(kind).search.best().cost.TotalSeconds();
}

const OptimizationResult& Catalog::plan_search(JobKind kind) const {
  return TemplateFor(kind).search;
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
