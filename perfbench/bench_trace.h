// Bench-side tracing for bench_workloads.cc. Every span is recorded from
// the benchmark's own code, around calls into the library's public seams,
// so the library itself is unchanged:
//   * ScopedSpan     — the client thread's nesting spans (job, lowering,
//                      optimizer, cost_model, exec.run);
//   * TimedEnv/File  — an Env decorator timing every block read and write,
//                      on whichever thread issues it (prefetch workers too);
//   * TimedKernels   — a StatementKernel wrapper timing each kernel call
//                      with its statement id and op kind.
// Spans stay in memory until the run ends. Summarize() turns them into
// per-layer busy and self times, where a span's self time is its duration
// minus the union of its direct children's intervals (children may overlap
// one another: kernel workers, I/O workers). WriteChromeTrace() dumps them
// as Chrome trace events, which load in Perfetto or chrome://tracing.
#ifndef RIOTSHARE_PERFBENCH_BENCH_TRACE_H_
#define RIOTSHARE_PERFBENCH_BENCH_TRACE_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "exec/executor.h"
#include "exec/kernel_synthesis.h"
#include "ops/workload.h"
#include "storage/env.h"

namespace riot {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

enum class Layer : int {
  kJob,
  kLowering,
  kOptimizer,
  kCostModel,
  kExec,
  kKernel,
  kDiskRead,
  kDiskWrite,
  kCount,
};
constexpr size_t kNumLayers = static_cast<size_t>(Layer::kCount);

inline const char* LayerName(Layer l) {
  switch (l) {
    case Layer::kJob: return "job";
    case Layer::kLowering: return "lowering";
    case Layer::kOptimizer: return "optimizer";
    case Layer::kCostModel: return "cost_model";
    case Layer::kExec: return "exec.run";
    case Layer::kKernel: return "kernel";
    case Layer::kDiskRead: return "disk.read";
    case Layer::kDiskWrite: return "disk.write";
    case Layer::kCount: break;
  }
  return "?";
}

struct Span {
  int64_t id = 0;
  int64_t parent = -1;  // -1 = root
  int64_t job = -1;     // -1 = set-up, outside any measured job
  Layer layer = Layer::kJob;
  double start = 0;  // seconds since the tracer's epoch
  double end = 0;
  int tid = 0;
  int stmt = -1;             // kernel spans: statement id
  const char* op = nullptr;  // kernel spans: StatementOp kind name (static)
};

/// \brief In-memory span recorder. Nesting spans are opened only by the one
/// client thread (ScopedSpan); leaf spans may come from any thread and are
/// parented to the innermost span the client thread has open at the time.
class Tracer {
 public:
  explicit Tracer(size_t max_spans = size_t{1} << 20)
      : epoch_(Clock::now()), max_spans_(max_spans) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool recording() const { return recording_.load(std::memory_order_relaxed); }
  void set_recording(bool on) { recording_.store(on); }
  /// Job id stamped on spans recorded from now on (-1 = set-up).
  void set_job(int64_t job) { job_.store(job); }

  double Now() const { return SecondsSince(epoch_); }

  /// Records a finished leaf span; thread-safe.
  void Leaf(Layer layer, double start, double end, int stmt = -1,
            const char* op = nullptr) {
    Span s;
    s.id = next_id_.fetch_add(1);
    s.parent = open_.load();
    s.job = job_.load();
    s.layer = layer;
    s.start = start;
    s.end = end;
    s.tid = ThreadIndex();
    s.stmt = stmt;
    s.op = op;
    Push(s);
  }

  /// Spans recorded so far (a copy), and how many were dropped past the cap.
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }
  int64_t dropped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
  }

 private:
  friend class ScopedSpan;

  static int ThreadIndex() {
    static std::atomic<int> next{0};
    thread_local int index = next.fetch_add(1);
    return index;
  }

  void Push(const Span& s) {
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.size() >= max_spans_) {
      ++dropped_;
      return;
    }
    spans_.push_back(s);
  }

  const Clock::time_point epoch_;
  const size_t max_spans_;
  std::atomic<bool> recording_{false};
  std::atomic<int64_t> job_{-1};
  std::atomic<int64_t> next_id_{0};
  std::atomic<int64_t> open_{-1};  // innermost span open on the client thread
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  int64_t dropped_ = 0;      // guarded by mu_
};

/// \brief A nesting span on the client thread. Inert when `tracer` is null
/// or not recording, so untraced runs pay one branch.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Layer layer)
      : tracer_(tracer != nullptr && tracer->recording() ? tracer : nullptr) {
    if (tracer_ == nullptr) return;
    span_.id = tracer_->next_id_.fetch_add(1);
    span_.parent = tracer_->open_.exchange(span_.id);
    span_.job = tracer_->job_.load();
    span_.layer = layer;
    span_.tid = Tracer::ThreadIndex();
    span_.start = tracer_->Now();
  }
  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    span_.end = tracer_->Now();
    tracer_->open_.store(span_.parent);
    tracer_->Push(span_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* const tracer_;
  Span span_;
};

// ------------------------------------------------------------ disk layer

/// Times every Read/Write of the wrapped file. Counts into the decorating
/// Env's IoStats exactly as the library's Envs do.
class TimedFile : public File {
 public:
  TimedFile(std::unique_ptr<File> base, Tracer* tracer, IoStats* stats)
      : base_(std::move(base)), tracer_(tracer), stats_(stats) {}

  Status Read(uint64_t offset, size_t n, void* buf) override {
    const double t0 = tracer_->Now();
    Status st = base_->Read(offset, n, buf);
    Account(Layer::kDiskRead, t0, st, n);
    return st;
  }
  Status Write(uint64_t offset, size_t n, const void* buf) override {
    const double t0 = tracer_->Now();
    Status st = base_->Write(offset, n, buf);
    Account(Layer::kDiskWrite, t0, st, n);
    return st;
  }
  Result<uint64_t> Size() override { return base_->Size(); }
  Status Sync() override { return base_->Sync(); }

 private:
  void Account(Layer layer, double t0, const Status& st, size_t n) {
    const double t1 = tracer_->Now();
    stats_->AddIoNanos(static_cast<int64_t>((t1 - t0) * 1e9));
    if (!st.ok()) return;
    if (layer == Layer::kDiskRead) {
      stats_->bytes_read += static_cast<int64_t>(n);
      ++stats_->read_ops;
    } else {
      stats_->bytes_written += static_cast<int64_t>(n);
      ++stats_->write_ops;
    }
    if (tracer_->recording()) tracer_->Leaf(layer, t0, t1);
  }

  std::unique_ptr<File> base_;
  Tracer* tracer_;
  IoStats* stats_;
};

/// Env decorator: files opened through it are TimedFiles over `base`'s.
class TimedEnv : public Env {
 public:
  TimedEnv(Env* base, Tracer* tracer) : base_(base), tracer_(tracer) {}

  Result<std::unique_ptr<File>> OpenFile(const std::string& path,
                                         bool create) override {
    auto f = base_->OpenFile(path, create);
    if (!f.ok()) return f.status();
    return std::unique_ptr<File>(
        new TimedFile(std::move(f).ValueOrDie(), tracer_, &stats_));
  }
  Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }

 private:
  Env* base_;
  Tracer* tracer_;
};

// ---------------------------------------------------------- kernel layer

/// The workload's kernels, each wrapped to record a kernel span carrying
/// its statement id and op kind. Empty entries are synthesized first, as
/// the Executor would.
inline std::vector<StatementKernel> TimedKernels(const Workload& w,
                                                 Tracer* tracer) {
  std::vector<StatementKernel> out;
  for (const Statement& st : w.program.statements()) {
    const size_t i = static_cast<size_t>(st.id);
    StatementKernel inner = i < w.kernels.size() && w.kernels[i]
                                ? w.kernels[i]
                                : SynthesizeKernel(*st.op);
    const char* op = st.op ? StatementOpKindName(st.op->kind) : "lambda";
    const int stmt = st.id;
    out.push_back([inner = std::move(inner), tracer, op, stmt](
                      const std::vector<int64_t>& iter,
                      const std::vector<DenseView*>& views) {
      if (!tracer->recording()) {
        inner(iter, views);
        return;
      }
      const double t0 = tracer->Now();
      inner(iter, views);
      tracer->Leaf(Layer::kKernel, t0, tracer->Now(), stmt, op);
    });
  }
  return out;
}

// ------------------------------------------------------------- self time

/// How a span's interval is covered by its direct children.
struct Coverage {
  double self = 0;         // no child open
  double kernel_only = 0;  // a kernel child open, no disk child
  double disk_only = 0;    // a disk child open, no kernel child
  double both = 0;         // kernel and disk children open together
};

/// Sweeps the children's intervals, clipped to the parent's, in one pass.
inline Coverage CoverageOf(const Span& parent,
                           const std::vector<const Span*>& children) {
  // (time, kind, +1/-1); kind 0 = kernel, 1 = disk, 2 = anything else.
  std::vector<std::tuple<double, int, int>> ev;
  ev.reserve(children.size() * 2);
  for (const Span* c : children) {
    const double s = std::max(c->start, parent.start);
    const double e = std::min(c->end, parent.end);
    if (!(e > s)) continue;
    const int kind = c->layer == Layer::kKernel ? 0
                     : (c->layer == Layer::kDiskRead ||
                        c->layer == Layer::kDiskWrite)
                         ? 1
                         : 2;
    ev.emplace_back(s, kind, +1);
    ev.emplace_back(e, kind, -1);
  }
  std::sort(ev.begin(), ev.end());
  Coverage cov;
  int open[3] = {0, 0, 0};
  double t = parent.start;
  for (const auto& [time, kind, delta] : ev) {
    const double dt = time - t;
    const bool k = open[0] > 0, d = open[1] > 0, o = open[2] > 0;
    if (!k && !d && !o) cov.self += dt;
    if (k && !d) cov.kernel_only += dt;
    if (d && !k) cov.disk_only += dt;
    if (k && d) cov.both += dt;
    open[kind] += delta;
    t = time;
  }
  cov.self += parent.end - t;
  return cov;
}

/// Per-layer totals over a set of spans. `busy` sums durations, so it
/// exceeds wall time where spans of one layer overlap.
struct TraceSummary {
  struct LayerTotals {
    int64_t count = 0;  // every span, set-up included
    double busy = 0;
    int64_t job_count = 0;  // spans inside measured jobs only
    double job_busy = 0;
    double job_self = 0;
  };
  std::array<LayerTotals, kNumLayers> layers;
  double job_self_total = 0;  // sum of job_self over all layers
  // Partition of exec.run spans inside jobs (see Coverage).
  double exec_self = 0, exec_disk_only = 0, exec_both = 0;
  // Kernel busy time by op family, inside jobs.
  double kernel_gemm = 0, kernel_elementwise = 0, kernel_other = 0;
  std::vector<double> read_seconds;  // disk.read durations inside jobs

  const LayerTotals& of(Layer l) const {
    return layers[static_cast<size_t>(l)];
  }
  /// A layer's share of all self time inside jobs; shares of every layer
  /// (the job layer's own share being the unattributed residual) sum to 1.
  double Share(Layer l) const {
    return job_self_total > 0 ? of(l).job_self / job_self_total : 0.0;
  }
};

inline bool IsElementwiseOp(const char* op) {
  for (const char* e : {"add", "sub", "scale", "map", "zip", "fused"}) {
    if (std::strcmp(op, e) == 0) return true;
  }
  return false;
}

inline TraceSummary Summarize(const std::vector<Span>& spans) {
  std::map<int64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].push_back(&s);
  }
  static const std::vector<const Span*> kNone;
  TraceSummary sum;
  for (const Span& s : spans) {
    auto it = children.find(s.id);
    const Coverage cov =
        CoverageOf(s, it == children.end() ? kNone : it->second);
    const size_t l = static_cast<size_t>(s.layer);
    const double dur = s.end - s.start;
    TraceSummary::LayerTotals& t = sum.layers[l];
    ++t.count;
    t.busy += dur;
    if (s.job < 0) continue;
    ++t.job_count;
    t.job_busy += dur;
    t.job_self += cov.self;
    sum.job_self_total += cov.self;
    if (s.layer == Layer::kExec) {
      sum.exec_self += cov.self;
      sum.exec_disk_only += cov.disk_only;
      sum.exec_both += cov.both;
    } else if (s.layer == Layer::kKernel && s.op != nullptr) {
      if (std::strcmp(s.op, "gemm") == 0) {
        sum.kernel_gemm += dur;
      } else if (IsElementwiseOp(s.op)) {
        sum.kernel_elementwise += dur;
      } else {
        sum.kernel_other += dur;
      }
    } else if (s.layer == Layer::kDiskRead) {
      sum.read_seconds.push_back(dur);
    }
  }
  return sum;
}

// ---------------------------------------------------------- Chrome trace

/// Writes `spans` as Chrome trace-event JSON ("X" complete events, times in
/// microseconds). Returns false when the file cannot be written.
inline bool WriteChromeTrace(const std::string& path,
                             const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                 "\"args\": {\"id\": %lld, \"parent\": %lld, \"job\": %lld",
                 s.op != nullptr ? s.op : LayerName(s.layer),
                 LayerName(s.layer), s.start * 1e6, (s.end - s.start) * 1e6,
                 s.tid, static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.job));
    if (s.stmt >= 0) std::fprintf(f, ", \"stmt\": %d", s.stmt);
    std::fprintf(f, "}}%s\n", i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
}  // namespace riot

#endif  // RIOTSHARE_PERFBENCH_BENCH_TRACE_H_
