// The serving front end: a long-lived pool of workers draining an
// in-process job queue against one shared SessionRuntime. Submit() never
// blocks — the queue is unbounded, so when offered load exceeds capacity
// the backlog (and hence latency) grows, exactly the open-loop behavior
// the bench measures. Each worker owns one catalog slot, binds each job
// it picks up to that slot's private output stores, runs it as a session
// (admission, budget, shared-frame dedup all apply), and feeds Metrics
// (a job the catalog does not serve counts as failed, never binds):
// end-to-end latency, queue wait, admission wait, and execution wall time.
#ifndef RIOTSHARE_SERVE_SERVER_H_
#define RIOTSHARE_SERVE_SERVER_H_

#include <chrono>
#include <deque>
#include <thread>
#include <vector>

#include "ops/session_runtime.h"
#include "serve/catalog.h"
#include "serve/metrics.h"
#include "serve/workload_gen.h"
#include "util/thread_annotations.h"

namespace riot {
namespace serve {

struct ServerOptions {
  /// The shared execution layer: pool cap, admission policy, I/O threads.
  SessionRuntimeOptions runtime;
  /// Concurrent job executions; must not exceed the catalog's slots.
  int worker_threads = 4;
};

class Server {
 public:
  /// `catalog` is not owned and must outlive the server. Workers start
  /// immediately.
  Server(const Catalog* catalog, const ServerOptions& options);
  /// Implies Shutdown() (drops any jobs still queued).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Enqueues one job and returns immediately (open loop: the caller's
  /// arrival process never waits on service).
  void Submit(const JobSpec& job) EXCLUDES(mu_);

  /// Blocks until every submitted job has completed (or, after a
  /// Shutdown, until the in-flight jobs finish — queued-but-unstarted
  /// jobs were dropped and no longer count). Submit may be called again
  /// afterwards only if the server is not shut down.
  void Drain() EXCLUDES(mu_);

  /// Stops the workers after the jobs they are currently running;
  /// queued-but-unstarted jobs are dropped. Idempotent.
  void Shutdown() EXCLUDES(mu_);

  MetricsSnapshot Snapshot() const { return metrics_.Snapshot(); }
  SessionRuntime& runtime() { return runtime_; }

 private:
  struct Queued {
    JobSpec job;
    std::chrono::steady_clock::time_point submitted;
  };

  void WorkerLoop(int slot) EXCLUDES(mu_);

  const Catalog* const catalog_;
  const ServerOptions opts_;
  SessionRuntime runtime_;
  Metrics metrics_;

  Mutex mu_;
  CondVar work_cv_;   // workers: queue non-empty or stopping
  CondVar drain_cv_;  // Drain: queue empty and workers idle
  std::deque<Queued> queue_ GUARDED_BY(mu_);
  int in_flight_ GUARDED_BY(mu_) = 0;  // jobs popped but not yet finished
  bool stop_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace serve
}  // namespace riot

#endif  // RIOTSHARE_SERVE_SERVER_H_
