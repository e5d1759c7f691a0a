#include "serve/server.h"

#include <utility>

#include "util/logging.h"

namespace riot {
namespace serve {

namespace {
double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
}  // namespace

Server::Server(const Catalog* catalog, const ServerOptions& options)
    : catalog_(catalog), opts_(options), runtime_(options.runtime) {
  RIOT_CHECK_GT(opts_.worker_threads, 0);
  RIOT_CHECK(opts_.worker_threads <= catalog_->num_slots())
      << "more workers than catalog slots: two workers would share one "
         "slot's output stores";
  workers_.reserve(static_cast<size_t>(opts_.worker_threads));
  for (int i = 0; i < opts_.worker_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

Server::~Server() { Shutdown(); }

void Server::Submit(const JobSpec& job) {
  metrics_.OnSubmit();
  {
    MutexLock lock(&mu_);
    queue_.push_back(Queued{job, std::chrono::steady_clock::now()});
  }
  work_cv_.NotifyOne();
}

void Server::Drain() {
  UniqueMutexLock lock(&mu_);
  while (!(queue_.empty() && in_flight_ == 0)) drain_cv_.Wait(lock);
}

void Server::Shutdown() {
  {
    MutexLock lock(&mu_);
    if (stop_) return;
    stop_ = true;
    // Dropped jobs must not strand a concurrent Drain(): its predicate
    // watches queue_ and in_flight_, and nothing would ever empty the
    // queue once the workers stop.
    queue_.clear();
  }
  work_cv_.NotifyAll();
  drain_cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

void Server::WorkerLoop(int slot) {
  for (;;) {
    Queued item;
    {
      UniqueMutexLock lock(&mu_);
      while (!stop_ && queue_.empty()) work_cv_.Wait(lock);
      if (stop_) return;
      item = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }

    const auto picked = std::chrono::steady_clock::now();
    // A job the catalog cannot bind fails alone; Bind would CHECK.
    Result<SessionStats> result =
        catalog_->Serves(item.job)
            ? runtime_.Run(catalog_->Bind(item.job, slot))
            : Result<SessionStats>(
                  Status::InvalidArgument("job kind or dataset out of range"));
    const auto done = std::chrono::steady_clock::now();

    double admission_wait = 0, exec_wall = 0;
    if (result.ok()) {
      admission_wait = result->admission_wait_seconds;
      exec_wall = result->exec.wall_seconds;
    }
    metrics_.OnDone(result.ok(), item.job.kind == JobKind::kWhale,
                    Seconds(done - item.submitted),
                    Seconds(picked - item.submitted), admission_wait,
                    exec_wall);

    {
      MutexLock lock(&mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) drain_cv_.NotifyAll();
    }
  }
}

}  // namespace serve
}  // namespace riot
