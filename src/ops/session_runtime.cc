#include "ops/session_runtime.h"

#include <algorithm>
#include <chrono>

#include "core/cost_model.h"
#include "util/logging.h"

namespace riot {

namespace {
double Since(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}
}  // namespace

SessionRuntime::SessionRuntime(SessionRuntimeOptions options)
    : opts_(options),
      admission_(MakeAdmissionPolicy(options.admission,
                                     options.admission_aging_seconds)),
      io_(std::make_unique<IoPool>(std::max(1, options.io_threads))),
      pool_(options.pool_cap_bytes,
            MakeReplacementPolicy(options.replacement)) {
  PublishHeadroom();
}

void SessionRuntime::AdmitLocked() {
  bool admitted_any = false;
  while (!admit_queue_.empty()) {
    std::vector<AdmissionCandidate> waiting;
    waiting.reserve(admit_queue_.size());
    const auto now = std::chrono::steady_clock::now();
    for (const Waiter* w : admit_queue_) {
      AdmissionCandidate c;
      c.ticket = w->ticket;
      c.footprint_bytes = w->footprint_bytes;
      c.expected_work_seconds = w->expected_work_seconds;
      c.waited_seconds =
          std::chrono::duration<double>(now - w->enqueued).count();
      waiting.push_back(c);
    }
    const int pick =
        admission_->PickNext(waiting, opts_.pool_cap_bytes - reserved_bytes_);
    if (pick < 0) break;
    RIOT_CHECK_LT(static_cast<size_t>(pick), admit_queue_.size());
    Waiter* w = admit_queue_[static_cast<size_t>(pick)];
    RIOT_CHECK_LE(reserved_bytes_ + w->footprint_bytes, opts_.pool_cap_bytes)
        << "admission policy admitted past the pool cap";
    admit_queue_.erase(admit_queue_.begin() + pick);
    w->admitted = true;
    reserved_bytes_ += w->footprint_bytes;
    ++running_sessions_;
    stats_.peak_reserved_bytes =
        std::max(stats_.peak_reserved_bytes, reserved_bytes_);
    stats_.peak_concurrent_sessions =
        std::max(stats_.peak_concurrent_sessions, running_sessions_);
    admitted_any = true;
  }
  if (admitted_any) admit_cv_.NotifyAll();
}

void SessionRuntime::PublishHeadroom() {
  MutexLock order(&headroom_mu_);
  int64_t headroom = 0;
  {
    MutexLock lock(&mu_);
    headroom = opts_.pool_cap_bytes - reserved_bytes_;
  }
  pool_.SetPrefetchBudget(headroom, /*count_write_held=*/true);
}

int SessionRuntime::PoolIdFor(BlockStore* store) {
  auto it = pool_ids_.find(store);
  if (it == pool_ids_.end()) {
    it = pool_ids_.emplace(store, next_pool_id_++).first;
  }
  return it->second;
}

Status SessionRuntime::ReleaseStore(BlockStore* store) {
  int id = -1;
  {
    MutexLock lock(&mu_);
    auto it = pool_ids_.find(store);
    if (it == pool_ids_.end()) return Status::OK();  // never cached
    id = it->second;
  }
  // The pool's mutex must not nest under mu_ (see the lock-order note in
  // session_runtime.h), so drop the frames between the two mu_ sections.
  // A concurrent PoolIdFor can only re-mint the same id for the same
  // store, which the caller's contract says no session is using anymore.
  const int64_t kept = pool_.DropArrayFrames(id);
  if (kept > 0) {
    return Status::Internal("ReleaseStore: " + std::to_string(kept) +
                            " frame(s) of the store still in use");
  }
  MutexLock lock(&mu_);
  auto it = pool_ids_.find(store);
  if (it != pool_ids_.end() && it->second == id) pool_ids_.erase(it);
  return Status::OK();
}

Result<SessionStats> SessionRuntime::Run(const SessionSpec& spec) {
  if (spec.program == nullptr || spec.schedule == nullptr ||
      spec.kernels == nullptr) {
    return Status::InvalidArgument(
        "SessionSpec: program/schedule/kernels must be set");
  }
  if (spec.stores.size() != spec.program->arrays().size()) {
    return Status::InvalidArgument("SessionSpec: one store per array");
  }

  // ---- footprint: the session's budget and admission reservation -------
  int64_t footprint = spec.footprint_bytes;
  double work = spec.expected_work_seconds;
  const bool need_work =
      work <= 0 && opts_.admission == AdmissionPolicyKind::kShortestWork;
  if (footprint <= 0 || need_work) {
    // The cost model's peak is exact for the serial engine a session runs
    // on (pinned + retained in scheduled order); TotalSeconds is the
    // modeled io + compute the shortest-work policy ranks by. A plan that
    // does not lower fails here, before it reserves anything.
    auto cost = TryEvaluatePlanCost(*spec.program, *spec.schedule,
                                    spec.realized, opts_.cost);
    RIOT_RETURN_NOT_OK(cost.status());
    if (footprint <= 0) footprint = cost->peak_memory_bytes;
    if (work <= 0) work = cost->TotalSeconds();
  }
  if (footprint > opts_.pool_cap_bytes) {
    MutexLock lock(&mu_);
    ++stats_.sessions_rejected;
    return Status::ResourceExhausted(
        "session footprint " + std::to_string(footprint) +
        " exceeds the pool cap " + std::to_string(opts_.pool_cap_bytes) +
        " even running alone");
  }

  // ---- admission: policy-ordered footprint reservations ----------------
  // Parking stays livelock-free under every policy: an admitted waiter
  // needs only completions to shrink reserved_bytes_, FIFO never lets
  // anything overtake its head, and the reordering policies age back to
  // FIFO, so some waiter always needs only completions to get in.
  SessionStats out;
  auto wait0 = std::chrono::steady_clock::now();
  {
    UniqueMutexLock lock(&mu_);
    Waiter me;
    me.ticket = next_ticket_++;
    me.footprint_bytes = footprint;
    me.expected_work_seconds = work;
    me.enqueued = wait0;
    admit_queue_.push_back(&me);
    AdmitLocked();
    if (!me.admitted) {
      ++stats_.sessions_parked;
      out.parked_for_admission = true;
      // Always terminates: every spec passed the footprint <= cap check,
      // so whenever the runtime drains to idle the policy's next pick
      // (any policy) fits the fully-free reservation.
      while (!me.admitted) admit_cv_.Wait(lock);
    }
    out.session_id = me.ticket;
    out.admission_wait_seconds = Since(wait0);
    stats_.admission_wait_seconds += out.admission_wait_seconds;
  }
  PublishHeadroom();

  // ---- bind the session into the shared pool's namespace ---------------
  PoolAccount account;
  account.budget_bytes = footprint;
  std::vector<int> pool_array_ids(spec.stores.size());
  {
    MutexLock lock(&mu_);
    for (size_t i = 0; i < spec.stores.size(); ++i) {
      pool_array_ids[i] = PoolIdFor(spec.stores[i]);
    }
  }
  const int channel = io_->OpenChannel();

  SessionBinding binding;
  binding.account = &account;
  binding.pool_array_ids = std::move(pool_array_ids);
  binding.io = io_.get();
  binding.io_channel = channel;
  binding.park_timeout_seconds = opts_.park_timeout_seconds;

  ExecOptions eo = spec.exec;
  eo.shared_pool = &pool_;
  eo.session = &binding;
  eo.exec_threads = 1;  // sessions are the parallelism
  eo.replacement = opts_.replacement;  // informational; the pool decides

  Executor ex(*spec.program, spec.stores, *spec.kernels, eo);
  auto run = ex.Run(*spec.schedule, spec.realized);

  io_->CloseChannel(channel);

  // ---- release the reservation, merge stats ----------------------------
  {
    MutexLock lock(&mu_);
    reserved_bytes_ -= footprint;
    --running_sessions_;
    AdmitLocked();  // freed reservation may admit parked waiters
    if (run.ok()) {
      ++stats_.sessions_completed;
      stats_.bytes_read += run->bytes_read;
      stats_.bytes_written += run->bytes_written;
      stats_.block_reads += run->block_reads;
      stats_.block_writes += run->block_writes;
      stats_.prefetch_hits += run->prefetch_hits;
      stats_.prefetch_wasted += run->prefetch_wasted;
      stats_.policy_saved_reads += run->policy_saved_reads;
      stats_.session_parks += run->session_parks;
      stats_.io_seconds += run->io_seconds;
      stats_.compute_seconds += run->compute_seconds;
      stats_.wall_seconds += run->wall_seconds;
      stats_.write_behind_peak_bytes = std::max(
          stats_.write_behind_peak_bytes, run->write_behind_peak_bytes);
    } else {
      ++stats_.sessions_failed;
    }
  }
  PublishHeadroom();

  if (!run.ok()) return run.status();
  out.budget_bytes = footprint;
  out.peak_charged_bytes =
      account.peak_charged_bytes.load(std::memory_order_relaxed);
  out.budget_rejections =
      account.budget_rejections.load(std::memory_order_relaxed);
  out.exec = std::move(run).ValueOrDie();
  return out;
}

RuntimeStats SessionRuntime::stats() const {
  RuntimeStats out;
  {
    MutexLock lock(&mu_);
    out = stats_;
  }
  // Pool counters carry their own lock; never nest it under mu_.
  out.pool = pool_.stats();
  return out;
}

}  // namespace riot
