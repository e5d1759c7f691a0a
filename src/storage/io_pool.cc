#include "storage/io_pool.h"

#include <chrono>

#include "util/logging.h"

namespace riot {

namespace {
thread_local bool t_on_worker = false;
}  // namespace

bool IoPool::OnWorkerThread() { return t_on_worker; }

IoPool::IoPool(int num_threads) {
  RIOT_CHECK_GT(num_threads, 0);
  channels_.emplace(0, Channel{});  // the default channel always exists
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

IoPool::~IoPool() {
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (auto& w : workers_) w.join();
  MutexLock lock(&mu_);
  retired_.DeleteAll();
  for (auto& [id, ch] : channels_) ch.done.DeleteAll();  // never waited for
}

int IoPool::OpenChannel() {
  MutexLock lock(&mu_);
  RIOT_CHECK(!stop_);
  int id = next_channel_++;
  channels_.emplace(id, Channel{});
  return id;
}

void IoPool::CloseChannel(int channel) {
  MutexLock lock(&mu_);
  RIOT_CHECK(channel != 0) << "channel 0 cannot be closed";
  auto it = channels_.find(channel);
  RIOT_CHECK(it != channels_.end()) << "CloseChannel on unknown channel";
  RIOT_CHECK_EQ(it->second.outstanding, 0)
      << "CloseChannel with outstanding reads";
  RIOT_CHECK_EQ(it->second.queued, 0)
      << "CloseChannel with queued requests";
  channels_.erase(it);
}

void IoPool::Submit(std::unique_ptr<Request> req) {
  RequestList retired;
  {
    MutexLock lock(&mu_);
    RIOT_CHECK(!stop_);
    Channel& ch = channels_.at(req->channel);
    // Writes do not bump outstanding: that counter feeds WaitCompletion,
    // whose consumers only ever expect read completions.
    if (!req->is_write) ++ch.outstanding;
    ch.queue.PushBack(req.release());
    ++ch.queued;
    ++queued_total_;
    retired = retired_.Take();
  }
  work_cv_.NotifyOne();
  retired.DeleteAll();
}

void IoPool::ReadBlockAsync(BlockStore* store, int64_t block, void* buf,
                            uint64_t tag, int channel) {
  auto req = std::make_unique<Request>();
  req->store = store;
  req->block = block;
  req->buf = buf;
  req->tag = tag;
  req->channel = channel;
  Submit(std::move(req));
}

void IoPool::WriteBlockAsync(BlockStore* store, int64_t block,
                             const void* buf,
                             std::function<void(Status)> on_done,
                             int channel) {
  auto req = std::make_unique<Request>();
  req->store = store;
  req->block = block;
  req->write_buf = buf;
  req->channel = channel;
  req->is_write = true;
  req->on_done = std::move(on_done);
  Submit(std::move(req));
}

IoPool::Completion IoPool::WaitCompletion(int channel) {
  std::unique_ptr<Request> req;
  {
    UniqueMutexLock lock(&mu_);
    Channel& ch = channels_.at(channel);
    RIOT_CHECK_GT(ch.outstanding, 0)
        << "WaitCompletion with nothing submitted";
    while (ch.done.empty()) done_cv_.Wait(lock);
    req.reset(ch.done.PopFront());
    --ch.outstanding;
  }
  return {req->tag, std::move(req->status)};
}

int64_t IoPool::outstanding(int channel) const {
  MutexLock lock(&mu_);
  auto it = channels_.find(channel);
  return it == channels_.end() ? 0 : it->second.outstanding;
}

IoPool::Request* IoPool::PopNextLocked() {
  if (queued_total_ == 0) return nullptr;
  // Fair-share: start just past the channel served last and take the first
  // pending request in channel-id ring order, so every tenant's stream
  // advances before any stream gets a second turn.
  auto it = channels_.upper_bound(rr_cursor_);
  for (size_t scanned = 0; scanned <= channels_.size(); ++scanned) {
    if (it == channels_.end()) it = channels_.begin();
    Channel& ch = it->second;
    if (!ch.queue.empty()) {
      --ch.queued;
      --queued_total_;
      rr_cursor_ = it->first;
      return ch.queue.PopFront();
    }
    ++it;
  }
  RIOT_CHECK(false) << "queued_total_ out of sync with channel queues";
  return nullptr;
}

// Allocation-free on the success path (see io_pool.h): requests are only
// relinked, never created or destroyed, here.
void IoPool::WorkerLoop() {
  t_on_worker = true;
  for (;;) {
    Request* req = nullptr;
    {
      UniqueMutexLock lock(&mu_);
      while (!stop_ && queued_total_ == 0) work_cv_.Wait(lock);
      req = PopNextLocked();
    }
    if (req == nullptr) break;  // stop_ set and queues drained
    // Calls on distinct blocks of one store may overlap (block_store.h);
    // this times the call alone.
    auto t0 = std::chrono::steady_clock::now();
    Status st = req->is_write
                    ? req->store->WriteBlock(req->block, req->write_buf)
                    : req->store->ReadBlock(req->block, req->buf);
    (req->is_write ? write_nanos_ : read_nanos_)
        .fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
    if (req->is_write) {
      writes_completed_.fetch_add(1);
      req->on_done(std::move(st));
      MutexLock lock(&mu_);
      retired_.PushBack(req);
      continue;
    }
    reads_completed_.fetch_add(1);
    req->status = std::move(st);
    {
      MutexLock lock(&mu_);
      // The channel cannot have been closed: it has this outstanding read.
      auto it = channels_.find(req->channel);
      RIOT_CHECK(it != channels_.end());
      it->second.done.PushBack(req);
    }
    done_cv_.NotifyAll();
  }
  t_on_worker = false;
}

}  // namespace riot
