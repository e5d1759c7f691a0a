// Asynchronous block-read path: a small worker pool that services
// BlockStore reads off the execution thread, with a completion queue the
// caller drains. This is what lets the executor overlap kernel time with
// disk time — the prefetcher submits reads for blocks the access script
// says are needed soon, and kernels keep running while workers block on
// the device.
//
// Requests against the same BlockStore are serialized with a per-store
// lock (store implementations are not required to support concurrent
// access); requests against different stores proceed in parallel across
// workers. The BufferPool's write-behind hands the serial executor's
// write-throughs and dirty eviction victims (spills) to the same workers
// via WriteBlockAsync, whose completion is delivered through a caller
// callback instead of the read completion queue (the queue's consumers
// only ever expect reads); the pool's write barrier, not submission order,
// orders later reads of a block after its write.
//
// Channels make one pool shareable between concurrent consumers (the
// session runtime's tenants): each channel is an independent submission
// stream with its own completion queue — a consumer draining channel c can
// never observe another channel's completions — and the workers pop
// pending requests round-robin *across* channels, so one tenant's deep
// prefetch lookahead cannot starve another's. Channel 0 always exists;
// every legacy single-consumer call defaults to it.
#ifndef RIOTSHARE_STORAGE_IO_POOL_H_
#define RIOTSHARE_STORAGE_IO_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "storage/block_store.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace riot {

/// \brief Per-store serialization mutexes, shared between every thread
/// that touches a BlockStore. Store implementations are not required to be
/// thread-safe (LAB-tree mutates its node cache even on reads), so the
/// parallel executor's kernel workers — with or without an IoPool — route
/// every store call through the store's mutex from one shared map.
class StoreMutexMap {
 public:
  /// The handed-out per-store mutexes stay raw std::mutex: they leave this
  /// map for arbitrary executor/pool threads, outside any annotatable
  /// scope.
  std::shared_ptr<std::mutex> mutex_for(BlockStore* store) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    auto it = map_.find(store);
    if (it == map_.end()) {
      it = map_.emplace(store, std::make_shared<std::mutex>()).first;
    }
    return it->second;
  }

 private:
  Mutex mu_;
  std::map<BlockStore*, std::shared_ptr<std::mutex>> map_ GUARDED_BY(mu_);
};

class IoPool {
 public:
  struct Completion {
    uint64_t tag = 0;
    Status status;
  };

  explicit IoPool(int num_threads);
  ~IoPool();  // drains the queue and joins the workers

  IoPool(const IoPool&) = delete;
  IoPool& operator=(const IoPool&) = delete;

  /// Opens a fresh submission/completion channel (ids are never reused).
  /// Requests submitted on it complete only into its queue, and the
  /// workers service channels round-robin. Close it when its last read
  /// completion has been consumed.
  int OpenChannel() EXCLUDES(mu_);
  /// Closes a channel opened with OpenChannel. Must have no outstanding
  /// reads. Channel 0 cannot be closed.
  void CloseChannel(int channel) EXCLUDES(mu_);

  /// Enqueues store->ReadBlock(block, buf). `buf` must stay valid (and
  /// untouched) until the matching completion is consumed. `tag` is echoed
  /// back verbatim (tags are per-channel: two channels may reuse a tag).
  void ReadBlockAsync(BlockStore* store, int64_t block, void* buf,
                      uint64_t tag, int channel = 0) EXCLUDES(mu_);

  /// Enqueues store->WriteBlock(block, buf) and invokes `on_done` with the
  /// write's Status from a worker thread once it lands. `buf` must stay
  /// valid and untouched until then. Writes never enter the read
  /// completion queue — WaitCompletion/outstanding() see reads only — so
  /// read consumers (the executor's prefetcher) and write producers (the
  /// BufferPool's write-behind) can share one pool without seeing each
  /// other's completions. `on_done` runs without pool-internal locks held;
  /// it may take its own locks but must not call back into this IoPool.
  void WriteBlockAsync(BlockStore* store, int64_t block, const void* buf,
                       std::function<void(Status)> on_done, int channel = 0)
      EXCLUDES(mu_);

  /// Blocks until the channel's next completion is available (completion
  /// order, not submission order). Must only be called when at least one
  /// read submitted on the channel has not yet been waited for.
  Completion WaitCompletion(int channel = 0) EXCLUDES(mu_);

  /// Reads submitted on the channel whose completion has not been consumed.
  int64_t outstanding(int channel = 0) const EXCLUDES(mu_);

  /// The serialization mutex for `store`. Callers performing their own
  /// synchronous reads/writes on a store that also has async reads in
  /// flight MUST hold this around the call — store implementations are
  /// not required to be thread-safe (LAB-tree mutates its node cache even
  /// on reads).
  std::shared_ptr<std::mutex> store_mutex(BlockStore* store) {
    return store_mutexes_.mutex_for(store);
  }
  /// The underlying shared map, for callers that mix this pool's async
  /// reads with their own multi-threaded synchronous store calls.
  StoreMutexMap* store_mutexes() { return &store_mutexes_; }

  /// Wall time spent inside ReadBlock on the workers, and reads serviced.
  double read_seconds() const {
    return static_cast<double>(read_nanos_.load()) * 1e-9;
  }
  int64_t reads_completed() const { return reads_completed_.load(); }
  /// Wall time spent inside WriteBlock on the workers, and writes landed.
  double write_seconds() const {
    return static_cast<double>(write_nanos_.load()) * 1e-9;
  }
  int64_t writes_completed() const { return writes_completed_.load(); }

 private:
  struct Request {
    BlockStore* store = nullptr;
    int64_t block = -1;
    void* buf = nullptr;            // read target
    const void* write_buf = nullptr;  // write source (is_write)
    uint64_t tag = 0;
    int channel = 0;
    bool is_write = false;
    std::function<void(Status)> on_done;  // write completion callback
  };

  struct Channel {
    std::deque<Request> queue;
    std::deque<Completion> done;
    int64_t outstanding = 0;  // submitted reads not yet waited for
    int64_t queued = 0;       // requests (reads and writes) not yet popped
  };

  void WorkerLoop() EXCLUDES(mu_);
  /// Pops the next request round-robin across non-empty channels; false
  /// when every channel queue is empty.
  bool PopNextLocked(Request* out) REQUIRES(mu_);

  mutable Mutex mu_;
  CondVar work_cv_;
  CondVar done_cv_;
  std::map<int, Channel> channels_ GUARDED_BY(mu_);
  int next_channel_ GUARDED_BY(mu_) = 1;
  // Channel id the next pop starts after.
  int rr_cursor_ GUARDED_BY(mu_) = 0;
  int64_t queued_total_ GUARDED_BY(mu_) = 0;
  StoreMutexMap store_mutexes_;
  bool stop_ GUARDED_BY(mu_) = false;
  std::atomic<int64_t> read_nanos_{0};
  std::atomic<int64_t> reads_completed_{0};
  std::atomic<int64_t> write_nanos_{0};
  std::atomic<int64_t> writes_completed_{0};
  std::vector<std::thread> workers_;
};

}  // namespace riot

#endif  // RIOTSHARE_STORAGE_IO_POOL_H_
