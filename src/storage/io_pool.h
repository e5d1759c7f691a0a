// Asynchronous block-read path: a small worker pool that services
// BlockStore reads off the execution thread, with a completion queue the
// caller drains. This is what lets the executor overlap kernel time with
// disk time — the prefetcher submits reads for blocks the access script
// says are needed soon, and kernels keep running while workers block on
// the device.
//
// Requests run concurrently across workers, on one store as on many:
// BlockStore calls on distinct blocks are safe in parallel (see
// storage/block_store.h), and two calls on the same block are ordered by
// the caller — the BufferPool's load latch and write barrier, and the
// executor's DAG edges. The BufferPool hands write-throughs (serial and
// session runs) to the same workers via WriteBlockAsync, whose completion
// is delivered through a caller callback instead of the read completion
// queue (the queue's consumers only ever expect reads); the pool's write
// barrier, not submission order, orders later reads of a block after its
// write.
//
// Channels make one pool shareable between concurrent consumers (the
// session runtime's tenants): each channel is an independent submission
// stream with its own completion queue — a consumer draining channel c can
// never observe another channel's completions — and the workers pop
// pending requests round-robin *across* channels, so one tenant's deep
// prefetch lookahead cannot starve another's. Channel 0 always exists;
// every legacy single-consumer call defaults to it.
//
// The workers never allocate. With glibc, the first malloc or free on a
// thread binds that thread to an arena of its own (free sets up the
// thread's tcache), and an arena keeps its freed pages: two busy I/O
// workers that touch the heap hold two extra arenas of retained memory
// for the life of the process. So every request is one node the
// submitter allocates; a worker only relinks it — from its channel's
// queue to the channel's done list (a read, freed by WaitCompletion) or to
// a retired list (a write, freed by the next submit). On the success
// path WorkerLoop and everything it calls stay off the allocator,
// provided the store call and the write callback do too: the
// BufferPool's callbacks only mark a write landed, and it writes behind
// only blocks that already exist on disk (an extending write may resize
// the file). Error paths may allocate (a
// Status message). OnWorkerThread() lets tests verify this.
#ifndef RIOTSHARE_STORAGE_IO_POOL_H_
#define RIOTSHARE_STORAGE_IO_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "storage/block_store.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace riot {

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
  /// BufferPool's write-throughs) can share one pool without seeing each
  /// other's completions. `on_done` runs without pool-internal locks held;
  /// it may take its own locks but must not call back into this IoPool,
  /// and it should not allocate (see the header comment). The callback
  /// object itself is destroyed later on a submitting thread, so whatever
  /// it captures is released off the workers.
  void WriteBlockAsync(BlockStore* store, int64_t block, const void* buf,
                       std::function<void(Status)> on_done, int channel = 0)
      EXCLUDES(mu_);

  /// Blocks until the channel's next completion is available (completion
  /// order, not submission order). Must only be called when at least one
  /// read submitted on the channel has not yet been waited for.
  Completion WaitCompletion(int channel = 0) EXCLUDES(mu_);

  /// Reads submitted on the channel whose completion has not been consumed.
  int64_t outstanding(int channel = 0) const EXCLUDES(mu_);

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

  /// True on an IoPool worker thread (while it runs WorkerLoop).
  static bool OnWorkerThread();

 private:
  /// One request, allocated by its submitter and freed off the workers.
  struct Request {
    Request* next = nullptr;  // intrusive link (RequestList)
    BlockStore* store = nullptr;
    int64_t block = -1;
    void* buf = nullptr;            // read target
    const void* write_buf = nullptr;  // write source (is_write)
    uint64_t tag = 0;
    int channel = 0;
    bool is_write = false;
    std::function<void(Status)> on_done;  // write completion callback
    Status status;                        // read result
  };

  /// FIFO of requests linked through Request::next: moving a request from
  /// one list to another relinks it and never allocates. A list owns its
  /// requests; the IoPool frees whatever its lists still hold when it is
  /// destroyed.
  struct RequestList {
    Request* head = nullptr;
    Request* tail = nullptr;
    bool empty() const { return head == nullptr; }
    void PushBack(Request* r) {
      r->next = nullptr;
      (tail != nullptr ? tail->next : head) = r;
      tail = r;
    }
    Request* PopFront() {
      Request* r = head;
      head = r->next;
      if (head == nullptr) tail = nullptr;
      r->next = nullptr;
      return r;
    }
    /// Moves every request out, leaving this list empty.
    RequestList Take() {
      RequestList out = *this;
      head = tail = nullptr;
      return out;
    }
    void DeleteAll() {
      while (!empty()) delete PopFront();
    }
  };

  struct Channel {
    RequestList queue;
    RequestList done;         // completed reads, in completion order
    int64_t outstanding = 0;  // submitted reads not yet waited for
    int64_t queued = 0;       // requests (reads and writes) not yet popped
  };

  /// Queues a submitter-built request on its channel, and frees the writes
  /// retired since the last submit (outside mu_).
  void Submit(std::unique_ptr<Request> req) EXCLUDES(mu_);
  void WorkerLoop() EXCLUDES(mu_);
  /// Pops the next request round-robin across non-empty channels; nullptr
  /// when every channel queue is empty.
  Request* PopNextLocked() REQUIRES(mu_);

  mutable Mutex mu_;
  CondVar work_cv_;
  CondVar done_cv_;
  std::map<int, Channel> channels_ GUARDED_BY(mu_);
  int next_channel_ GUARDED_BY(mu_) = 1;
  // Channel id the next pop starts after.
  int rr_cursor_ GUARDED_BY(mu_) = 0;
  int64_t queued_total_ GUARDED_BY(mu_) = 0;
  // Landed writes, waiting for a submitting thread to free them.
  RequestList retired_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  std::atomic<int64_t> read_nanos_{0};
  std::atomic<int64_t> reads_completed_{0};
  std::atomic<int64_t> write_nanos_{0};
  std::atomic<int64_t> writes_completed_{0};
  std::vector<std::thread> workers_;
};

}  // namespace riot

#endif  // RIOTSHARE_STORAGE_IO_POOL_H_
