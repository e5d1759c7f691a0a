// Counts the reads, or the writes, a run keeps in flight at once on the
// block stores it wraps. Until the counter is released, each counted call
// stays in flight up to 100 ms waiting for that, as on a slow disk. Busy()
// answering true releases it, and so do two counted calls in flight
// together unless `release_at_two` is false. The peak then tells whether
// the engine ever keeps two such calls in flight at once — and Busy()
// whether something else ran while one was — not how fast the host runs
// the engine's own code (sanitizer builds run it many times slower). Calls
// of the other kind pass straight through, so they never hold an I/O
// worker.
#ifndef RIOTSHARE_TESTS_TESTING_IN_FLIGHT_STORE_H_
#define RIOTSHARE_TESTS_TESTING_IN_FLIGHT_STORE_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "storage/block_store.h"

namespace riot {

class InFlightCounter {
 public:
  explicit InFlightCounter(bool count_writes, bool release_at_two = true)
      : count_writes_(count_writes), release_at_two_(release_at_two) {}

  /// A decorator of `base` that counts into this counter; the counter owns
  /// it.
  BlockStore* Wrap(BlockStore* base) {
    wrappers_.push_back(std::make_unique<Store>(this, base));
    return wrappers_.back().get();
  }

  int peak() {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_;
  }

  /// True while a counted call is in flight.
  bool Busy() {
    std::lock_guard<std::mutex> lock(mu_);
    if (now_ == 0) return false;
    released_ = true;
    cv_.notify_all();
    return true;
  }

 private:
  class Store : public BlockStore {
   public:
    Store(InFlightCounter* counter, BlockStore* base)
        : BlockStore(base->block_bytes()), counter_(counter), base_(base) {}

    Status ReadBlock(int64_t block, void* buf) override {
      if (counter_->count_writes_) return base_->ReadBlock(block, buf);
      counter_->Enter();
      Status st = base_->ReadBlock(block, buf);
      counter_->Exit();
      return st;
    }
    Status WriteBlock(int64_t block, const void* buf) override {
      if (!counter_->count_writes_) return base_->WriteBlock(block, buf);
      counter_->Enter();
      Status st = base_->WriteBlock(block, buf);
      counter_->Exit();
      return st;
    }
    bool HasBlock(int64_t block) override { return base_->HasBlock(block); }
    Status Flush() override { return base_->Flush(); }

   private:
    InFlightCounter* const counter_;
    BlockStore* const base_;
  };

  void Enter() {
    std::unique_lock<std::mutex> lock(mu_);
    peak_ = std::max(peak_, ++now_);
    if (release_at_two_ && peak_ >= 2) released_ = true;
    cv_.notify_all();
    cv_.wait_for(lock, std::chrono::milliseconds(100),
                 [this] { return released_; });
  }
  void Exit() {
    std::lock_guard<std::mutex> lock(mu_);
    --now_;
  }

  const bool count_writes_;
  const bool release_at_two_;
  std::vector<std::unique_ptr<Store>> wrappers_;
  std::mutex mu_;
  std::condition_variable cv_;
  int now_ = 0;
  int peak_ = 0;
  bool released_ = false;
};

}  // namespace riot

#endif  // RIOTSHARE_TESTS_TESTING_IN_FLIGHT_STORE_H_
