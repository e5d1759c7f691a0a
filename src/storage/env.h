// Environment abstraction for file I/O (RocksDB-style): a pluggable Env
// creates files supporting positional reads/writes, and counts every byte
// and request in IoStats. Three implementations:
//   * PosixEnv     — real files (pread/pwrite),
//   * MemEnv       — in-memory files for tests,
//   * ThrottledEnv — wraps another Env and accrues *modeled* I/O seconds
//     using sustained read/write rates plus a per-request overhead, so
//     benchmarks can report deterministic paper-scale I/O times without
//     owning the paper's 7200 RPM disk.
#ifndef RIOTSHARE_STORAGE_ENV_H_
#define RIOTSHARE_STORAGE_ENV_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "util/status.h"

namespace riot {

/// \brief Byte/request/time accounting for one Env. Safe for concurrent
/// use from I/O worker threads (async prefetch path).
struct IoStats {
  std::atomic<int64_t> bytes_read{0};
  std::atomic<int64_t> bytes_written{0};
  std::atomic<int64_t> read_ops{0};
  std::atomic<int64_t> write_ops{0};

  /// Wall-clock seconds spent inside Read/Write calls. Stored as integer
  /// nanoseconds so accumulation is a plain fetch_add (atomic<double> has no
  /// standard fetch_add before C++20); the clock is nanosecond-granular, so
  /// nothing is lost.
  double io_seconds() const { return static_cast<double>(io_nanos_.load()) * 1e-9; }
  void AddIoNanos(int64_t ns) { io_nanos_.fetch_add(ns); }

  /// Virtual seconds accrued by ThrottledEnv's disk model. Kept as an exact
  /// double sum (CAS loop) so modeled times match the cost model's
  /// volume-to-time conversion bit-for-bit.
  double modeled_seconds() const { return modeled_seconds_.load(); }
  void AddModeledSeconds(double s) {
    double cur = modeled_seconds_.load();
    while (!modeled_seconds_.compare_exchange_weak(cur, cur + s)) {
    }
  }

  void Reset() {
    bytes_read = 0;
    bytes_written = 0;
    read_ops = 0;
    write_ops = 0;
    io_nanos_ = 0;
    modeled_seconds_ = 0.0;
  }

  /// Volume-to-time conversion with the given sustained rates (MB/s).
  double ModelSeconds(double read_mb_per_s, double write_mb_per_s) const {
    return static_cast<double>(bytes_read.load()) / (read_mb_per_s * 1e6) +
           static_cast<double>(bytes_written.load()) / (write_mb_per_s * 1e6);
  }

 private:
  std::atomic<int64_t> io_nanos_{0};
  std::atomic<double> modeled_seconds_{0.0};
};

/// \brief A file supporting positional I/O.
class File {
 public:
  virtual ~File() = default;
  virtual Status Read(uint64_t offset, size_t n, void* buf) = 0;
  virtual Status Write(uint64_t offset, size_t n, const void* buf) = 0;
  virtual Result<uint64_t> Size() = 0;
  virtual Status Sync() { return Status::OK(); }
};

class Env {
 public:
  virtual ~Env() = default;
  /// Opens (creating if needed when `create`) a file for read/write.
  virtual Result<std::unique_ptr<File>> OpenFile(const std::string& path,
                                                 bool create) = 0;
  virtual Status DeleteFile(const std::string& path) = 0;
  virtual bool FileExists(const std::string& path) = 0;

  IoStats& stats() { return stats_; }
  const IoStats& stats() const { return stats_; }

 protected:
  IoStats stats_;
};

/// \brief Real filesystem environment.
std::unique_ptr<Env> NewPosixEnv();

/// \brief In-memory environment (tests, deterministic benchmarks).
std::unique_ptr<Env> NewMemEnv();

/// \brief Wraps `base` (not owned) accruing modeled seconds per request:
/// bytes/rate + per_request_ms. Stats live on the throttled Env. When
/// `sleep_scale` > 0, each request additionally *blocks* for
/// modeled_duration * sleep_scale of real time, turning the virtual disk
/// into a physically slow one — this is what the pipelined executor's
/// overlap benchmarks run against.
std::unique_ptr<Env> NewThrottledEnv(Env* base, double read_mb_per_s,
                                     double write_mb_per_s,
                                     double per_request_ms = 0.0,
                                     double sleep_scale = 0.0);

/// Which operations a FaultyEnv counts and fails.
enum class FaultOps { kAll, kWrites, kOneWrite };

/// \brief Failure injection: wraps `base` (not owned) and fails every
/// counted operation with IoError once `fail_after_ops` of them have
/// succeeded (counted across all files). kAll counts Reads and Writes;
/// kWrites counts and fails only Writes (reads always pass), so the
/// (fail_after_ops + 1)-th write is the first to fail. kOneWrite fails
/// that write alone and lets every later one pass (a transient fault the
/// system must recover from). Used to test error propagation through the
/// storage, executor, serving, and benchmark layers.
std::unique_ptr<Env> NewFaultyEnv(Env* base, int64_t fail_after_ops,
                                  FaultOps ops = FaultOps::kAll);

}  // namespace riot

#endif  // RIOTSHARE_STORAGE_ENV_H_
