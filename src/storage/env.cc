#include "storage/env.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "util/logging.h"
#include "util/thread_annotations.h"

namespace riot {

namespace {

class Timer {
 public:
  explicit Timer(IoStats* stats) : stats_(stats) {
    t0_ = std::chrono::steady_clock::now();
  }
  ~Timer() {
    stats_->AddIoNanos(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - t0_)
                           .count());
  }

 private:
  IoStats* stats_;
  std::chrono::steady_clock::time_point t0_;
};

// ---------------------------------------------------------------- PosixEnv

class PosixFile : public File {
 public:
  PosixFile(int fd, IoStats* stats) : fd_(fd), stats_(stats) {}
  ~PosixFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Read(uint64_t offset, size_t n, void* buf) override {
    Timer t(stats_);
    size_t done = 0;
    while (done < n) {
      ssize_t r = ::pread(fd_, static_cast<char*>(buf) + done, n - done,
                          static_cast<off_t>(offset + done));
      if (r < 0) return Status::IoError("pread failed: " + std::string(strerror(errno)));
      if (r == 0) return Status::IoError("pread hit EOF");
      done += static_cast<size_t>(r);
    }
    stats_->bytes_read += static_cast<int64_t>(n);
    ++stats_->read_ops;
    return Status::OK();
  }

  Status Write(uint64_t offset, size_t n, const void* buf) override {
    Timer t(stats_);
    size_t done = 0;
    while (done < n) {
      ssize_t r = ::pwrite(fd_, static_cast<const char*>(buf) + done,
                           n - done, static_cast<off_t>(offset + done));
      if (r < 0) return Status::IoError("pwrite failed: " + std::string(strerror(errno)));
      done += static_cast<size_t>(r);
    }
    stats_->bytes_written += static_cast<int64_t>(n);
    ++stats_->write_ops;
    return Status::OK();
  }

  Result<uint64_t> Size() override {
    struct stat st;
    if (::fstat(fd_, &st) != 0) {
      return Status::IoError("fstat failed");
    }
    return static_cast<uint64_t>(st.st_size);
  }

  Status Sync() override {
    if (::fsync(fd_) != 0) return Status::IoError("fsync failed");
    return Status::OK();
  }

 private:
  int fd_;
  IoStats* stats_;
};

class PosixEnv : public Env {
 public:
  Result<std::unique_ptr<File>> OpenFile(const std::string& path,
                                         bool create) override {
    int flags = O_RDWR;
    if (create) flags |= O_CREAT;
    int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) {
      return Status::IoError("open failed for " + path + ": " +
                             strerror(errno));
    }
    return std::unique_ptr<File>(new PosixFile(fd, &stats_));
  }

  Status DeleteFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      return Status::IoError("unlink failed for " + path);
    }
    return Status::OK();
  }

  bool FileExists(const std::string& path) override {
    return ::access(path.c_str(), F_OK) == 0;
  }
};

// ------------------------------------------------------------------ MemEnv

struct MemFileData {
  Mutex mu;
  std::vector<uint8_t> bytes GUARDED_BY(mu);
};

class MemFile : public File {
 public:
  MemFile(std::shared_ptr<MemFileData> data, IoStats* stats)
      : data_(std::move(data)), stats_(stats) {}

  Status Read(uint64_t offset, size_t n, void* buf) override {
    MutexLock lock(&data_->mu);
    if (offset + n > data_->bytes.size()) {
      return Status::IoError("MemFile read past end");
    }
    std::memcpy(buf, data_->bytes.data() + offset, n);
    stats_->bytes_read += static_cast<int64_t>(n);
    ++stats_->read_ops;
    return Status::OK();
  }

  Status Write(uint64_t offset, size_t n, const void* buf) override {
    MutexLock lock(&data_->mu);
    if (offset + n > data_->bytes.size()) {
      data_->bytes.resize(offset + n);
    }
    std::memcpy(data_->bytes.data() + offset, buf, n);
    stats_->bytes_written += static_cast<int64_t>(n);
    ++stats_->write_ops;
    return Status::OK();
  }

  Result<uint64_t> Size() override {
    MutexLock lock(&data_->mu);
    return static_cast<uint64_t>(data_->bytes.size());
  }

 private:
  std::shared_ptr<MemFileData> data_;
  IoStats* stats_;
};

class MemEnv : public Env {
 public:
  Result<std::unique_ptr<File>> OpenFile(const std::string& path,
                                         bool create) override {
    MutexLock lock(&mu_);
    auto it = files_.find(path);
    if (it == files_.end()) {
      if (!create) return Status::NotFound("no such mem file: " + path);
      it = files_.emplace(path, std::make_shared<MemFileData>()).first;
    }
    return std::unique_ptr<File>(new MemFile(it->second, &stats_));
  }

  Status DeleteFile(const std::string& path) override {
    MutexLock lock(&mu_);
    files_.erase(path);
    return Status::OK();
  }

  bool FileExists(const std::string& path) override {
    MutexLock lock(&mu_);
    return files_.count(path) > 0;
  }

 private:
  Mutex mu_;
  std::map<std::string, std::shared_ptr<MemFileData>> files_ GUARDED_BY(mu_);
};

// ------------------------------------------------------------ ThrottledEnv

class ThrottledFile : public File {
 public:
  ThrottledFile(std::unique_ptr<File> base, IoStats* stats, double rd,
                double wr, double req_s, double sleep_scale)
      : base_(std::move(base)), stats_(stats), rd_(rd), wr_(wr),
        req_s_(req_s), sleep_scale_(sleep_scale) {}

  Status Read(uint64_t offset, size_t n, void* buf) override {
    Timer t(stats_);
    RIOT_RETURN_NOT_OK(base_->Read(offset, n, buf));
    stats_->bytes_read += static_cast<int64_t>(n);
    ++stats_->read_ops;
    Accrue(static_cast<double>(n) / rd_ + req_s_);
    return Status::OK();
  }

  Status Write(uint64_t offset, size_t n, const void* buf) override {
    Timer t(stats_);
    RIOT_RETURN_NOT_OK(base_->Write(offset, n, buf));
    stats_->bytes_written += static_cast<int64_t>(n);
    ++stats_->write_ops;
    Accrue(static_cast<double>(n) / wr_ + req_s_);
    return Status::OK();
  }

  Result<uint64_t> Size() override { return base_->Size(); }
  Status Sync() override { return base_->Sync(); }

 private:
  void Accrue(double modeled_s) {
    stats_->AddModeledSeconds(modeled_s);
    if (sleep_scale_ > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(modeled_s * sleep_scale_));
    }
  }

  std::unique_ptr<File> base_;
  IoStats* stats_;
  double rd_, wr_, req_s_, sleep_scale_;
};

class ThrottledEnv : public Env {
 public:
  ThrottledEnv(Env* base, double rd_mbps, double wr_mbps, double req_ms,
               double sleep_scale)
      : base_(base), rd_(rd_mbps * 1e6), wr_(wr_mbps * 1e6),
        req_s_(req_ms / 1e3), sleep_scale_(sleep_scale) {}

  Result<std::unique_ptr<File>> OpenFile(const std::string& path,
                                         bool create) override {
    auto f = base_->OpenFile(path, create);
    if (!f.ok()) return f.status();
    return std::unique_ptr<File>(new ThrottledFile(
        std::move(f).ValueOrDie(), &stats_, rd_, wr_, req_s_, sleep_scale_));
  }

  Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }

 private:
  Env* base_;
  double rd_, wr_, req_s_, sleep_scale_;
};

// -------------------------------------------------------------- FaultyEnv

class FaultyFile : public File {
 public:
  FaultyFile(std::unique_ptr<File> base, std::atomic<int64_t>* budget,
             FaultOps ops)
      : base_(std::move(base)), budget_(budget), ops_(ops) {}

  Status Read(uint64_t offset, size_t n, void* buf) override {
    if (ops_ == FaultOps::kAll && budget_->fetch_sub(1) <= 0) {
      return Status::IoError("injected read fault");
    }
    return base_->Read(offset, n, buf);
  }
  Status Write(uint64_t offset, size_t n, const void* buf) override {
    const int64_t left = budget_->fetch_sub(1);
    if (ops_ == FaultOps::kOneWrite ? left == 0 : left <= 0) {
      return Status::IoError("injected write fault");
    }
    return base_->Write(offset, n, buf);
  }
  Result<uint64_t> Size() override { return base_->Size(); }
  Status Sync() override { return base_->Sync(); }

 private:
  std::unique_ptr<File> base_;
  std::atomic<int64_t>* budget_;
  FaultOps ops_;
};

class FaultyEnv : public Env {
 public:
  FaultyEnv(Env* base, int64_t fail_after_ops, FaultOps ops)
      : base_(base), budget_(fail_after_ops), ops_(ops) {}

  Result<std::unique_ptr<File>> OpenFile(const std::string& path,
                                         bool create) override {
    auto f = base_->OpenFile(path, create);
    if (!f.ok()) return f.status();
    return std::unique_ptr<File>(
        new FaultyFile(std::move(f).ValueOrDie(), &budget_, ops_));
  }
  Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }

 private:
  Env* base_;
  std::atomic<int64_t> budget_;
  FaultOps ops_;
};

}  // namespace

std::unique_ptr<Env> NewPosixEnv() { return std::make_unique<PosixEnv>(); }
std::unique_ptr<Env> NewMemEnv() { return std::make_unique<MemEnv>(); }
std::unique_ptr<Env> NewThrottledEnv(Env* base, double read_mb_per_s,
                                     double write_mb_per_s,
                                     double per_request_ms,
                                     double sleep_scale) {
  return std::make_unique<ThrottledEnv>(base, read_mb_per_s, write_mb_per_s,
                                        per_request_ms, sleep_scale);
}

std::unique_ptr<Env> NewFaultyEnv(Env* base, int64_t fail_after_ops,
                                  FaultOps ops) {
  return std::make_unique<FaultyEnv>(base, fail_after_ops, ops);
}

}  // namespace riot
