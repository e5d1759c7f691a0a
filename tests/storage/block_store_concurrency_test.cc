// The BlockStore concurrency contract (storage/block_store.h): ReadBlock
// and WriteBlock may run from many threads at once on distinct blocks of
// one store, and HasBlock beside them. Each format is checked over an
// in-memory Env, real files, and a slept ThrottledEnv whose requests
// overlap in time. Threads write and read back blocks of their own; the
// LAB-tree threads insert new blocks into one index concurrently, and the
// store is then flushed, reopened and read back in full. A TSan target
// (the sanitizer legs run the fast suite).
#include <gtest/gtest.h>
#include <stdlib.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "storage/block_store.h"
#include "storage/env.h"

namespace riot {
namespace {

constexpr int kThreads = 6;
constexpr int64_t kBlocksPerThread = 60;  // 360 keys: LAB-tree leaves split
constexpr int64_t kBlocks = kThreads * kBlocksPerThread;
constexpr int64_t kBlockBytes = 512;

enum class EnvKind { kMem, kPosix, kThrottled };

// Byte i of block b after write round r.
uint8_t Pattern(int64_t b, int r, size_t i) {
  return static_cast<uint8_t>(b * 131 + r * 29 + static_cast<int64_t>(i) * 7 +
                              (b >> 3));
}

std::vector<uint8_t> BlockImage(int64_t b, int r) {
  std::vector<uint8_t> v(kBlockBytes);
  for (size_t i = 0; i < v.size(); ++i) v[i] = Pattern(b, r, i);
  return v;
}

class BlockStoreConcurrencyTest
    : public ::testing::TestWithParam<std::tuple<StorageFormat, EnvKind>> {
 protected:
  void SetUp() override {
    switch (std::get<1>(GetParam())) {
      case EnvKind::kMem:
        env_ = NewMemEnv();
        path_ = "/store";
        break;
      case EnvKind::kPosix: {
        std::string tmpl =
            (std::filesystem::temp_directory_path() / "riot_bsc_XXXXXX")
                .string();
        ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
        dir_ = tmpl;
        env_ = NewPosixEnv();
        path_ = dir_ + "/store";
        break;
      }
      case EnvKind::kThrottled:
        // The paper's disk (96/60 MB/s + 0.05 ms per request), slept: each
        // call blocks its thread for its modeled time, so calls overlap.
        base_ = NewMemEnv();
        env_ = NewThrottledEnv(base_.get(), 96.0, 60.0, 0.05,
                               /*sleep_scale=*/1.0);
        path_ = "/store";
        break;
    }
  }

  void TearDown() override {
    if (!dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir_, ec);
    }
  }

  std::unique_ptr<BlockStore> Open() {
    auto s = OpenBlockStore(env_.get(), path_, std::get<0>(GetParam()),
                            kBlockBytes, kBlocks);
    EXPECT_TRUE(s.ok()) << s.status().ToString();
    return s.ok() ? std::move(s).ValueOrDie() : nullptr;
  }

  std::unique_ptr<Env> base_;  // under a ThrottledEnv
  std::unique_ptr<Env> env_;
  std::string dir_;  // PosixEnv temp dir
  std::string path_;
};

TEST_P(BlockStoreConcurrencyTest, DistinctBlocksFromManyThreads) {
  std::unique_ptr<BlockStore> store = Open();
  ASSERT_NE(store, nullptr);
  // written[b]: 1 + the last round block b was written in (0 = never).
  std::vector<std::atomic<int>> written(kBlocks);
  std::atomic<int> failures{0};
  std::atomic<int> writers_left{kThreads};

  // Thread t owns blocks t, t + kThreads, ... so the threads' first writes
  // interleave in the LAB-tree index. Round 0 creates every block, round 1
  // overwrites; each write is read back at once.
  std::atomic<int64_t> polls{0};
  auto owner = [&](int t) {
    while (polls.load() == 0) std::this_thread::yield();  // poller is up
    std::vector<uint8_t> in(kBlockBytes);
    for (int r = 0; r < 2; ++r) {
      for (int64_t b = t; b < kBlocks; b += kThreads) {
        const std::vector<uint8_t> out = BlockImage(b, r);
        if (!store->WriteBlock(b, out.data()).ok() ||
            !store->ReadBlock(b, in.data()).ok() || in != out) {
          ++failures;
        }
        written[size_t(b)].store(r + 1, std::memory_order_release);
      }
    }
    --writers_left;
  };
  // HasBlock runs beside the owners: a block written once stays present.
  auto poller = [&] {
    int64_t b = 0;
    do {
      const bool was_written =
          written[size_t(b)].load(std::memory_order_acquire) > 0;
      if (was_written && !store->HasBlock(b)) ++failures;
      ++polls;
      b = (b + 37) % kBlocks;
    } while (writers_left.load() > 0);
  };

  std::vector<std::thread> threads;
  threads.emplace_back(poller);
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(owner, t);
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  // Every block holds its last round, through this handle and, after a
  // flush, through a freshly opened one.
  ASSERT_TRUE(store->Flush().ok());
  store.reset();
  store = Open();
  ASSERT_NE(store, nullptr);
  std::vector<uint8_t> in(kBlockBytes);
  for (int64_t b = 0; b < kBlocks; ++b) {
    ASSERT_TRUE(store->HasBlock(b)) << b;
    ASSERT_TRUE(store->ReadBlock(b, in.data()).ok()) << b;
    ASSERT_EQ(in, BlockImage(b, 1)) << "block " << b;
  }
}

TEST_P(BlockStoreConcurrencyTest, ReadersBesideWriters) {
  // Half the threads reread the settled lower half of the store while the
  // other half write the upper half (new blocks, in a LAB-tree): no read
  // sees a torn or foreign image.
  std::unique_ptr<BlockStore> store = Open();
  ASSERT_NE(store, nullptr);
  const int64_t half = kBlocks / 2;
  const int64_t stride = kThreads / 2;
  for (int64_t b = 0; b < half; ++b) {
    ASSERT_TRUE(store->WriteBlock(b, BlockImage(b, 0).data()).ok());
  }
  std::atomic<int> failures{0};
  auto reader = [&](int64_t first) {
    std::vector<uint8_t> in(kBlockBytes);
    for (int64_t b = first; b < half; b += stride) {
      if (!store->ReadBlock(b, in.data()).ok() || in != BlockImage(b, 0)) {
        ++failures;
      }
    }
  };
  auto writer = [&](int64_t first) {
    for (int64_t b = half + first; b < kBlocks; b += stride) {
      if (!store->WriteBlock(b, BlockImage(b, 1).data()).ok()) ++failures;
    }
  };
  std::vector<std::thread> threads;
  for (int64_t i = 0; i < stride; ++i) {
    threads.emplace_back(reader, i);
    threads.emplace_back(writer, i);
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  std::vector<uint8_t> in(kBlockBytes);
  for (int64_t b = 0; b < kBlocks; ++b) {
    ASSERT_TRUE(store->ReadBlock(b, in.data()).ok()) << b;
    ASSERT_EQ(in, BlockImage(b, b < half ? 0 : 1)) << "block " << b;
  }
}

std::string ParamName(
    const ::testing::TestParamInfo<std::tuple<StorageFormat, EnvKind>>& info) {
  const char* format =
      std::get<0>(info.param) == StorageFormat::kDaf ? "Daf" : "LabTree";
  const char* env = std::get<1>(info.param) == EnvKind::kMem     ? "Mem"
                    : std::get<1>(info.param) == EnvKind::kPosix ? "Posix"
                                                                 : "Throttled";
  return std::string(format) + env;
}

INSTANTIATE_TEST_SUITE_P(
    FormatsAndEnvs, BlockStoreConcurrencyTest,
    ::testing::Combine(::testing::Values(StorageFormat::kDaf,
                                         StorageFormat::kLabTree),
                       ::testing::Values(EnvKind::kMem, EnvKind::kPosix,
                                         EnvKind::kThrottled)),
    ParamName);

}  // namespace
}  // namespace riot
