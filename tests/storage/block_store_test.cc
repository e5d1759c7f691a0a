#include "storage/block_store.h"

#include <gtest/gtest.h>

#include <vector>

namespace riot {
namespace {

class BlockStoreTest : public ::testing::TestWithParam<StorageFormat> {
 protected:
  Result<std::unique_ptr<BlockStore>> Open(Env* env, const std::string& path,
                                           int64_t block_bytes,
                                           int64_t num_blocks) {
    return OpenBlockStore(env, path, GetParam(), block_bytes, num_blocks);
  }
};

TEST_P(BlockStoreTest, WriteReadRoundTrip) {
  auto env = NewMemEnv();
  auto store = Open(env.get(), "/a", 256, 10);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  std::vector<uint8_t> out(256), in(256);
  for (int64_t b = 0; b < 10; ++b) {
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<uint8_t>(b * 31 + i);
    }
    ASSERT_TRUE((*store)->WriteBlock(b, out.data()).ok());
    ASSERT_TRUE((*store)->ReadBlock(b, in.data()).ok());
    EXPECT_EQ(in, out);
  }
}

TEST_P(BlockStoreTest, OverwriteReplacesContent) {
  auto env = NewMemEnv();
  auto store = Open(env.get(), "/a", 64, 4);
  std::vector<uint8_t> v1(64, 0xAA), v2(64, 0x55), in(64);
  ASSERT_TRUE((*store)->WriteBlock(2, v1.data()).ok());
  ASSERT_TRUE((*store)->WriteBlock(2, v2.data()).ok());
  ASSERT_TRUE((*store)->ReadBlock(2, in.data()).ok());
  EXPECT_EQ(in, v2);
}

TEST_P(BlockStoreTest, OutOfOrderWrites) {
  auto env = NewMemEnv();
  auto store = Open(env.get(), "/a", 64, 100);
  std::vector<uint8_t> buf(64), in(64);
  // Write in a scattered order (exercises LAB-tree insertion paths).
  std::vector<int64_t> order = {57, 3, 99, 0, 42, 17, 58, 1, 98, 50};
  for (int64_t b : order) {
    std::fill(buf.begin(), buf.end(), static_cast<uint8_t>(b));
    ASSERT_TRUE((*store)->WriteBlock(b, buf.data()).ok());
  }
  for (int64_t b : order) {
    ASSERT_TRUE((*store)->ReadBlock(b, in.data()).ok());
    EXPECT_EQ(in[0], static_cast<uint8_t>(b));
    EXPECT_TRUE((*store)->HasBlock(b));
  }
}

TEST_P(BlockStoreTest, PersistenceAcrossReopen) {
  auto env = NewMemEnv();
  std::vector<uint8_t> buf(128, 0x3C), in(128);
  {
    auto store = Open(env.get(), "/p", 128, 8);
    ASSERT_TRUE((*store)->WriteBlock(5, buf.data()).ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }
  {
    auto store = Open(env.get(), "/p", 128, 8);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->ReadBlock(5, in.data()).ok());
    EXPECT_EQ(in, buf);
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, BlockStoreTest,
                         ::testing::Values(StorageFormat::kDaf,
                                           StorageFormat::kLabTree),
                         [](const auto& info) {
                           return info.param == StorageFormat::kDaf
                                      ? "Daf"
                                      : "LabTree";
                         });

TEST(DafTest, IndexOutOfRangeRejected) {
  auto env = NewMemEnv();
  auto store = OpenDaf(env.get(), "/d", 64, 4);
  std::vector<uint8_t> buf(64);
  EXPECT_FALSE((*store)->WriteBlock(4, buf.data()).ok());
  EXPECT_FALSE((*store)->ReadBlock(-1, buf.data()).ok());
}

TEST(LabTreeTest, MissingBlockIsNotFound) {
  auto env = NewMemEnv();
  auto store = OpenLabTree(env.get(), "/t", 64);
  std::vector<uint8_t> buf(64);
  auto st = (*store)->ReadBlock(3, buf.data());
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_FALSE((*store)->HasBlock(3));
}

TEST(LabTreeTest, ManyKeysForceSplits) {
  // > 255 keys forces at least one leaf split and an internal root. The
  // split tree survives a reopen: an internal page keeps its last child
  // too, one more than it has keys.
  auto env = NewMemEnv();
  auto store = OpenLabTree(env.get(), "/t", 16);
  std::vector<uint8_t> buf(16), in(16);
  const int64_t n = 600;
  for (int64_t b = 0; b < n; ++b) {
    std::fill(buf.begin(), buf.end(), static_cast<uint8_t>(b % 251));
    ASSERT_TRUE((*store)->WriteBlock(b * 7 % n, buf.data()).ok())
        << "write " << b;
  }
  for (int64_t b = 0; b < n; ++b) {
    ASSERT_TRUE((*store)->ReadBlock(b, in.data()).ok()) << "read " << b;
  }
  ASSERT_TRUE((*store)->Flush().ok());
  store = OpenLabTree(env.get(), "/t", 16);
  ASSERT_TRUE(store.ok());
  for (int64_t b = 0; b < n; ++b) {
    // Block b * 7 % n was written in round b.
    ASSERT_TRUE((*store)->ReadBlock(b * 7 % n, in.data()).ok())
        << "reread " << b;
    EXPECT_EQ(in[0], static_cast<uint8_t>(b % 251)) << b;
  }
}

TEST(FormatEquivalenceTest, DafAndLabTreeSeeIdenticalData) {
  // Paper Section 6: LAB-tree and DAF "work virtually identically for dense
  // matrices" — same content in, same content out.
  auto env = NewMemEnv();
  auto daf = OpenDaf(env.get(), "/daf", 512, 32);
  auto lab = OpenLabTree(env.get(), "/lab", 512);
  std::vector<uint8_t> buf(512), a(512), b(512);
  for (int64_t blk = 0; blk < 32; ++blk) {
    for (size_t i = 0; i < buf.size(); ++i) {
      buf[i] = static_cast<uint8_t>((blk * 131 + i * 17) % 256);
    }
    ASSERT_TRUE((*daf)->WriteBlock(blk, buf.data()).ok());
    ASSERT_TRUE((*lab)->WriteBlock(blk, buf.data()).ok());
  }
  for (int64_t blk = 0; blk < 32; ++blk) {
    ASSERT_TRUE((*daf)->ReadBlock(blk, a.data()).ok());
    ASSERT_TRUE((*lab)->ReadBlock(blk, b.data()).ok());
    EXPECT_EQ(a, b);
  }
}

}  // namespace
}  // namespace riot
