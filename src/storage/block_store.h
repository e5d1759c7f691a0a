// Block stores: fixed-size logical array blocks addressed by their linear
// block index (RIOTStore [26]). Two on-disk formats are provided:
//   * DAF      — Directly Addressable File: block i lives at offset
//                i * block_bytes; zero metadata, ideal for dense arrays.
//   * LAB-tree — Linearized Array B-tree: a B+-tree maps linear block index
//                to a data extent; supports sparse population.
// Both "work virtually identically for dense matrices" (paper Section 6
// Storage Scheme), which tests verify.
#ifndef RIOTSHARE_STORAGE_BLOCK_STORE_H_
#define RIOTSHARE_STORAGE_BLOCK_STORE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "storage/env.h"
#include "util/status.h"

namespace riot {

/// \brief One array's blocks on disk.
///
/// Concurrency contract: ReadBlock and WriteBlock may be called from many
/// threads at once on *distinct* blocks of one store — I/O workers
/// prefetching and writing behind, kernel workers reading and writing —
/// and those calls overlap on the device. Ordering two calls on the *same*
/// block is the caller's job: the BufferPool's load latch (one load per
/// block) and write barrier (a read, prefetch or rewrite waits out an
/// in-flight write), and the executor's dependence edges. HasBlock may run
/// beside any of them, and Flush persists every write that returned
/// before it was called. DAF meets this with positional reads and writes
/// at block * block_bytes; LAB-tree guards its index with a lock of its
/// own and does data-extent I/O outside it. A store wrapper must keep the
/// contract.
class BlockStore {
 public:
  virtual ~BlockStore() = default;

  virtual Status ReadBlock(int64_t block_index, void* buf) = 0;
  virtual Status WriteBlock(int64_t block_index, const void* buf) = 0;
  /// True if the block has ever been written (always true for DAF within
  /// the preallocated range). The executor asks it before handing a write
  /// to the I/O workers, while they may be reading or writing the store.
  virtual bool HasBlock(int64_t block_index) = 0;
  virtual Status Flush() { return Status::OK(); }

  int64_t block_bytes() const { return block_bytes_; }

 protected:
  explicit BlockStore(int64_t block_bytes) : block_bytes_(block_bytes) {}
  int64_t block_bytes_;
};

/// \brief Opens/creates a DAF store of `num_blocks` blocks.
Result<std::unique_ptr<BlockStore>> OpenDaf(Env* env, const std::string& path,
                                            int64_t block_bytes,
                                            int64_t num_blocks);

/// \brief Opens/creates a LAB-tree store.
Result<std::unique_ptr<BlockStore>> OpenLabTree(Env* env,
                                                const std::string& path,
                                                int64_t block_bytes);

enum class StorageFormat { kDaf, kLabTree };

/// \brief Format-dispatched open.
Result<std::unique_ptr<BlockStore>> OpenBlockStore(Env* env,
                                                   const std::string& path,
                                                   StorageFormat format,
                                                   int64_t block_bytes,
                                                   int64_t num_blocks);

}  // namespace riot

#endif  // RIOTSHARE_STORAGE_BLOCK_STORE_H_
