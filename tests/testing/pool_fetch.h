// BufferPool fetch that fills a miss from the block's store the way the
// executor does: the pool makes no store call of its own, so the creator
// of a frame reads it and publishes it with MarkLoaded (or discards it on a
// failed read). Concurrent fetches of the block coalesce on that one read.
#ifndef RIOTSHARE_TESTS_TESTING_POOL_FETCH_H_
#define RIOTSHARE_TESTS_TESTING_POOL_FETCH_H_

#include <cstdint>

#include "storage/block_store.h"
#include "storage/buffer_pool.h"
#include "util/status.h"

namespace riot {

inline Result<BufferPool::Frame*> FetchFilled(BufferPool* pool,
                                              BlockStore* store,
                                              int array_id, int64_t block,
                                              PoolAccount* account = nullptr) {
  bool resident = false;
  auto f = pool->Fetch(array_id, block, store->block_bytes(), &resident,
                       account, /*coalesce_loads=*/true);
  if (!f.ok() || resident) return f;
  Status st = store->ReadBlock(block, (*f)->data.data());
  if (!st.ok()) {
    pool->Discard(*f, account);
    return st;
  }
  pool->MarkLoaded(*f);
  return f;
}

}  // namespace riot

#endif  // RIOTSHARE_TESTS_TESTING_POOL_FETCH_H_
