// LAB-tree (Linearized Array B-tree, RIOTStore [26]): a paged B+-tree
// mapping the linearized block index of an array block to the file extent
// holding its data. Node pages and data extents share one file; node pages
// are cached in memory with write-back on Flush so steady-state per-block
// I/O matches DAF exactly (one data-extent read/write per block access).
#include <algorithm>
#include <cstring>
#include <map>
#include <mutex>
#include <vector>

#include "storage/block_store.h"
#include "util/logging.h"

namespace riot {

namespace {

constexpr uint32_t kMagic = 0x4C414254;  // "LABT"
constexpr int64_t kPageBytes = 4096;
// Page layout: [u8 is_leaf][u8 pad][u16 nkeys][u32 pad][i64 tail]
//              then nkeys * (i64 key, i64 value-or-child).
// `tail` is a leaf's next_leaf, and an internal node's last child (it has
// nkeys + 1 children, one more than the entries hold).
constexpr size_t kPageHeader = 16;
constexpr size_t kEntryBytes = 16;
constexpr size_t kMaxKeys = (kPageBytes - kPageHeader) / kEntryBytes;  // 255

struct Node {
  bool is_leaf = true;
  int64_t next_leaf = -1;  // leaf chain (range scans)
  std::vector<int64_t> keys;
  std::vector<int64_t> vals;  // leaf: data offsets; internal: child page ids
  bool dirty = false;
};

struct Header {
  uint32_t magic = kMagic;
  int64_t block_bytes = 0;
  int64_t root_page = -1;
  int64_t next_page_id = 0;
  int64_t next_free_offset = kPageBytes;  // byte 0.. is the header page
};

class LabTreeStore : public BlockStore {
 public:
  LabTreeStore(std::unique_ptr<File> file, int64_t block_bytes)
      : BlockStore(block_bytes), file_(std::move(file)) {}

  Status Open() {
    auto size = file_->Size();
    if (!size.ok()) return size.status();
    if (*size >= sizeof(Header)) {
      RIOT_RETURN_NOT_OK(file_->Read(0, sizeof(Header), &hdr_));
      if (hdr_.magic != kMagic) {
        return Status::IoError("LAB-tree: bad magic");
      }
      if (hdr_.block_bytes != block_bytes_) {
        return Status::InvalidArgument("LAB-tree: block size mismatch");
      }
      return Status::OK();
    }
    // Fresh tree: a single empty leaf as root.
    hdr_.block_bytes = block_bytes_;
    hdr_.root_page = AllocPage(/*is_leaf=*/true);
    return WriteHeader();
  }

  Status ReadBlock(int64_t block_index, void* buf) override {
    int64_t off;
    if (!LockedLookup(block_index, &off)) {
      return Status::NotFound("LAB-tree: block " +
                              std::to_string(block_index) + " not present");
    }
    return file_->Read(static_cast<uint64_t>(off),
                       static_cast<size_t>(block_bytes_), buf);
  }

  Status WriteBlock(int64_t block_index, const void* buf) override {
    int64_t off;
    {
      std::lock_guard<std::mutex> lock(index_mu_);
      if (!Lookup(block_index, &off)) {
        off = hdr_.next_free_offset;
        hdr_.next_free_offset += block_bytes_;
        hdr_dirty_ = true;
        RIOT_RETURN_NOT_OK(Insert(block_index, off));
      }
    }
    return file_->Write(static_cast<uint64_t>(off),
                        static_cast<size_t>(block_bytes_), buf);
  }

  bool HasBlock(int64_t block_index) override {
    int64_t off;
    return LockedLookup(block_index, &off);
  }

  Status Flush() override {
    std::lock_guard<std::mutex> lock(index_mu_);
    for (auto& [id, node] : cache_) {
      if (node.dirty) {
        RIOT_RETURN_NOT_OK(WritePage(id, node));
        node.dirty = false;
      }
    }
    if (hdr_dirty_) {
      RIOT_RETURN_NOT_OK(WriteHeader());
      hdr_dirty_ = false;
    }
    return file_->Sync();
  }

 private:
  int64_t AllocPage(bool is_leaf) {
    int64_t id = hdr_.next_page_id++;
    Node n;
    n.is_leaf = is_leaf;
    n.dirty = true;
    // Page storage interleaves with data extents; allocate from the shared
    // free pointer.
    page_offset_[id] = hdr_.next_free_offset;
    hdr_.next_free_offset += kPageBytes;
    hdr_dirty_ = true;
    cache_[id] = std::move(n);
    return id;
  }

  Status WriteHeader() {
    // Page offsets must be recoverable: persist them after the fixed header
    // in the header page (supports up to ~250 node pages, plenty for the
    // block counts in scope; grows into a page directory if exceeded).
    struct Persist {
      Header hdr;
      int64_t count;
      int64_t entries[240][2];
    } p;
    std::memset(&p, 0, sizeof(p));
    p.hdr = hdr_;
    RIOT_CHECK_LE(page_offset_.size(), 240u)
        << "LAB-tree node directory overflow";
    p.count = static_cast<int64_t>(page_offset_.size());
    int64_t i = 0;
    for (auto [id, off] : page_offset_) {
      p.entries[i][0] = id;
      p.entries[i][1] = off;
      ++i;
    }
    static_assert(sizeof(Persist) <= kPageBytes);
    return file_->Write(0, sizeof(Persist), &p);
  }

  Result<Node*> GetNode(int64_t id) {
    auto it = cache_.find(id);
    if (it != cache_.end()) return &it->second;
    // Load page offsets lazily from the header page directory.
    if (page_offset_.find(id) == page_offset_.end()) {
      struct Persist {
        Header hdr;
        int64_t count;
        int64_t entries[240][2];
      } p;
      RIOT_RETURN_NOT_OK(file_->Read(0, sizeof(p), &p));
      for (int64_t i = 0; i < p.count; ++i) {
        page_offset_[p.entries[i][0]] = p.entries[i][1];
      }
    }
    auto off_it = page_offset_.find(id);
    if (off_it == page_offset_.end()) {
      return Status::Internal("LAB-tree: unknown page id " +
                              std::to_string(id));
    }
    std::vector<uint8_t> raw(kPageBytes);
    RIOT_RETURN_NOT_OK(file_->Read(static_cast<uint64_t>(off_it->second),
                                   kPageBytes, raw.data()));
    Node n;
    n.is_leaf = raw[0] != 0;
    uint16_t nkeys;
    std::memcpy(&nkeys, raw.data() + 2, 2);
    int64_t tail;
    std::memcpy(&tail, raw.data() + 8, 8);
    n.keys.resize(nkeys);
    n.vals.resize(nkeys);
    for (uint16_t k = 0; k < nkeys; ++k) {
      std::memcpy(&n.keys[k], raw.data() + kPageHeader + k * kEntryBytes, 8);
      std::memcpy(&n.vals[k],
                  raw.data() + kPageHeader + k * kEntryBytes + 8, 8);
    }
    if (n.is_leaf) {
      n.next_leaf = tail;
    } else {
      n.vals.push_back(tail);
    }
    auto [ins, ok] = cache_.emplace(id, std::move(n));
    (void)ok;
    return &ins->second;
  }

  Status WritePage(int64_t id, const Node& n) {
    std::vector<uint8_t> raw(kPageBytes, 0);
    raw[0] = n.is_leaf ? 1 : 0;
    uint16_t nkeys = static_cast<uint16_t>(n.keys.size());
    std::memcpy(raw.data() + 2, &nkeys, 2);
    const int64_t tail = n.is_leaf ? n.next_leaf : n.vals.back();
    std::memcpy(raw.data() + 8, &tail, 8);
    for (uint16_t k = 0; k < nkeys; ++k) {
      std::memcpy(raw.data() + kPageHeader + k * kEntryBytes, &n.keys[k], 8);
      std::memcpy(raw.data() + kPageHeader + k * kEntryBytes + 8, &n.vals[k],
                  8);
    }
    auto it = page_offset_.find(id);
    RIOT_CHECK(it != page_offset_.end());
    return file_->Write(static_cast<uint64_t>(it->second), kPageBytes,
                        raw.data());
  }

  bool LockedLookup(int64_t key, int64_t* value) {
    std::lock_guard<std::mutex> lock(index_mu_);
    return Lookup(key, value);
  }

  bool Lookup(int64_t key, int64_t* value) {
    int64_t id = hdr_.root_page;
    for (;;) {
      auto node = GetNode(id);
      if (!node.ok()) return false;
      Node* n = *node;
      if (n->is_leaf) {
        auto it = std::lower_bound(n->keys.begin(), n->keys.end(), key);
        if (it == n->keys.end() || *it != key) return false;
        *value = n->vals[static_cast<size_t>(it - n->keys.begin())];
        return true;
      }
      // Internal: child i covers keys < keys[i]; last child covers the rest.
      size_t i = static_cast<size_t>(
          std::upper_bound(n->keys.begin(), n->keys.end(), key) -
          n->keys.begin());
      id = n->vals[i];
    }
  }

  // Inserts key -> value, splitting as needed (recursive; returns the
  // (separator, new right sibling) when a split propagates).
  struct SplitResult {
    bool split = false;
    int64_t sep_key = 0;
    int64_t right_id = -1;
  };

  Status InsertRec(int64_t id, int64_t key, int64_t value, SplitResult* out) {
    RIOT_ASSIGN_OR_RETURN(Node * n, GetNode(id));
    if (n->is_leaf) {
      auto it = std::lower_bound(n->keys.begin(), n->keys.end(), key);
      size_t pos = static_cast<size_t>(it - n->keys.begin());
      if (it != n->keys.end() && *it == key) {
        n->vals[pos] = value;
        n->dirty = true;
        return Status::OK();
      }
      n->keys.insert(n->keys.begin() + static_cast<std::ptrdiff_t>(pos), key);
      n->vals.insert(n->vals.begin() + static_cast<std::ptrdiff_t>(pos),
                     value);
      n->dirty = true;
      if (n->keys.size() > kMaxKeys) SplitLeaf(id, out);
      return Status::OK();
    }
    size_t i = static_cast<size_t>(
        std::upper_bound(n->keys.begin(), n->keys.end(), key) -
        n->keys.begin());
    SplitResult child_split;
    RIOT_RETURN_NOT_OK(InsertRec(n->vals[i], key, value, &child_split));
    if (child_split.split) {
      n = *GetNode(id);  // re-fetch (cache stable, but be explicit)
      n->keys.insert(n->keys.begin() + static_cast<std::ptrdiff_t>(i),
                     child_split.sep_key);
      n->vals.insert(n->vals.begin() + static_cast<std::ptrdiff_t>(i + 1),
                     child_split.right_id);
      n->dirty = true;
      if (n->keys.size() > kMaxKeys) SplitInternal(id, out);
    }
    return Status::OK();
  }

  void SplitLeaf(int64_t id, SplitResult* out) {
    Node* n = &cache_[id];
    int64_t right_id = AllocPage(/*is_leaf=*/true);
    n = &cache_[id];  // AllocPage may rehash
    Node* r = &cache_[right_id];
    size_t mid = n->keys.size() / 2;
    r->keys.assign(n->keys.begin() + static_cast<std::ptrdiff_t>(mid),
                   n->keys.end());
    r->vals.assign(n->vals.begin() + static_cast<std::ptrdiff_t>(mid),
                   n->vals.end());
    n->keys.resize(mid);
    n->vals.resize(mid);
    r->next_leaf = n->next_leaf;
    n->next_leaf = right_id;
    n->dirty = r->dirty = true;
    out->split = true;
    out->sep_key = r->keys.front();
    out->right_id = right_id;
  }

  void SplitInternal(int64_t id, SplitResult* out) {
    Node* n = &cache_[id];
    int64_t right_id = AllocPage(/*is_leaf=*/false);
    n = &cache_[id];
    Node* r = &cache_[right_id];
    r->is_leaf = false;
    size_t mid = n->keys.size() / 2;
    out->sep_key = n->keys[mid];
    r->keys.assign(n->keys.begin() + static_cast<std::ptrdiff_t>(mid) + 1,
                   n->keys.end());
    r->vals.assign(n->vals.begin() + static_cast<std::ptrdiff_t>(mid) + 1,
                   n->vals.end());
    n->keys.resize(mid);
    n->vals.resize(mid + 1);
    n->dirty = r->dirty = true;
    out->split = true;
    out->right_id = right_id;
  }

  Status Insert(int64_t key, int64_t value) {
    SplitResult split;
    RIOT_RETURN_NOT_OK(InsertRec(hdr_.root_page, key, value, &split));
    if (split.split) {
      int64_t new_root = AllocPage(/*is_leaf=*/false);
      Node* root = &cache_[new_root];
      root->is_leaf = false;
      root->keys = {split.sep_key};
      root->vals = {hdr_.root_page, split.right_id};
      root->dirty = true;
      hdr_.root_page = new_root;
      hdr_dirty_ = true;
    }
    return Status::OK();
  }

  std::unique_ptr<File> file_;
  // Guards the index (header, node-page cache and page directory), which
  // lookups mutate too: a miss loads a node page into the cache. This is
  // the store's only lock. Data-extent I/O runs outside it, so calls on
  // distinct blocks overlap, and HasBlock never waits for a block read or
  // write (the BlockStore contract).
  std::mutex index_mu_;
  Header hdr_;
  bool hdr_dirty_ = false;
  std::map<int64_t, Node> cache_;
  std::map<int64_t, int64_t> page_offset_;
};

}  // namespace

Result<std::unique_ptr<BlockStore>> OpenLabTree(Env* env,
                                                const std::string& path,
                                                int64_t block_bytes) {
  auto file = env->OpenFile(path, /*create=*/true);
  if (!file.ok()) return file.status();
  auto store =
      std::make_unique<LabTreeStore>(std::move(file).ValueOrDie(), block_bytes);
  RIOT_RETURN_NOT_OK(store->Open());
  return std::unique_ptr<BlockStore>(std::move(store));
}

}  // namespace riot
