#include "core/access_plan.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <tuple>
#include <utility>

#include "util/logging.h"

namespace riot {

AccessScript BuildAccessScript(const Program& program,
                               const RealizedPlan& rp) {
  AccessScript script;
  script.num_groups = rp.num_groups;
  script.per_pos.resize(rp.order.size());

  // Retention lookup: (source position, array, block) -> furthest end group.
  std::map<std::tuple<size_t, int, int64_t>, size_t> retain_at;
  for (const auto& span : rp.spans) {
    auto key = std::make_tuple(span.begin_pos, span.array_id, span.block);
    auto it = retain_at.find(key);
    if (it == retain_at.end() || it->second < span.end_group) {
      retain_at[key] = span.end_group;
    }
  }

  // Latest write position so far per (array, block), for read dep_pos.
  std::map<std::pair<int, int64_t>, size_t> last_write;

  for (size_t pos = 0; pos < rp.order.size(); ++pos) {
    const auto& inst = rp.order[pos];
    const Statement& st = program.statement(inst.stmt_id);
    script.per_pos[pos].first = static_cast<uint32_t>(script.records.size());
    int64_t inst_bytes = 0;
    // Reads first, then the write — the engine's fetch order (a read may
    // populate the frame the write access aliases).
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t ai = 0; ai < st.accesses.size(); ++ai) {
        const Access& a = st.accesses[ai];
        if ((pass == 0) != (a.type == AccessType::kRead)) continue;
        if (!a.ActiveAt(inst.iter)) continue;
        const ArrayInfo& arr = program.array(a.array_id);
        BlockAccessRecord rec;
        rec.pos = pos;
        rec.group = rp.group_of[pos];
        rec.stmt_id = inst.stmt_id;
        rec.access_idx = static_cast<int>(ai);
        rec.array_id = a.array_id;
        rec.block = arr.LinearBlockIndex(a.BlockAt(inst.iter));
        rec.bytes = arr.BlockBytes();
        rec.type = a.type;
        AccessInstanceKey key{inst.stmt_id, inst.iter, rec.access_idx};
        if (a.type == AccessType::kRead) {
          rec.saved = rp.saved_reads.count(key) > 0;
          auto w = last_write.find({rec.array_id, rec.block});
          if (w != last_write.end()) {
            rec.dep_pos = static_cast<int64_t>(w->second);
          }
        } else {
          rec.saved = rp.saved_writes.count(key) > 0 ||
                      rp.elided_writes.count(key) > 0;
          last_write[{rec.array_id, rec.block}] = pos;
        }
        auto rit = retain_at.find(std::make_tuple(pos, rec.array_id,
                                                  rec.block));
        if (rit != retain_at.end()) {
          rec.retain_until_group = static_cast<int64_t>(rit->second);
        }
        inst_bytes += rec.bytes;
        script.records.push_back(rec);
      }
    }
    script.per_pos[pos].second = static_cast<uint32_t>(script.records.size());
    script.max_instance_bytes =
        std::max(script.max_instance_bytes, inst_bytes);
  }
  script.required_bytes = RequiredBytesPerPosition(program, rp);

  // Annotation pass: per-(array, block) use positions, then each record's
  // next use (the first use strictly after its own position).
  for (const BlockAccessRecord& rec : script.records) {
    std::vector<int64_t>& uses =
        script.block_uses[{rec.array_id, rec.block}];
    const int64_t pos = static_cast<int64_t>(rec.pos);
    if (uses.empty() || uses.back() != pos) uses.push_back(pos);
  }
  for (BlockAccessRecord& rec : script.records) {
    const std::vector<int64_t>& uses =
        script.block_uses.at({rec.array_id, rec.block});
    auto next = std::upper_bound(uses.begin(), uses.end(),
                                 static_cast<int64_t>(rec.pos));
    rec.next_use_pos = next == uses.end() ? -1 : *next;
  }
  return script;
}

std::vector<int64_t> RequiredBytesPerPosition(const Program& program,
                                              const RealizedPlan& rp) {
  std::vector<int64_t> required(rp.order.size(), 0);
  std::map<std::pair<int, int64_t>, int64_t> retained;  // block -> max end grp
  std::multimap<size_t, const RetentionSpan*> by_begin;
  for (const auto& span : rp.spans) by_begin.emplace(span.begin_pos, &span);
  auto next_span = by_begin.begin();
  for (size_t pos = 0; pos < rp.order.size(); ++pos) {
    const int64_t group = static_cast<int64_t>(rp.group_of[pos]);
    // Expire retentions whose end group has completed.
    for (auto it = retained.begin(); it != retained.end();) {
      it = it->second < group ? retained.erase(it) : std::next(it);
    }
    // Activate spans whose source access is this instance.
    for (; next_span != by_begin.end() && next_span->first <= pos;
         ++next_span) {
      const RetentionSpan* s = next_span->second;
      int64_t& end = retained[{s->array_id, s->block}];
      end = std::max(end, static_cast<int64_t>(s->end_group));
    }
    // Live set: this instance's blocks plus retained blocks.
    const auto& inst = rp.order[pos];
    std::set<std::pair<int, int64_t>> live;
    for (const auto& a : program.statement(inst.stmt_id).accesses) {
      if (!a.ActiveAt(inst.iter)) continue;
      live.insert({a.array_id, program.array(a.array_id)
                                   .LinearBlockIndex(a.BlockAt(inst.iter))});
    }
    for (const auto& [key, end] : retained) live.insert(key);
    for (const auto& [array_id, lin] : live) {
      required[pos] += program.array(array_id).BlockBytes();
    }
  }
  return required;
}

RangeMax::RangeMax(const std::vector<int64_t>& values) {
  levels_.push_back(values);
  for (size_t w = 1; 2 * w <= values.size(); w *= 2) {
    const std::vector<int64_t>& prev = levels_.back();
    std::vector<int64_t> next(prev.size() - w);
    for (size_t i = 0; i < next.size(); ++i) {
      next[i] = std::max(prev[i], prev[i + w]);
    }
    levels_.push_back(std::move(next));
  }
}

int64_t RangeMax::Max(size_t lo, size_t hi) const {
  hi = std::min(hi, levels_[0].size());
  if (lo >= hi) return 0;
  // Two overlapping power-of-two windows cover [lo, hi).
  size_t k = 0;
  while (size_t{2} << k <= hi - lo) ++k;
  const std::vector<int64_t>& level = levels_[k];
  return std::max(level[lo], level[hi - (size_t{1} << k)]);
}

InstanceDag BuildInstanceDag(const AccessScript& script) {
  InstanceDag dag;
  const size_t n = script.per_pos.size();
  dag.succ.resize(n);
  dag.pred_count.assign(n, 0);

  std::set<std::pair<uint32_t, uint32_t>> edges;
  auto add_edge = [&](size_t from, size_t to) {
    if (from == to) return;  // accesses within one instance are not edges
    RIOT_CHECK_LT(from, to) << "dependence edge must point forward";
    auto key = std::make_pair(static_cast<uint32_t>(from),
                              static_cast<uint32_t>(to));
    if (edges.insert(key).second) {
      dag.succ[from].push_back(key.second);
      ++dag.pred_count[to];
    }
  };

  // Per-(array, block) scan state. `readers` holds every read since the
  // last write (WAR sources); `materializer` is the latest access that
  // (re)loaded or produced the in-memory frame (write or non-saved read),
  // which saved reads must run after.
  struct BlockState {
    int64_t last_write = -1;
    int64_t materializer = -1;
    std::vector<uint32_t> readers;
  };
  std::map<std::pair<int, int64_t>, BlockState> state;

  for (const BlockAccessRecord& rec : script.records) {
    BlockState& bs = state[{rec.array_id, rec.block}];
    if (rec.type == AccessType::kRead) {
      if (bs.last_write >= 0) {
        add_edge(static_cast<size_t>(bs.last_write), rec.pos);  // RAW
      }
      if (rec.saved && bs.materializer >= 0) {
        add_edge(static_cast<size_t>(bs.materializer), rec.pos);
      }
      if (!rec.saved) bs.materializer = static_cast<int64_t>(rec.pos);
      bs.readers.push_back(static_cast<uint32_t>(rec.pos));
    } else {
      for (uint32_t r : bs.readers) add_edge(r, rec.pos);  // WAR
      if (bs.last_write >= 0) {
        add_edge(static_cast<size_t>(bs.last_write), rec.pos);  // WAW
      }
      bs.last_write = static_cast<int64_t>(rec.pos);
      bs.materializer = static_cast<int64_t>(rec.pos);
      bs.readers.clear();
    }
  }

  // Sort successor lists and derive the level structure. Position order is
  // topological (edges point forward), so one forward sweep suffices.
  std::vector<size_t> depth(n, 0);
  for (size_t p = 0; p < n; ++p) {
    std::sort(dag.succ[p].begin(), dag.succ[p].end());
    for (uint32_t s : dag.succ[p]) {
      depth[s] = std::max(depth[s], depth[p] + 1);
    }
  }
  std::map<size_t, size_t> width_at;
  for (size_t p = 0; p < n; ++p) {
    dag.critical_path = std::max(dag.critical_path, depth[p] + 1);
    dag.max_width = std::max(dag.max_width, ++width_at[depth[p]]);
  }
  return dag;
}

}  // namespace riot
