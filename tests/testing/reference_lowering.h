// The plan lowering as it stood before the single integer pass: three
// sweeps over Rational IR evaluation (RealizePlan, BuildAccessScript and
// RequiredBytesPerPosition), keyed by std::set and std::map, kept verbatim
// as the reference that core/access_plan's LowerPlan must reproduce field
// for field. ExpectLoweringMatchesReference is the oracle the lowering
// tests and the random-program corpus share.
#ifndef RIOTSHARE_TESTS_TESTING_REFERENCE_LOWERING_H_
#define RIOTSHARE_TESTS_TESTING_REFERENCE_LOWERING_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/coaccess.h"
#include "core/access_plan.h"
#include "core/cost_model.h"
#include "ir/program.h"
#include "ir/schedule.h"
#include "util/logging.h"

namespace riot {
namespace reference {

/// \brief Identifies one access of one statement instance.
struct AccessInstanceKey {
  int stmt_id;
  std::vector<int64_t> iter;
  int access_idx;

  bool operator<(const AccessInstanceKey& o) const {
    if (stmt_id != o.stmt_id) return stmt_id < o.stmt_id;
    if (iter != o.iter) return iter < o.iter;
    return access_idx < o.access_idx;
  }
};

struct RealizedPlan {
  std::vector<ScheduledInstance> order;  // scheduled execution order
  std::vector<size_t> group_of;          // per position in `order`
  size_t num_groups = 0;
  std::set<AccessInstanceKey> saved_reads;
  std::set<AccessInstanceKey> saved_writes;   // W->W overwrite elimination
  std::set<AccessInstanceKey> elided_writes;  // dead temporary materialization
  std::vector<RetentionSpan> spans;
};

inline std::vector<int64_t> RequiredBytesPerPosition(const Program& program,
                                                     const RealizedPlan& rp);

inline RealizedPlan RealizePlan(const Program& program, const Schedule& schedule,
                         const std::vector<const CoAccess*>& realized) {
  RealizedPlan rp;
  rp.order = program.ScheduledOrder(schedule);

  // Group instances by time prefix (all but the last, constant dimension).
  rp.group_of.resize(rp.order.size());
  std::vector<int64_t> prev_prefix;
  for (size_t pos = 0; pos < rp.order.size(); ++pos) {
    const TimeVector& t = rp.order[pos].time;
    RIOT_CHECK_GE(t.size(), 1u);
    std::vector<int64_t> prefix(t.begin(), t.end() - 1);
    if (pos == 0 || prefix != prev_prefix) {
      ++rp.num_groups;
      prev_prefix = std::move(prefix);
    }
    rp.group_of[pos] = rp.num_groups - 1;
  }

  std::map<std::pair<int, std::vector<int64_t>>, size_t> pos_of;
  for (size_t pos = 0; pos < rp.order.size(); ++pos) {
    pos_of[{rp.order[pos].stmt_id, rp.order[pos].iter}] = pos;
  }
  auto pos_at = [&](int stmt_id, const std::vector<int64_t>& iter) {
    auto it = pos_of.find({stmt_id, iter});
    RIOT_CHECK(it != pos_of.end()) << "instance missing from schedule order";
    return it->second;
  };

  // Saved I/Os and retention spans from each realized opportunity.
  for (const CoAccess* o : realized) {
    const Access& src_acc = program.access(o->src);
    const bool src_w = o->src_type == AccessType::kWrite;
    const bool dst_w = o->dst_type == AccessType::kWrite;
    for (const auto& pr : o->pairs) {
      if (dst_w && src_w) {
        rp.saved_writes.insert(
            {o->src.stmt_id, pr.src_iter, o->src.access_idx});
        continue;  // W->W: no retention needed
      }
      // W->R or R->R: the target's read is saved; block stays in memory
      // from the source access through the target's group.
      rp.saved_reads.insert({o->dst.stmt_id, pr.dst_iter, o->dst.access_idx});
      size_t p1 = pos_at(o->src.stmt_id, pr.src_iter);
      size_t p2 = pos_at(o->dst.stmt_id, pr.dst_iter);
      RIOT_CHECK_LE(p1, p2);
      BlockCoord c = src_acc.BlockAt(pr.src_iter);
      int64_t lin = program.array(o->array_id).LinearBlockIndex(c);
      rp.spans.push_back(
          {p1, rp.group_of[p1], rp.group_of[p2], o->array_id, lin});
    }
  }
  std::sort(rp.spans.begin(), rp.spans.end());
  rp.spans.erase(std::unique(rp.spans.begin(), rp.spans.end(),
                             [](const RetentionSpan& a,
                                const RetentionSpan& b) {
                               return !(a < b) && !(b < a);
                             }),
                 rp.spans.end());

  // Per-block access chains under the NEW execution order, used for write
  // elimination below. Within an instance, reads precede the write.
  struct Ev {
    size_t pos;
    AccessInstanceKey key;
    AccessType type;
  };
  std::map<std::pair<int, int64_t>, std::vector<Ev>> chains;
  for (size_t pos = 0; pos < rp.order.size(); ++pos) {
    const auto& inst = rp.order[pos];
    const Statement& st = program.statement(inst.stmt_id);
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t ai = 0; ai < st.accesses.size(); ++ai) {
        const Access& a = st.accesses[ai];
        if ((pass == 0) != (a.type == AccessType::kRead)) continue;
        if (!a.ActiveAt(inst.iter)) continue;
        int64_t lin = program.array(a.array_id)
                          .LinearBlockIndex(a.BlockAt(inst.iter));
        chains[{a.array_id, lin}].push_back(
            {pos,
             {inst.stmt_id, inst.iter, static_cast<int>(ai)},
             a.type});
      }
    }
  }

  // A W->W save is only honored when every read between the two writes is
  // itself served from memory; otherwise a disk read would observe a stale
  // block, so the first write must still be performed. (The paper's best
  // plans always pair W->W with the corresponding W->R, where this check is
  // vacuous; it keeps the executor correct for every plan in the space.)
  for (const auto& [key, events] : chains) {
    for (size_t i = 0; i < events.size(); ++i) {
      if (events[i].type != AccessType::kWrite) continue;
      if (!rp.saved_writes.count(events[i].key)) continue;
      for (size_t j = i + 1; j < events.size(); ++j) {
        if (events[j].type == AccessType::kWrite) break;
        if (!rp.saved_reads.count(events[j].key)) {
          rp.saved_writes.erase(events[i].key);
          break;
        }
      }
    }
  }

  // Elided writes of non-persistent temporaries: under the new execution
  // order, a write whose every subsequent read (before the next write of the
  // same block) is served from memory never needs to hit disk.
  for (const auto& [key, events] : chains) {
    if (program.array(key.first).persistent) continue;
    for (size_t i = 0; i < events.size(); ++i) {
      if (events[i].type != AccessType::kWrite) continue;
      bool all_saved = true;
      for (size_t j = i + 1; j < events.size(); ++j) {
        if (events[j].type == AccessType::kWrite) break;
        if (!rp.saved_reads.count(events[j].key)) {
          all_saved = false;
          break;
        }
      }
      if (all_saved) rp.elided_writes.insert(events[i].key);
    }
  }
  return rp;
}

inline AccessScript BuildAccessScript(const Program& program,
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

inline std::vector<int64_t> RequiredBytesPerPosition(const Program& program,
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

// EvaluatePlanCost's I/O volume sweep and peak, as they stood.
inline PlanCost ReferenceCost(const Program& program, const RealizedPlan& rp) {
  PlanCost cost;
  for (const auto& inst : rp.order) {
    const Statement& st = program.statement(inst.stmt_id);
    for (size_t ai = 0; ai < st.accesses.size(); ++ai) {
      const Access& a = st.accesses[ai];
      if (!a.ActiveAt(inst.iter)) continue;
      const int64_t bytes = program.array(a.array_id).BlockBytes();
      AccessInstanceKey key{inst.stmt_id, inst.iter, static_cast<int>(ai)};
      if (a.type == AccessType::kRead) {
        cost.baseline_read_bytes += bytes;
        if (!rp.saved_reads.count(key)) {
          cost.read_bytes += bytes;
          ++cost.block_reads;
        }
      } else {
        cost.baseline_write_bytes += bytes;
        if (!rp.saved_writes.count(key) && !rp.elided_writes.count(key)) {
          cost.write_bytes += bytes;
          ++cost.block_writes;
        }
      }
    }
  }
  for (int64_t bytes : RequiredBytesPerPosition(program, rp)) {
    cost.peak_memory_bytes = std::max(cost.peak_memory_bytes, bytes);
  }
  return cost;
}

/// Lowers the plan both ways and compares every field of the script, and
/// EvaluatePlanCost against the reference counts and peak.
inline void ExpectLoweringMatchesReference(
    const Program& program, const Schedule& schedule,
    const std::vector<const CoAccess*>& realized) {
  const RealizedPlan rp = RealizePlan(program, schedule, realized);
  const AccessScript want = BuildAccessScript(program, rp);
  auto lowered = LowerPlan(program, schedule, realized);
  ASSERT_TRUE(lowered.ok()) << lowered.status().ToString();
  const AccessScript& got = *lowered;

  ASSERT_EQ(got.order.size(), rp.order.size());
  for (size_t pos = 0; pos < rp.order.size(); ++pos) {
    EXPECT_EQ(got.order[pos].stmt_id, rp.order[pos].stmt_id) << pos;
    EXPECT_EQ(got.order[pos].iter, rp.order[pos].iter) << pos;
    EXPECT_EQ(got.order[pos].time, rp.order[pos].time) << pos;
  }
  EXPECT_EQ(got.group_of, rp.group_of);
  EXPECT_EQ(got.num_groups, rp.num_groups);
  EXPECT_EQ(got.num_groups, want.num_groups);
  EXPECT_TRUE(got.spans == rp.spans) << got.spans.size() << " spans vs "
                                     << rp.spans.size();
  EXPECT_EQ(got.per_pos, want.per_pos);
  ASSERT_EQ(got.records.size(), want.records.size());
  for (size_t i = 0; i < want.records.size(); ++i) {
    const BlockAccessRecord& g = got.records[i];
    const BlockAccessRecord& w = want.records[i];
    const std::string at = "record " + std::to_string(i);
    EXPECT_EQ(g.pos, w.pos) << at;
    EXPECT_EQ(g.group, w.group) << at;
    EXPECT_EQ(g.stmt_id, w.stmt_id) << at;
    EXPECT_EQ(g.access_idx, w.access_idx) << at;
    EXPECT_EQ(g.array_id, w.array_id) << at;
    EXPECT_EQ(g.block, w.block) << at;
    EXPECT_EQ(g.bytes, w.bytes) << at;
    EXPECT_EQ(g.type, w.type) << at;
    EXPECT_EQ(g.saved, w.saved) << at;
    EXPECT_EQ(g.retain_until_group, w.retain_until_group) << at;
    EXPECT_EQ(g.dep_pos, w.dep_pos) << at;
    EXPECT_EQ(g.next_use_pos, w.next_use_pos) << at;
  }
  EXPECT_EQ(got.required_bytes, want.required_bytes);
  EXPECT_EQ(got.block_uses, want.block_uses);
  EXPECT_EQ(got.max_instance_bytes, want.max_instance_bytes);

  const PlanCost ref = ReferenceCost(program, rp);
  const PlanCost cost = EvaluatePlanCost(program, schedule, realized);
  EXPECT_EQ(cost.read_bytes, ref.read_bytes);
  EXPECT_EQ(cost.write_bytes, ref.write_bytes);
  EXPECT_EQ(cost.baseline_read_bytes, ref.baseline_read_bytes);
  EXPECT_EQ(cost.baseline_write_bytes, ref.baseline_write_bytes);
  EXPECT_EQ(cost.block_reads, ref.block_reads);
  EXPECT_EQ(cost.block_writes, ref.block_writes);
  EXPECT_EQ(cost.peak_memory_bytes, ref.peak_memory_bytes);
}

}  // namespace reference
}  // namespace riot

#endif  // RIOTSHARE_TESTS_TESTING_REFERENCE_LOWERING_H_
