// Plan lowering: the static interpretation of "schedule + realized sharing
// set" that the cost model and the execution engine share. The optimizer
// knows the exact future block-access order of a plan (the paper's central
// premise); LowerPlan turns that foreknowledge into a flat access script
// the engine interprets and a prefetcher walks ahead of the kernels.
//
// Given a schedule and the subset Q of sharing opportunities the plan
// exploits (paper Section 5.5: code generation exploits exactly Q; what
// else the schedule enables is exploited only when the optimizer declares
// it, as it does for a schedule's closure, whose Q is the schedule's whole
// realized set, see core/optimizer.h), one pass derives:
//   * the scheduled instance stream, grouped by time prefix (all but the
//     final constant dimension);
//   * for every instance, in execution order (reads first, then the write,
//     matching the engine's two passes), one record per active access:
//     where the block lives, whether the plan serves it from memory (saved
//     read, W->W saved write, or elided write of a temporary whose every
//     later read is served from memory: paper footnote 8) or from disk, how
//     long it must stay resident (retention), the latest earlier write to
//     the block (`dep_pos`, which a prefetcher must not run ahead of) and
//     the block's next use;
//   * the plan's exact memory requirement at each position.
//
// The pass is exact integer arithmetic. Each statement's schedule rows,
// access maps and guards are compiled once per lowering by the LCM scaling
// rule of ir/int_affine.h and evaluated with checked int64 multiply-add.
// Rational stays the IR's reference semantics (Access::BlockAt,
// Access::ActiveAt, Schedule::TimeOf, Polyhedron::Contains); only the
// lowering compiles. Per-block state is indexed by a dense block id (each
// array's base offset plus its linear block index), per-access state by
// record index.
//
// A malformed plan is an error, not a crash. LowerPlan returns
// kInvalidArgument when:
//   * the schedule's statement count differs from the program's;
//   * its matrices differ in row count or have no rows;
//   * a matrix lacks exactly depth + 1 columns;
//   * a time or a block subscript is not an integer, or overflows int64;
//   * an access map or guard does not match its array or statement;
//   * a realized opportunity names an instance outside the stream, or runs
//     backwards under the schedule.
// It returns kOutOfRange for a subscript outside the array's block grid.
//
// The same foreknowledge also yields the statement-instance dependence DAG
// (BuildInstanceDag): the partial order the parallel executor must respect
// when it dispatches kernels onto a worker pool. Any linear extension of
// the DAG — in particular any interleaving the scheduler happens to pick —
// produces bit-for-bit the outputs of the scheduled serial order.
#ifndef RIOTSHARE_CORE_ACCESS_PLAN_H_
#define RIOTSHARE_CORE_ACCESS_PLAN_H_

#include <cstdint>
#include <tuple>
#include <vector>

#include "analysis/coaccess.h"
#include "ir/program.h"
#include "ir/schedule.h"
#include "storage/replacement.h"
#include "util/status.h"

namespace riot {

/// \brief A block that must stay in memory from the source access (at
/// stream position begin_pos) until every group <= end_group completes.
struct RetentionSpan {
  size_t begin_pos;   // position in the scheduled instance stream
  size_t begin_group;
  size_t end_group;  // inclusive
  int array_id;
  int64_t block;  // linear block index

  bool operator<(const RetentionSpan& o) const {
    return std::tie(begin_pos, begin_group, end_group, array_id, block) <
           std::tie(o.begin_pos, o.begin_group, o.end_group, o.array_id,
                    o.block);
  }
  bool operator==(const RetentionSpan& o) const {
    return !(*this < o) && !(o < *this);
  }
};

/// \brief One block access of one scheduled statement instance.
struct BlockAccessRecord {
  size_t pos = 0;        // position in the scheduled instance stream
  size_t group = 0;      // time-prefix group of `pos`
  int stmt_id = -1;
  int access_idx = -1;   // index into the statement's access list
  int array_id = -1;
  int64_t block = -1;    // linear block index
  int64_t bytes = 0;     // block byte size
  AccessType type = AccessType::kRead;
  /// Read: the plan realizes a sharing opportunity, so the block is served
  /// from memory. Write: the disk write is saved (W->W) or elided.
  bool saved = false;
  /// A read the plan serves from disk.
  bool disk_read() const { return type == AccessType::kRead && !saved; }
  /// Retain the frame until all groups <= this complete; -1 = no retention.
  int64_t retain_until_group = -1;
  /// For reads: stream position of the latest write to the same
  /// (array, block) strictly before `pos`; -1 if none. A prefetcher may
  /// issue this read only after the instance at `dep_pos` has completed.
  int64_t dep_pos = -1;
  /// Next instance position at which the same (array, block) is accessed
  /// again — read or write, saved or not — strictly after `pos`; -1 =
  /// never. This is the annotation Belady-style replacement consumes: a
  /// block whose next use is farthest away (or absent) is the provably
  /// best eviction victim.
  int64_t next_use_pos = -1;
};

/// \brief The lowered access sequence of a plan.
struct AccessScript {
  /// Every statement instance with its time, sorted by (time, stmt_id,
  /// iter): the same order as Program::ScheduledOrder.
  std::vector<ScheduledInstance> order;
  std::vector<size_t> group_of;  // per position in `order`
  size_t num_groups = 0;
  /// Retentions the realized sharing set requires, sorted, deduplicated.
  std::vector<RetentionSpan> spans;
  std::vector<BlockAccessRecord> records;
  /// Per instance-stream position: [begin, end) into `records`.
  std::vector<std::pair<uint32_t, uint32_t>> per_pos;
  /// Largest total byte footprint any single instance touches at once;
  /// the headroom the prefetch budget leaves for each additional kernel
  /// worker.
  int64_t max_instance_bytes = 0;
  /// Bytes the plan requires resident at each position (paper Section
  /// 5.4): the blocks the instance accesses plus every retained block
  /// whose span covers it. A span is active from its source access until
  /// the last instant of its end group — exactly the engine's pin/retain
  /// discipline, so the maximum is both the cost model's predicted peak and
  /// the engine's measured one. The engine charges its reads ahead against
  /// it (storage/issue_policy.h).
  std::vector<int64_t> required_bytes;
  /// Per-(array, block) ascending, deduplicated instance positions of use
  /// (every access, read or write). The per-block future-use iterators
  /// behind the ScheduleOpt replacement policy and the cost model's cache
  /// simulator; also the source of `next_use_pos`.
  BlockUseMap block_uses;
};

/// \brief Lowers `program` under `schedule`, exploiting exactly
/// `realized`, into its access script. Errors are listed in the file
/// comment; nothing is rounded and nothing CHECK-fails on a malformed plan.
Result<AccessScript> LowerPlan(const Program& program,
                               const Schedule& schedule,
                               const std::vector<const CoAccess*>& realized);

/// \brief Statement-instance dependence DAG over the scheduled stream.
///
/// An edge p -> q (p < q in scheduled order) means instance q must not
/// start before instance p has completed. Edges are derived from the block
/// accesses already lowered into the script:
///   * RAW: q reads a block p wrote (q must see p's data, in memory or via
///     p's write-through),
///   * WAR: q writes a block p read (q's kernel mutates the frame p's
///     kernel consumes),
///   * WAW: q writes a block p wrote (frame contents and the disk image
///     must end in scheduled order),
///   * saved-read materialization: q's read is served from memory by the
///     plan, so it must wait for the access that brought the block in and
///     retained it (the latest earlier write or non-saved read) — this is
///     the one edge kind that can connect two reads.
/// Instances with no path between them may execute concurrently: reads of
/// the same block never conflict (the executor loads each frame exactly
/// once behind a latch, then the contents are immutable until the next
/// DAG-ordered writer).
struct InstanceDag {
  /// succ[p] = positions directly depending on p, ascending, deduplicated.
  std::vector<std::vector<uint32_t>> succ;
  /// Number of direct dependencies of each position (in-degree).
  std::vector<uint32_t> pred_count;
  /// Longest dependence chain, in instances: the number of sequential
  /// "waves" a perfectly parallel machine still needs.
  size_t critical_path = 0;
  /// Largest number of instances at the same chain depth: the peak
  /// theoretical kernel parallelism of the plan.
  size_t max_width = 0;
};

/// \brief Builds the instance dependence DAG of a lowered script. Edges
/// always point forward in scheduled position, so position order is a
/// topological order.
InstanceDag BuildInstanceDag(const AccessScript& script);

}  // namespace riot

#endif  // RIOTSHARE_CORE_ACCESS_PLAN_H_
