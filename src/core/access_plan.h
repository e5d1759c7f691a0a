// Block access script: the fully lowered, explicit per-instance sequence of
// block accesses a realized plan performs. The optimizer knows the exact
// future block-access order of a plan (the paper's central premise); this
// module turns that foreknowledge into a flat script the execution engine
// interprets and a prefetcher can walk ahead of the kernels, instead of the
// executor re-deriving accesses from the IR inline.
//
// For every scheduled statement instance the script lists, in execution
// order (reads first, then the write, matching the engine's two passes):
//   * where the block lives (array id, linear block index, byte size),
//   * whether the plan serves it from memory (saved read / saved or elided
//     write) or from disk,
//   * how long the block must stay resident (retention), and
//   * for disk reads, the latest earlier write to the same block
//     (`dep_pos`) — the position a prefetcher must not run ahead of.
//
// The same foreknowledge also yields the statement-instance dependence DAG
// (BuildInstanceDag): the partial order the parallel executor must respect
// when it dispatches kernels onto a worker pool. Any linear extension of
// the DAG — in particular any interleaving the scheduler happens to pick —
// produces bit-for-bit the outputs of the scheduled serial order.
#ifndef RIOTSHARE_CORE_ACCESS_PLAN_H_
#define RIOTSHARE_CORE_ACCESS_PLAN_H_

#include <cstdint>
#include <vector>

#include "core/plan_realization.h"
#include "ir/program.h"
#include "storage/replacement.h"

namespace riot {

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

/// \brief The lowered access sequence of a realized plan.
struct AccessScript {
  std::vector<BlockAccessRecord> records;
  /// Per instance-stream position: [begin, end) into `records`.
  std::vector<std::pair<uint32_t, uint32_t>> per_pos;
  size_t num_groups = 0;
  /// Largest total byte footprint any single instance touches at once;
  /// the per-worker headroom the parallel engine's prefetch budget leaves.
  int64_t max_instance_bytes = 0;
  /// Max over positions of RequiredBytesPerPosition: the plan's exact
  /// memory requirement (equal to the cost model's peak). The serial
  /// engine's prefetch budget is the cap's headroom over it.
  int64_t peak_required_bytes = 0;
  /// Per-(array, block) ascending, deduplicated instance positions of use
  /// (every access, read or write). The per-block future-use iterators
  /// behind the ScheduleOpt replacement policy and the cost model's cache
  /// simulator; also the source of `next_use_pos`.
  BlockUseMap block_uses;
};

/// \brief Lowers `rp` (over `program`) into its block access script.
AccessScript BuildAccessScript(const Program& program, const RealizedPlan& rp);

/// \brief Bytes the plan requires resident at each scheduled position
/// (paper Section 5.4): the blocks the instance accesses plus every
/// retained block whose span covers it. A span is active from its source
/// access until the last instant of its end group — exactly the serial
/// engine's pin/retain discipline, so the maximum is both the cost model's
/// predicted peak and the engine's measured one.
std::vector<int64_t> RequiredBytesPerPosition(const Program& program,
                                              const RealizedPlan& rp);

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
