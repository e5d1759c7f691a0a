// Static plan-integrity linter: validates a Program (and optionally its
// fully lowered AccessScript + InstanceDag) before execution, the
// compile-time counterpart of the differential fuzzers. The optimizer's
// central premise is perfect foreknowledge of the block access sequence;
// the linter turns that same foreknowledge into machine-checked invariants
// instead of trusting the lowering:
//
//   Program level (LintProgram — no schedule needed):
//     * empty, unbounded, or dimension-mismatched iteration domains,
//     * access maps whose shape disagrees with the array or statement,
//     * subscripts provably outside the array's block grid (rational LP
//       bounds of every phi row over the guarded domain),
//     * StatementOp operand indices vs. the access list (arity, access
//       types, reduction-iterator range, accumulator aliasing),
//     * accumulator self-reads not guarded off the reduction-start
//       iterations (reading a frame nothing has initialized).
//
//   Script level (LintScript — a lowered plan):
//     * use-before-def: a read of a non-persistent array block with no
//       earlier write in the instance stream (uninitialized scratch),
//     * write-elision of a block a later access reads from disk,
//       or of a persistent array's block (must exist on disk),
//     * dangling or mistyped prefetch dependences (`dep_pos`),
//     * dependence-DAG structural consistency (edge direction, in-degree
//       bookkeeping) and completeness, cross-checked against a brute-force
//       enumeration of conflicting instance pairs on small domains.
//
// The executor runs LintProgram at construction and LintScript on every
// lowered plan under the debug-default ExecOptions::lint flag; the
// standalone `riot_lint` tool drives the same passes over built-in and
// randomly generated programs.
#ifndef RIOTSHARE_ANALYSIS_PROGRAM_LINT_H_
#define RIOTSHARE_ANALYSIS_PROGRAM_LINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/access_plan.h"
#include "ir/program.h"
#include "ir/schedule.h"
#include "util/status.h"

namespace riot {

enum class LintCode {
  kEmptyDomain,          // empty/unbounded/dimension-mismatched domain
  kMalformedAccess,      // phi shape vs array/statement, bad array id
  kSubscriptOutOfGrid,   // phi row provably escapes the block grid
  kOpArityMismatch,      // StatementOp operands vs access list
  kMalformedTape,        // fused statement's scalar tape is inconsistent
  kUnguardedAccumulator, // accumulator self-read live at reduction start
  kUseBeforeDef,         // non-persistent block read before any write
  kElidedWriteRead,      // elided write, yet a later disk read of the block
  kBadDepPos,            // read's dep_pos not an earlier write of the block
  kDagInconsistent,      // succ/pred_count disagree or backward edge
  kMissingDagEdge,       // conflicting instance pair unordered in the DAG
};

const char* LintCodeName(LintCode code);

/// \brief One diagnostic. `stmt_id`/`access_idx` identify the offending
/// access where applicable; `pos` is the scheduled instance-stream position
/// for script-level findings (-1 for program-level ones).
struct LintDiag {
  LintCode code = LintCode::kEmptyDomain;
  int stmt_id = -1;
  int access_idx = -1;
  int64_t pos = -1;
  std::string message;

  std::string ToString() const;
};

struct LintReport {
  std::vector<LintDiag> diags;
  /// Scheduled instances covered by the script-level checks (0 for a
  /// program-level report).
  size_t instances_checked = 0;
  /// Whether the brute-force dependence cross-check ran. False when the
  /// instance count exceeded LintOptions::max_dag_instances — the DAG's
  /// structural checks still ran, completeness was not enumerated.
  bool dag_cross_checked = false;

  bool ok() const { return diags.empty(); }
  bool Has(LintCode code) const;
  size_t CountOf(LintCode code) const;
  std::string ToString() const;
};

struct LintOptions {
  /// Instance-count ceiling for the O(n^2) brute-force dependence
  /// cross-check; larger streams skip it (reported via dag_cross_checked).
  size_t max_dag_instances = 2048;
};

/// \brief Program-level lint: domains, access maps, op specs. Pure; never
/// mutates or executes anything. A non-OK Status is an internal failure,
/// not a finding — findings are the report's diags.
Result<LintReport> LintProgram(const Program& program);

/// \brief Script-level lint of a lowered plan. `dag` is passed in (rather
/// than rebuilt) so callers that already built it pay nothing — and so
/// tests can hand in a mutated DAG and assert the linter catches it.
Result<LintReport> LintScript(const Program& program,
                              const AccessScript& script,
                              const InstanceDag& dag,
                              const LintOptions& opts = {});

/// \brief Convenience: lowers `schedule` + `realized` and runs both levels,
/// returning the merged report.
Result<LintReport> LintPlan(const Program& program, const Schedule& schedule,
                            const std::vector<const CoAccess*>& realized,
                            const LintOptions& opts = {});

}  // namespace riot

#endif  // RIOTSHARE_ANALYSIS_PROGRAM_LINT_H_
