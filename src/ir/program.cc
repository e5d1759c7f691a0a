#include "ir/program.h"

#include <algorithm>
#include <sstream>

#include "ir/int_affine.h"
#include "util/logging.h"

namespace riot {

int Program::AddArray(ArrayInfo info) {
  info.id = static_cast<int>(arrays_.size());
  RIOT_CHECK(!info.grid.empty());
  RIOT_CHECK_EQ(info.grid.size(), info.block_elems.size());
  arrays_.push_back(std::move(info));
  return arrays_.back().id;
}

int Program::AddStatement(Statement stmt, int nest_index, int textual_pos) {
  stmt.id = static_cast<int>(stmts_.size());
  RIOT_CHECK_EQ(stmt.domain.dim(), stmt.depth());
  int writes = 0;
  for (const auto& a : stmt.accesses) {
    if (a.type == AccessType::kWrite) ++writes;
  }
  RIOT_CHECK_LE(writes, 1) << "statement " << stmt.name
                           << " has multiple writes";
  stmts_.push_back(std::move(stmt));
  positions_.emplace_back(nest_index, textual_pos);
  FinalizeOriginalSchedule();
  return stmts_.back().id;
}

size_t Program::MaxDepth() const {
  size_t d = 0;
  for (const auto& s : stmts_) d = std::max(d, s.depth());
  return d;
}

void Program::FinalizeOriginalSchedule() {
  const size_t dmax = MaxDepth();
  std::vector<RMatrix> mats;
  mats.reserve(stmts_.size());
  for (size_t s = 0; s < stmts_.size(); ++s) {
    const size_t ds = stmts_[s].depth();
    RMatrix m(dmax + 2, ds + 1);
    m.At(0, ds) = Rational(positions_[s].first);  // nest index
    for (size_t r = 0; r < dmax; ++r) {
      if (r < ds) m.At(1 + r, r) = Rational(1);
    }
    m.At(dmax + 1, ds) = Rational(positions_[s].second);  // textual position
    mats.push_back(std::move(m));
  }
  original_ = Schedule(std::move(mats));
}

const std::vector<std::vector<int64_t>>& Program::InstancesOf(
    int stmt_id) const {
  instance_cache_.resize(stmts_.size());
  auto& slot = instance_cache_[static_cast<size_t>(stmt_id)];
  if (!slot.has_value()) {
    slot = statement(stmt_id).domain.EnumerateIntegerPoints();
  }
  return *slot;
}

std::vector<ScheduledInstance> Program::ScheduledOrder(
    const Schedule& sched) const {
  std::vector<ScheduledInstance> all;
  for (const auto& s : stmts_) {
    for (const auto& iter : InstancesOf(s.id)) {
      ScheduledInstance inst;
      inst.stmt_id = s.id;
      inst.time = sched.TimeOf(s.id, iter);
      inst.iter = iter;
      all.push_back(std::move(inst));
    }
  }
  std::sort(all.begin(), all.end(),
            [](const ScheduledInstance& a, const ScheduledInstance& b) {
              int c = CompareTime(a.time, b.time);
              if (c != 0) return c < 0;
              if (a.stmt_id != b.stmt_id) return a.stmt_id < b.stmt_id;
              return a.iter < b.iter;
            });
  return all;
}

Status Program::Validate() const {
  for (const auto& s : stmts_) {
    int writes = 0;
    for (const auto& a : s.accesses) {
      if (a.array_id < 0 || a.array_id >= static_cast<int>(arrays_.size())) {
        return Status::InvalidArgument("statement " + s.name +
                                       " references unknown array");
      }
      const ArrayInfo& arr = array(a.array_id);
      if (a.phi.rows() != arr.ndim()) {
        return Status::InvalidArgument("access map row count != array dims (" +
                                       s.name + " -> " + arr.name + ")");
      }
      if (a.phi.cols() != s.depth() + 1) {
        return Status::InvalidArgument(
            "access map column count != statement depth + 1 (" + s.name +
            " -> " + arr.name + ")");
      }
      if (a.guard && a.guard->dim() != s.depth()) {
        return Status::InvalidArgument("guard dimensionality mismatch in " +
                                       s.name);
      }
      if (a.type == AccessType::kWrite) ++writes;
    }
    if (writes > 1) {
      return Status::InvalidArgument("statement " + s.name +
                                     " has multiple write accesses");
    }
    // Every access in the domain must land on an integer block inside the
    // array's block grid.
    std::vector<IntAffineMap> phis;
    for (const auto& a : s.accesses) {
      auto phi = IntAffineMap::Compile(a.phi);
      if (!phi.ok()) {
        return Status::InvalidArgument("access map of " + s.name + " -> " +
                                       array(a.array_id).name + ": " +
                                       phi.status().message());
      }
      phis.push_back(std::move(phi).ValueOrDie());
    }
    BlockCoord c;
    for (const auto& iter : InstancesOf(s.id)) {
      for (size_t ai = 0; ai < s.accesses.size(); ++ai) {
        const Access& a = s.accesses[ai];
        if (!a.ActiveAt(iter)) continue;
        const ArrayInfo& arr = array(a.array_id);
        c.resize(arr.ndim());
        const IntEval e = phis[ai].Apply(iter.data(), c.data());
        if (e != IntEval::kOk) {
          return Status::InvalidArgument("block subscript of " + s.name +
                                         " -> " + arr.name + " " +
                                         IntEvalError(e));
        }
        for (size_t d = 0; d < c.size(); ++d) {
          if (c[d] < 0 || c[d] >= arr.grid[d]) {
            return Status::OutOfRange("access in " + s.name + " maps outside " +
                                      arr.name + " block grid");
          }
        }
      }
    }
  }
  return Status::OK();
}

std::string Program::AccessLabel(const AccessRef& ref) const {
  const Statement& s = statement(ref.stmt_id);
  const Access& a = s.accesses[static_cast<size_t>(ref.access_idx)];
  return s.name + AccessTypeName(a.type) + array(a.array_id).name;
}

std::string Program::ToString() const {
  std::ostringstream os;
  os << "Program with " << arrays_.size() << " arrays, " << stmts_.size()
     << " statements\n";
  for (const auto& a : arrays_) {
    os << "  array " << a.name << ": grid=[";
    for (size_t d = 0; d < a.grid.size(); ++d) {
      if (d) os << "x";
      os << a.grid[d];
    }
    os << "] block=[";
    for (size_t d = 0; d < a.block_elems.size(); ++d) {
      if (d) os << "x";
      os << a.block_elems[d];
    }
    os << "] (" << a.TotalBytes() / (1024.0 * 1024.0) << " MB)\n";
  }
  for (const auto& s : stmts_) {
    os << "  " << s.name << " depth=" << s.depth() << " accesses=";
    for (size_t i = 0; i < s.accesses.size(); ++i) {
      if (i) os << ",";
      os << AccessLabel({s.id, static_cast<int>(i)});
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace riot
