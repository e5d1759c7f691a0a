// riot_lint: standalone driver for the static plan-integrity linter
// (analysis/program_lint.h). Lints a corpus of programs — the built-in
// paper workloads plus randomly generated static-control programs — at
// both levels: LintProgram on the IR, LintPlan on every plan the
// optimizer proposes (original schedule included). Any finding prints the
// full LintReport and fails the run, so the binary doubles as a
// regression gate: the optimizer and lowering must never emit a plan the
// linter rejects.
//
// Usage: riot_lint [--seeds N] [--verbose]
//   --seeds N    random programs to generate and lint (default 25)
//   --verbose    print a line per plan, not just per program
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "analysis/program_lint.h"
#include "core/optimizer.h"
#include "ir/builder.h"
#include "ir/program.h"

namespace riot {
namespace {

// The paper's running example: two chained block matmuls sharing reads of
// the middle operand, with guarded accumulator self-reads.
Program TwoMatmuls(int64_t n) {
  Program p;
  for (const char* name : {"A", "B", "C", "D", "E"}) {
    ArrayInfo a;
    a.name = name;
    a.grid = {n, n};
    a.block_elems = {4, 4};
    p.AddArray(a);
  }
  auto add_mm = [&](const std::string& name, int a, int b, int c, int nest) {
    Statement st;
    st.name = name;
    st.iters = {"i", "j", "k"};
    st.domain = RectDomain({{0, n - 1}, {0, n - 1}, {0, n - 1}}, st.iters);
    st.accesses.push_back(Read(a, {{1, 0, 0, 0}, {0, 0, 1, 0}}));
    st.accesses.push_back(Read(b, {{0, 0, 1, 0}, {0, 1, 0, 0}}));
    Access acc = Read(c, {{1, 0, 0, 0}, {0, 1, 0, 0}});
    acc.guard = GuardGe(st.domain, 2, 1);
    st.accesses.push_back(std::move(acc));
    st.accesses.push_back(Write(c, {{1, 0, 0, 0}, {0, 1, 0, 0}}));
    StatementOp op;
    op.kind = StatementOp::Kind::kGemm;
    op.a = 0;
    op.b = 1;
    op.acc = 2;
    op.out = 3;
    op.reduction_iter = 2;
    st.op = op;
    p.AddStatement(std::move(st), nest, 0);
  };
  add_mm("s1", 0, 1, 2, 0);  // C = A * B
  add_mm("s2", 2, 3, 4, 1);  // E = C * D
  return p;
}

// Random static-control program in the same family the differential
// fuzzers draw from: a handful of arrays on a small shared grid, 2-3
// statements with affine (variable-or-constant) accesses and optional
// guarded accumulation.
Program RandomProgram(uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto pick = [&](int lo, int hi) {
    return lo + static_cast<int>(rng() % static_cast<uint64_t>(hi - lo + 1));
  };
  Program p;
  const int narrays = pick(3, 5);
  for (int i = 0; i < narrays; ++i) {
    ArrayInfo a;
    a.name = std::string(1, static_cast<char>('A' + i));
    a.grid = {3, 3};
    a.block_elems = {4, 4};
    p.AddArray(a);
  }
  const int nstmts = pick(2, 3);
  std::vector<bool> written(static_cast<size_t>(narrays), false);
  for (int s = 0; s < nstmts; ++s) {
    Statement st;
    st.name = "s" + std::to_string(s + 1);
    const int depth = pick(2, 3);
    for (int d = 0; d < depth; ++d) {
      st.iters.push_back(std::string(1, static_cast<char>('i' + d)));
    }
    st.domain = RectDomain(
        std::vector<std::pair<int64_t, int64_t>>(
            static_cast<size_t>(depth), {0, 2}),
        st.iters);
    auto rand_row = [&]() {
      std::vector<int64_t> row(static_cast<size_t>(depth) + 1, 0);
      if (pick(0, 2) > 0) {
        row[static_cast<size_t>(pick(0, depth - 1))] = 1;
      } else {
        row[static_cast<size_t>(depth)] = pick(0, 2);
      }
      return row;
    };
    const int nreads = pick(1, 2);
    for (int rd = 0; rd < nreads; ++rd) {
      st.accesses.push_back(Read(pick(0, narrays - 1),
                                 {rand_row(), rand_row()}));
    }
    int warr = pick(0, narrays - 1);
    for (int t = 0; t < narrays && written[static_cast<size_t>(warr)]; ++t) {
      warr = (warr + 1) % narrays;
    }
    written[static_cast<size_t>(warr)] = true;
    std::vector<int64_t> w1 = rand_row(), w2 = rand_row();
    if (pick(0, 1) == 1) {
      Access acc = Read(warr, {w1, w2});
      acc.guard = GuardGe(st.domain, static_cast<size_t>(depth) - 1, 1);
      st.accesses.push_back(std::move(acc));
    }
    st.accesses.push_back(Write(warr, {w1, w2}));
    p.AddStatement(std::move(st), s, 0);
  }
  return p;
}

// Lints one program and every optimizer plan for it. Returns the number
// of findings (0 = clean).
size_t LintOneProgram(const std::string& label, const Program& program,
                      bool verbose) {
  size_t findings = 0;
  auto prog_report = LintProgram(program);
  if (!prog_report.ok()) {
    std::cerr << label << ": internal lint failure: "
              << prog_report.status().ToString() << "\n";
    return 1;
  }
  if (!prog_report->ok()) {
    std::cerr << label << " (program level)\n  " << prog_report->ToString()
              << "\n";
    return prog_report->diags.size();  // plans would lower a broken program
  }
  OptimizationResult r = Optimize(program);
  for (size_t pi = 0; pi < r.plans.size(); ++pi) {
    const Plan& plan = r.plans[pi];
    std::vector<const CoAccess*> q;
    for (int oi : plan.opportunities) {
      q.push_back(&r.analysis.sharing[static_cast<size_t>(oi)]);
    }
    auto report = LintPlan(program, plan.schedule, q);
    if (!report.ok()) {
      std::cerr << label << " plan " << pi << ": internal lint failure: "
                << report.status().ToString() << "\n";
      ++findings;
      continue;
    }
    if (!report->ok()) {
      std::cerr << label << " plan " << pi << "\n  " << report->ToString()
                << "\n";
      findings += report->diags.size();
    } else if (verbose) {
      std::cout << label << " plan " << pi << ": " << report->ToString()
                << "\n";
    }
  }
  if (findings == 0 && !verbose) {
    std::cout << label << ": clean (" << r.plans.size() << " plan(s))\n";
  }
  return findings;
}

int Main(int argc, char** argv) {
  int seeds = 25;
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc) {
      seeds = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      verbose = true;
    } else {
      std::cerr << "usage: riot_lint [--seeds N] [--verbose]\n";
      return 2;
    }
  }
  size_t findings = 0;
  findings += LintOneProgram("two_matmuls[3x3]", TwoMatmuls(3), verbose);
  findings += LintOneProgram("two_matmuls[4x4]", TwoMatmuls(4), verbose);
  for (int s = 0; s < seeds; ++s) {
    findings += LintOneProgram("random[seed=" + std::to_string(s) + "]",
                               RandomProgram(static_cast<uint64_t>(s)),
                               verbose);
  }
  if (findings > 0) {
    std::cerr << "riot_lint: " << findings << " finding(s)\n";
    return 1;
  }
  std::cout << "riot_lint: all clean\n";
  return 0;
}

}  // namespace
}  // namespace riot

int main(int argc, char** argv) { return riot::Main(argc, argv); }
