// Tests for the cross-basic-block redundancy-removal extension (the
// paper's §4 future work, implemented in src/comm/interblock.*).
#include <gtest/gtest.h>

#include <cmath>

#include "src/comm/interblock.h"
#include "src/comm/optimizer.h"
#include "src/parser/parser.h"
#include "src/programs/programs.h"
#include "src/sim/engine.h"

namespace zc::comm {
namespace {

OptOptions with_inter_block() {
  OptOptions o = OptOptions::for_level(OptLevel::kPL);
  o.inter_block = true;
  return o;
}

int static_count(std::string_view src, const OptOptions& o) {
  return plan_communication(parser::parse_program(src), o).static_count();
}

TEST(ModSet, DirectAndTransitiveWrites) {
  const zir::Program p = parser::parse_program(R"(
program t;
config n : integer = 8;
region R = [1..n, 1..n];
var A, B, C : [R] double;
procedure leaf() {
  [R] B := 1.0;
}
procedure mid() {
  [R] A := 2.0;
  leaf();
}
procedure main() {
  mid();
  [R] C := 0.0;
}
)");
  const auto mid_mods = mod_set(p, p.find_proc("mid"));
  EXPECT_EQ(mid_mods.size(), 2u);
  EXPECT_TRUE(mid_mods.count(p.find_array("A")));
  EXPECT_TRUE(mid_mods.count(p.find_array("B")));
  EXPECT_FALSE(mid_mods.count(p.find_array("C")));
  const auto leaf_mods = mod_set(p, p.find_proc("leaf"));
  EXPECT_EQ(leaf_mods.size(), 1u);
}

TEST(InterBlock, RemovesAcrossCallBoundary) {
  // The same slice is needed in two blocks separated by a call that does
  // not modify the array: intra-block rr keeps both, inter-block drops one.
  constexpr std::string_view src = R"(
program t;
config n : integer = 8;
region R = [1..n, 1..n];
direction east = [0, 1];
var A, B, C, D : [R] double;
procedure other() {
  [R] D := D + 1.0;
}
procedure main() {
  [R] A := B@east;
  other();
  [R] C := B@east;
}
)";
  OptOptions intra = OptOptions::for_level(OptLevel::kRR);
  EXPECT_EQ(static_count(src, intra), 2);
  intra.inter_block = true;
  EXPECT_EQ(static_count(src, intra), 1);
}

TEST(InterBlock, CalleeWriteInvalidates) {
  constexpr std::string_view src = R"(
program t;
config n : integer = 8;
region R = [1..n, 1..n];
direction east = [0, 1];
var A, B, C : [R] double;
procedure clobber() {
  [R] B := B + 1.0;
}
procedure main() {
  [R] A := B@east;
  clobber();
  [R] C := B@east;
}
)";
  EXPECT_EQ(static_count(src, with_inter_block()), 2);
}

TEST(InterBlock, LoopBoundaryIsConservative) {
  // The slice cached before the loop must not satisfy uses inside it (the
  // body writes B on the back edge), and vice versa.
  constexpr std::string_view src = R"(
program t;
config n : integer = 8;
region R = [1..n, 1..n];
direction east = [0, 1];
var A, B, C : [R] double;
procedure main() {
  [R] A := B@east;
  repeat 2 {
    [R] C := B@east;
    [R] B := C;
  }
  [R] A := B@east;
}
)";
  EXPECT_EQ(static_count(src, with_inter_block()), 3);
}

TEST(InterBlock, FlowsWithinOneLoopIteration) {
  // Inside the loop body, block 1's slice satisfies block 2's use on every
  // iteration (the intervening call writes nothing relevant).
  constexpr std::string_view src = R"(
program t;
config n : integer = 8;
region R = [1..n, 1..n];
direction east = [0, 1];
var A, B, C, D : [R] double;
procedure other() {
  [R] D := D * 0.5;
}
procedure main() {
  repeat 3 {
    [R] A := B@east;
    other();
    [R] C := B@east;
  }
}
)";
  EXPECT_EQ(static_count(src, with_inter_block()), 1);
}

TEST(InterBlock, IfBranchesSeePreBranchState) {
  constexpr std::string_view src = R"(
program t;
config n : integer = 8;
region R = [1..n, 1..n];
direction east = [0, 1];
var A, B, C, D : [R] double;
var s : double;
procedure main() {
  [R] A := B@east;
  [R] s := +<< A;
  if s > 0.0 {
    [R] C := B@east;
  } else {
    [R] D := B@east;
  }
  [R] A := B@east;
}
)";
  // Both branch uses are covered by the pre-branch transfer; the use after
  // the join is conservatively kept (we do not intersect branch exits).
  EXPECT_EQ(static_count(src, with_inter_block()), 2);
}

TEST(InterBlock, WriteInBranchDoesNotLeakCoverage) {
  constexpr std::string_view src = R"(
program t;
config n : integer = 8;
region R = [1..n, 1..n];
direction east = [0, 1];
var A, B, C : [R] double;
var s : double;
procedure main() {
  [R] A := B@east;
  [R] s := +<< A;
  if s > 100.0 {
    [R] B := A;
  }
  [R] C := B@east;
}
)";
  // B may be written on the taken branch: the final use must communicate.
  EXPECT_EQ(static_count(src, with_inter_block()), 2);
}

TEST(InterBlock, SingleCallSiteIsContextSensitive) {
  // A procedure with exactly one call site flows the caller's state
  // through: the callee's use is satisfied by the caller-side transfer.
  constexpr std::string_view src = R"(
program t;
config n : integer = 8;
region R = [1..n, 1..n];
direction east = [0, 1];
var A, B, C : [R] double;
procedure reader() {
  [R] C := B@east;
}
procedure main() {
  [R] A := B@east;
  reader();
}
)";
  EXPECT_EQ(static_count(src, with_inter_block()), 1);
}

TEST(InterBlock, MultiplyCalledProcedureGetsEmptyEntryState) {
  // With two call sites, the callee's marks must hold at both: the first
  // call is preceded by a covering transfer but the second is not (B is
  // rewritten in between), so the callee keeps its communication.
  constexpr std::string_view src = R"(
program t;
config n : integer = 8;
region R = [1..n, 1..n];
direction east = [0, 1];
var A, B, C : [R] double;
procedure reader() {
  [R] C := B@east;
}
procedure main() {
  [R] A := B@east;
  reader();
  [R] B := A;
  reader();
}
)";
  EXPECT_EQ(static_count(src, with_inter_block()), 2);
}

TEST(InterBlock, ReducesBenchmarkCounts) {
  // The phase-structured benchmarks re-communicate slices across their
  // phase blocks; the extension must strictly improve SIMPLE (UN/VN slices
  // recur across viscosity/stress/forces) without breaking any benchmark.
  for (const auto& info : programs::benchmark_suite()) {
    const zir::Program p = parser::parse_program(info.source);
    const int pl = plan_communication(p, OptOptions::for_level(OptLevel::kPL)).static_count();
    const int inter = plan_communication(p, with_inter_block()).static_count();
    EXPECT_LE(inter, pl) << info.name;
    if (info.name == "simple") {
      EXPECT_LT(inter, pl);
    }
  }
}

TEST(InterBlock, SemanticsPreservedOnBenchmarks) {
  for (const auto& info : programs::benchmark_suite()) {
    const zir::Program p = parser::parse_program(info.source);
    const CommPlan ref_plan = plan_communication(p, OptOptions::for_level(OptLevel::kBaseline));
    sim::RunConfig ref_cfg;
    ref_cfg.procs = 1;
    ref_cfg.config_overrides = info.test_configs;
    const sim::RunResult ref = sim::run_program(p, ref_plan, ref_cfg);

    const CommPlan plan = plan_communication(p, with_inter_block());
    sim::RunConfig cfg;
    cfg.procs = 4;
    cfg.config_overrides = info.test_configs;
    const sim::RunResult got = sim::run_program(p, plan, cfg);
    for (const auto& [name, value] : ref.checksums) {
      const double tol = 1e-9 * std::max(1.0, std::fabs(value));
      EXPECT_NEAR(got.checksums.at(name), value, tol) << info.name << " " << name;
    }
  }
}

}  // namespace
}  // namespace zc::comm
