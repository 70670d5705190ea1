// Structural checks on the benchmark suite: the programs parse, have the
// communication profiles the paper describes, and the static counts move
// the way the paper's Figure 8 / 11 report.
#include <gtest/gtest.h>

#include "src/comm/optimizer.h"
#include "src/parser/parser.h"
#include "src/programs/programs.h"

namespace zc {
namespace {

int static_count(const zir::Program& p, comm::OptLevel level,
                 comm::CombineHeuristic h = comm::CombineHeuristic::kMaxCombining) {
  comm::OptOptions o = comm::OptOptions::for_level(level);
  o.heuristic = h;
  return comm::plan_communication(p, o).static_count();
}

TEST(Suite, HasTheFourPaperPrograms) {
  const auto& suite = programs::benchmark_suite();
  ASSERT_EQ(suite.size(), 4u);
  EXPECT_EQ(suite[0].name, "tomcatv");
  EXPECT_EQ(suite[1].name, "swm");
  EXPECT_EQ(suite[2].name, "simple");
  EXPECT_EQ(suite[3].name, "sp");
  EXPECT_THROW(programs::benchmark("nosuch"), Error);
}

TEST(Suite, AllProgramsParseAndValidate) {
  for (const auto& info : programs::benchmark_suite()) {
    EXPECT_NO_THROW({
      const zir::Program p = parser::parse_program(info.source);
      EXPECT_EQ(p.name(), info.name);
    }) << info.name;
  }
  for (const char* k : {"jacobi", "life", "heat3d"}) {
    EXPECT_NO_THROW(parser::parse_program(programs::kernel_source(k))) << k;
  }
  EXPECT_THROW(programs::kernel_source("nosuch"), Error);
}

TEST(Suite, PaperConfigsMatchFigure7Sizes) {
  EXPECT_EQ(programs::benchmark("tomcatv").paper_configs.at("n"), 128);
  EXPECT_EQ(programs::benchmark("swm").paper_configs.at("n"), 512);
  EXPECT_EQ(programs::benchmark("simple").paper_configs.at("n"), 256);
  EXPECT_EQ(programs::benchmark("sp").paper_configs.at("n"), 16);
}

/// Figure 8 shape: static counts fall substantially under rr and again
/// under cc, for every benchmark.
TEST(Counts, StaticCountsShrinkAsInFigure8) {
  for (const auto& info : programs::benchmark_suite()) {
    const zir::Program p = parser::parse_program(info.source);
    const int base = static_count(p, comm::OptLevel::kBaseline);
    const int rr = static_count(p, comm::OptLevel::kRR);
    const int cc = static_count(p, comm::OptLevel::kCC);
    const int pl = static_count(p, comm::OptLevel::kPL);
    EXPECT_GT(base, 0) << info.name;
    EXPECT_LT(rr, base) << info.name;             // redundancy exists
    EXPECT_LT(cc, rr) << info.name;               // combining exists
    EXPECT_EQ(pl, cc) << info.name;               // pipelining count-neutral
    // Paper: static counts end up between 20% and 55% of baseline.
    EXPECT_LE(cc, (60 * base) / 100) << info.name;
    EXPECT_GE(cc, (10 * base) / 100) << info.name;
  }
}

/// Figure 11 shape: combining for maximum latency hiding keeps more
/// communications than maximum combining; for TOMCATV it combines nothing
/// (its static count equals rr's, as in the paper).
TEST(Counts, MaxLatencyKeepsMoreCommunications) {
  for (const auto& info : programs::benchmark_suite()) {
    const zir::Program p = parser::parse_program(info.source);
    const int rr = static_count(p, comm::OptLevel::kRR);
    const int maxcomb = static_count(p, comm::OptLevel::kPL);
    const int maxlat =
        static_count(p, comm::OptLevel::kPL, comm::CombineHeuristic::kMaxLatency);
    EXPECT_GE(maxlat, maxcomb) << info.name;
    EXPECT_LE(maxlat, rr) << info.name;
    if (info.name == "tomcatv") {
      EXPECT_EQ(maxlat, rr);
    }
  }
}

/// TOMCATV's baseline static count lands near the paper's 46.
TEST(Counts, TomcatvBaselineNearPaper) {
  const zir::Program p = parser::parse_program(programs::benchmark("tomcatv").source);
  const int base = static_count(p, comm::OptLevel::kBaseline);
  EXPECT_GE(base, 35);
  EXPECT_LE(base, 55);
}

/// SP: z-direction shifts produce no communication (dim 2 is local), so
/// z_solve contributes nothing to the static count.
TEST(Counts, SpZSweepIsCommunicationFree) {
  const zir::Program p = parser::parse_program(programs::benchmark("sp").source);
  const comm::CommPlan plan =
      comm::plan_communication(p, comm::OptOptions::for_level(comm::OptLevel::kBaseline));
  const zir::ProcId z = p.find_proc("z_solve");
  ASSERT_TRUE(z.valid());
  for (const comm::BlockPlan& b : plan.blocks) {
    if (b.proc == z) {
      EXPECT_TRUE(b.groups.empty());
      EXPECT_TRUE(b.transfers.empty());
    }
  }
}

/// TOMCATV's solver: the paper says pipelining opportunities are limited
/// by cross-loop dependences — the sweep-body groups have zero or tiny
/// latency-hiding windows even under pl.
TEST(Structure, TomcatvSolverWindowsAreTiny) {
  const zir::Program p = parser::parse_program(programs::benchmark("tomcatv").source);
  const comm::CommPlan plan =
      comm::plan_communication(p, comm::OptOptions::for_level(comm::OptLevel::kPL));
  // Sweep-body blocks are the 3-statement and 2-statement blocks.
  for (const comm::BlockPlan& b : plan.blocks) {
    if (b.stmts.size() <= 3 && !b.groups.empty()) {
      for (const comm::CommGroup& g : b.groups) {
        EXPECT_LE(g.window(), 1) << "solver block group " << g.id;
      }
    }
  }
}

/// SIMPLE: all communication sits in main-body blocks with room to
/// pipeline — at least some groups get a multi-statement window.
TEST(Structure, SimpleHasWidePipelineWindows) {
  const zir::Program p = parser::parse_program(programs::benchmark("simple").source);
  const comm::CommPlan plan =
      comm::plan_communication(p, comm::OptOptions::for_level(comm::OptLevel::kPL));
  int wide = 0;
  for (const comm::BlockPlan& b : plan.blocks) {
    for (const comm::CommGroup& g : b.groups) wide += g.window() >= 2 ? 1 : 0;
  }
  EXPECT_GE(wide, 3);
}

}  // namespace
}  // namespace zc
