// End-to-end driver tests: the Figure 9 experiment key, and the paper's
// headline performance shape on down-scaled benchmark runs — execution
// times fall monotonically baseline -> rr -> cc -> pl; SHMEM helps SWM and
// SIMPLE but hurts TOMCATV and SP (the prototype's heavyweight synch).
#include <gtest/gtest.h>

#include "src/comm/optimizer.h"
#include "src/driver/driver.h"
#include "src/parser/parser.h"
#include "src/programs/programs.h"
#include "src/support/diag.h"

namespace zc::driver {
namespace {

TEST(Experiments, Figure9KeyIsComplete) {
  const auto exps = paper_experiments();
  ASSERT_EQ(exps.size(), 6u);
  EXPECT_EQ(exps[0].name, "baseline");
  EXPECT_EQ(exps[1].name, "rr");
  EXPECT_EQ(exps[2].name, "cc");
  EXPECT_EQ(exps[3].name, "pl");
  EXPECT_EQ(exps[4].name, "pl with shmem");
  EXPECT_EQ(exps[5].name, "pl with max latency");

  EXPECT_FALSE(exps[0].opts.remove_redundant);
  EXPECT_TRUE(exps[1].opts.remove_redundant);
  EXPECT_FALSE(exps[1].opts.combine);
  EXPECT_TRUE(exps[2].opts.combine);
  EXPECT_FALSE(exps[2].opts.pipeline);
  EXPECT_TRUE(exps[3].opts.pipeline);
  EXPECT_EQ(exps[3].library, ironman::CommLibrary::kPVM);
  EXPECT_EQ(exps[4].library, ironman::CommLibrary::kSHMEM);
  EXPECT_EQ(exps[5].opts.heuristic, comm::CombineHeuristic::kMaxLatency);
}

TEST(Experiments, FindByName) {
  EXPECT_TRUE(find_experiment("pl with shmem").has_value());
  EXPECT_FALSE(find_experiment("bogus").has_value());
}

TEST(Experiments, CheckedLookupThrowsOnUnknownName) {
  EXPECT_EQ(experiment("pl with shmem").library, ironman::CommLibrary::kSHMEM);
  EXPECT_THROW(experiment("all"), Error);
  EXPECT_THROW(experiment("bogus"), Error);
}

TEST(Compile, ReportsStaticCount) {
  const Compiled c = compile(programs::benchmark("tomcatv").source,
                             comm::OptOptions::for_level(comm::OptLevel::kCC));
  EXPECT_GT(c.static_count(), 0);
  EXPECT_EQ(c.program.name(), "tomcatv");
}

class ShapeTest : public ::testing::Test {
 protected:
  /// Runs all six paper experiments on a benchmark at test scale, 16 procs.
  std::map<std::string, Metrics> run_all(const std::string& bench) {
    const auto& info = programs::benchmark(bench);
    std::map<std::string, Metrics> out;
    for (const Experiment& e : paper_experiments()) {
      out[e.name] = run_source(info.source, e, /*procs=*/16, info.test_configs);
    }
    return out;
  }
};

TEST_F(ShapeTest, OptimizationLevelsMonotonicallyImprove) {
  for (const char* bench : {"tomcatv", "swm", "simple", "sp"}) {
    const auto m = run_all(bench);
    const double base = m.at("baseline").execution_time;
    const double rr = m.at("rr").execution_time;
    const double cc = m.at("cc").execution_time;
    const double pl = m.at("pl").execution_time;
    EXPECT_LT(rr, base) << bench;
    EXPECT_LT(cc, rr) << bench;
    EXPECT_LE(pl, cc * 1.001) << bench;
    // Paper Figure 10(a): fully optimized runs land well below baseline.
    EXPECT_LT(pl, 0.97 * base) << bench;
  }
}

TEST_F(ShapeTest, ShmemHelpsFlatProgramsHurtsSequentialOnes) {
  // Paper Figure 10(b): SWM and SIMPLE improve under SHMEM; TOMCATV and SP
  // degrade because of the prototype's heavyweight synchronization around
  // their serialized solver sweeps.
  for (const char* bench : {"swm", "simple"}) {
    const auto m = run_all(bench);
    EXPECT_LT(m.at("pl with shmem").execution_time, m.at("pl").execution_time) << bench;
  }
  for (const char* bench : {"tomcatv", "sp"}) {
    const auto m = run_all(bench);
    EXPECT_GT(m.at("pl with shmem").execution_time, m.at("pl").execution_time) << bench;
  }
}

TEST_F(ShapeTest, MaxCombiningBeatsMaxLatencyAtRuntime) {
  // Paper Figure 12: the maximized-combining versions always ran faster
  // than the maximized-latency-hiding versions.
  for (const char* bench : {"tomcatv", "swm", "simple", "sp"}) {
    const auto m = run_all(bench);
    EXPECT_LE(m.at("pl with shmem").execution_time,
              m.at("pl with max latency").execution_time * 1.001)
        << bench;
  }
}

TEST_F(ShapeTest, DynamicCountsMatchFigure8Shape) {
  for (const char* bench : {"tomcatv", "swm", "simple", "sp"}) {
    const auto m = run_all(bench);
    const auto base = m.at("baseline").dynamic_count;
    EXPECT_LT(m.at("rr").dynamic_count, base) << bench;
    EXPECT_LT(m.at("cc").dynamic_count, m.at("rr").dynamic_count) << bench;
    EXPECT_EQ(m.at("pl").dynamic_count, m.at("cc").dynamic_count) << bench;
  }
}

TEST_F(ShapeTest, ParagonAsyncBindingsDoNotBeatSyncOnWholePrograms) {
  // Paper §3.2: on the Paragon, the asynchronous primitives "saw little
  // performance improvement or, in most cases, performance degradation"
  // across the full benchmark suite.
  for (const char* bench : {"tomcatv", "swm", "simple", "sp"}) {
    const auto& info = programs::benchmark(bench);
    const zir::Program p = parser::parse_program(info.source);
    const comm::CommPlan plan =
        comm::plan_communication(p, comm::OptOptions::for_level(comm::OptLevel::kPL));
    auto time_with = [&](ironman::CommLibrary lib) {
      sim::RunConfig cfg;
      cfg.machine = machine::paragon_model();
      cfg.library = lib;
      cfg.procs = 16;
      cfg.config_overrides = info.test_configs;
      return sim::run_program(p, plan, cfg).elapsed_seconds;
    };
    const double sync = time_with(ironman::CommLibrary::kNXSync);
    const double async = time_with(ironman::CommLibrary::kNXAsync);
    const double callback = time_with(ironman::CommLibrary::kNXCallback);
    EXPECT_GT(async, 0.98 * sync) << bench;     // little improvement at best
    EXPECT_GT(callback, async * 0.999) << bench;  // callbacks worse still
  }
}

TEST_F(ShapeTest, TomcatvMaxLatencyCountsEqualRR) {
  // Paper §3.3.2: "For TOMCATV, the dynamic communication count is ... the
  // same as for simply removing redundant communication."
  const auto m = run_all("tomcatv");
  EXPECT_EQ(m.at("pl with max latency").dynamic_count, m.at("rr").dynamic_count);
  EXPECT_EQ(m.at("pl with max latency").static_count, m.at("rr").static_count);
}

}  // namespace
}  // namespace zc::driver
