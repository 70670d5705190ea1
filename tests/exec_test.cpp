// Unit tests for the sweep execution substrate (src/exec): run_sweep's
// parallel fork/join (submission slots, per-item failures, the jobs
// contract) and the plan memoization cache (keying, concurrency, hit/miss
// stats).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/comm/optimizer.h"
#include "src/exec/plan_cache.h"
#include "src/exec/sweep.h"
#include "src/parser/parser.h"
#include "src/programs/programs.h"
#include "src/report/passlog.h"
#include "src/support/diag.h"

namespace zc::exec {
namespace {

constexpr std::string_view kProgram = R"(
program cachetest;
config n : integer = 8;
region R = [1..n, 1..n];
direction east = [0, 1];
var A, B, C : [R] double;
procedure main() {
  [R] B := Index1 * 0.5;
  [R] A := B@east;
  [R] C := B@east;
}
)";

// Different program text (an extra statement): its own cache entries.
constexpr std::string_view kOtherProgram = R"(
program cachetest;
config n : integer = 8;
region R = [1..n, 1..n];
direction east = [0, 1];
var A, B, C : [R] double;
procedure main() {
  [R] B := Index1 * 0.5;
  [R] A := B@east;
  [R] C := B@east;
  [R] C := A@east;
}
)";

TEST(PlanCache, MissThenHit) {
  const zir::Program program = parser::parse_program(kProgram);
  const comm::OptOptions opts = comm::OptOptions::for_level(comm::OptLevel::kPL);

  PlanCache cache;
  const auto p1 = cache.get_or_plan(program, opts);
  const auto p2 = cache.get_or_plan(program, opts);
  ASSERT_NE(p1, nullptr);
  EXPECT_EQ(p1.get(), p2.get());  // the same shared immutable plan
  const PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.lookups(), 2);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.5);
}

TEST(PlanCache, KeySeparatesOptionsAndMachine) {
  const zir::Program program = parser::parse_program(kProgram);
  const comm::OptOptions pl = comm::OptOptions::for_level(comm::OptLevel::kPL);
  comm::OptOptions maxlat = pl;
  maxlat.heuristic = comm::CombineHeuristic::kMaxLatency;

  PlanCache cache;
  const auto p_pl = cache.get_or_plan(program, pl, "t3d");
  EXPECT_NE(cache.get_or_plan(program, maxlat, "t3d").get(), p_pl.get());
  EXPECT_NE(cache.get_or_plan(program, pl, "paragon").get(), p_pl.get());
  EXPECT_EQ(cache.stats().misses, 3);

  // pass_log is NOT part of the key: attaching provenance never forks plans.
  comm::OptOptions logged = pl;
  report::PassLog log;
  logged.pass_log = &log;
  EXPECT_EQ(cache.get_or_plan(program, logged, "t3d").get(), p_pl.get());
  EXPECT_EQ(cache.stats().misses, 3);

  // Options that differ only past the sixth significant digit are still
  // different options, and each must be served its own plan.
  const zir::Program tomcatv = parser::parse_program(programs::benchmark("tomcatv").source);
  comm::OptOptions half = pl;
  half.heuristic = comm::CombineHeuristic::kHybrid;
  half.hybrid_min_window_fraction = 0.5;
  comm::OptOptions past_half = half;
  past_half.hybrid_min_window_fraction = 0.5 + 1e-9;
  const std::string want_half =
      comm::to_string(comm::plan_communication(tomcatv, half), tomcatv);
  const std::string want_past_half =
      comm::to_string(comm::plan_communication(tomcatv, past_half), tomcatv);
  ASSERT_NE(want_half, want_past_half);

  PlanCache fractions;
  const auto p_half = fractions.get_or_plan(tomcatv, half, "t3d");
  const auto p_past_half = fractions.get_or_plan(tomcatv, past_half, "t3d");
  EXPECT_EQ(fractions.stats().misses, 2);
  EXPECT_EQ(comm::to_string(*p_half, tomcatv), want_half);
  EXPECT_EQ(comm::to_string(*p_past_half, tomcatv), want_past_half);
}

TEST(PlanCache, ConcurrentRequestsPlanEachKeyOnce) {
  const zir::Program a = parser::parse_program(kProgram);
  const zir::Program b = parser::parse_program(kOtherProgram);
  const std::vector<comm::OptOptions> opts = {
      comm::OptOptions::for_level(comm::OptLevel::kBaseline),
      comm::OptOptions::for_level(comm::OptLevel::kRR),
      comm::OptOptions::for_level(comm::OptLevel::kCC),
      comm::OptOptions::for_level(comm::OptLevel::kPL),
  };
  PlanCache cache;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kTasks = 64;
  std::vector<std::shared_ptr<const comm::CommPlan>> got(kTasks);
  {
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t i = t; i < kTasks; i += kThreads) {
          got[i] = cache.get_or_plan(i % 2 == 0 ? a : b, opts[(i / 2) % opts.size()]);
        }
      });
    }
  }
  for (const auto& p : got) EXPECT_NE(p, nullptr);
  const PlanCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 8);  // 2 programs x 4 option sets, each planned once
  EXPECT_EQ(s.hits, static_cast<long long>(kTasks) - 8);
  // Identical keys resolved to the identical shared plan object.
  std::set<const comm::CommPlan*> distinct;
  for (const auto& p : got) distinct.insert(p.get());
  EXPECT_EQ(distinct.size(), 8u);
}

// A small grid: every paper experiment on two suite programs at their test
// sizes.
std::vector<SweepItem> small_grid() {
  std::vector<SweepItem> items;
  for (const char* name : {"tomcatv", "swm"}) {
    const programs::BenchmarkInfo& info = programs::benchmark(name);
    const auto program = std::make_shared<const zir::Program>(parser::parse_program(info.source));
    for (const driver::Experiment& e : driver::paper_experiments()) {
      SweepItem item;
      item.label = info.name + "/" + e.name;
      item.program = program;
      item.experiment = e;
      item.procs = 4;
      item.config_overrides = info.test_configs;
      items.push_back(std::move(item));
    }
  }
  return items;
}

TEST(Sweep, ParallelRunFillsEverySlotAndReportsAMissingProgram) {
  const std::vector<SweepItem> serial_items = small_grid();
  SweepOptions serial;
  serial.jobs = 1;
  const std::vector<SweepResult> want = run_sweep(serial_items, serial);

  std::vector<SweepItem> items = serial_items;
  constexpr std::size_t kHole = 5;
  SweepItem hole;
  hole.label = "hole";
  items.insert(items.begin() + kHole, hole);
  SweepOptions parallel;
  parallel.jobs = 4;
  const std::vector<SweepResult> got = run_sweep(items, parallel);

  ASSERT_EQ(got.size(), items.size());
  EXPECT_FALSE(got[kHole].ok);
  EXPECT_EQ(got[kHole].error, "sweep item 'hole' has no program");
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (i == kHole) continue;
    const SweepResult& w = want[i < kHole ? i : i - 1];
    ASSERT_TRUE(w.ok) << items[i].label << ": " << w.error;
    ASSERT_TRUE(got[i].ok) << items[i].label << ": " << got[i].error;
    EXPECT_EQ(result_checksum(got[i].metrics.run), result_checksum(w.metrics.run))
        << items[i].label;
  }
}

TEST(Sweep, RejectsNegativeJobs) {
  SweepOptions options;
  options.jobs = -1;
  EXPECT_THROW(run_sweep(small_grid(), options), Error);
}

}  // namespace
}  // namespace zc::exec
