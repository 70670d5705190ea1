// Determinism stress for the parallel sweep engine: the same grid run on
// 8 concurrent workers, 20 repetitions, must be bit-identical to a serial
// golden in every observable — result checksums, the communication plans
// executed, counts and trace Stats. This is the
// enforcement teeth behind the contract documented in src/exec/sweep.h;
// it is labeled `tsan` so a -DZC_SANITIZE=thread build races it hard.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/driver/driver.h"
#include "src/exec/plan_cache.h"
#include "src/exec/sweep.h"
#include "src/parser/parser.h"
#include "src/programs/programs.h"

namespace zc::exec {
namespace {

constexpr int kWorkers = 8;
constexpr int kReps = 20;

std::shared_ptr<const zir::Program> stress_program() {
  static const std::shared_ptr<const zir::Program> program =
      std::make_shared<const zir::Program>(parser::parse_program(R"(
program stress;
config n : integer = 16;
region R = [0..n+1, 0..n+1];
region I = [1..n, 1..n];
direction east = [0, 1];
direction south = [1, 0];
var A, B, C, D, E : [R] double;
procedure main() {
  [R] B := Index1 * 0.5;
  [R] E := Index2 * 0.25;
  [I] A := B@east + E@south;
  [I] C := B@east;
  [I] D := E@east + A@south;
}
)"));
  return program;
}

// One repetition of the grid: every paper experiment on the stress program,
// traced, at two processor counts — enough shape variety that a scheduling
// bug has somewhere to show.
std::vector<SweepItem> grid_rep(int rep) {
  std::vector<SweepItem> items;
  for (const driver::Experiment& e : driver::paper_experiments()) {
    for (const int procs : {16, 64}) {
      SweepItem item;
      item.label = e.name + "/p" + std::to_string(procs) + "/r" + std::to_string(rep);
      item.program = stress_program();
      item.experiment = e;
      item.procs = procs;
      item.trace = true;
      items.push_back(std::move(item));
    }
  }
  return items;
}

struct Golden {
  std::uint64_t checksum = 0;
  std::string plan_text;
  std::string trace_csv;
  int static_count = 0;
  long long dynamic_count = 0;
};

TEST(SweepDeterminism, EightWorkersTimesTwentyRepsMatchSerialGolden) {
  // Serial golden: one repetition of the grid through the inline jobs=1
  // path with its own plan cache.
  const std::vector<SweepItem> base = grid_rep(0);
  PlanCache golden_cache;
  SweepOptions golden_opts;
  golden_opts.jobs = 1;
  golden_opts.plan_cache = &golden_cache;

  const std::vector<SweepResult> golden_results = run_sweep(base, golden_opts);
  ASSERT_EQ(golden_results.size(), base.size());
  std::vector<Golden> golden(base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    ASSERT_TRUE(golden_results[i].ok) << base[i].label << ": " << golden_results[i].error;
    ASSERT_NE(golden_results[i].plan, nullptr);
    ASSERT_TRUE(golden_results[i].metrics.trace_stats.has_value()) << base[i].label;
    golden[i].checksum = result_checksum(golden_results[i].metrics.run);
    golden[i].plan_text = comm::to_string(*golden_results[i].plan, *base[i].program);
    golden[i].trace_csv = golden_results[i].metrics.trace_stats->to_csv();
    golden[i].static_count = golden_results[i].metrics.static_count;
    golden[i].dynamic_count = golden_results[i].metrics.dynamic_count;
  }

  // Stress: 20 repetitions of that grid in ONE submission, fanned across 8
  // workers with a shared fresh cache, so the same (program, options) keys
  // are hammered concurrently while distinct keys plan in parallel.
  std::vector<SweepItem> items;
  for (int rep = 0; rep < kReps; ++rep) {
    for (SweepItem& item : grid_rep(rep)) items.push_back(std::move(item));
  }
  PlanCache stress_cache;
  SweepOptions stress_opts;
  stress_opts.jobs = kWorkers;
  stress_opts.plan_cache = &stress_cache;

  const std::vector<SweepResult> results = run_sweep(items, stress_opts);
  ASSERT_EQ(results.size(), base.size() * kReps);

  for (std::size_t i = 0; i < results.size(); ++i) {
    const Golden& want = golden[i % base.size()];
    const SweepResult& got = results[i];
    ASSERT_TRUE(got.ok) << items[i].label << ": " << got.error;
    EXPECT_EQ(result_checksum(got.metrics.run), want.checksum) << items[i].label;
    EXPECT_EQ(got.metrics.static_count, want.static_count) << items[i].label;
    EXPECT_EQ(got.metrics.dynamic_count, want.dynamic_count) << items[i].label;
    ASSERT_NE(got.plan, nullptr) << items[i].label;
    EXPECT_EQ(comm::to_string(*got.plan, *items[i].program), want.plan_text)
        << items[i].label;
    ASSERT_TRUE(got.metrics.trace_stats.has_value()) << items[i].label;
    EXPECT_EQ(got.metrics.trace_stats->to_csv(), want.trace_csv) << items[i].label;
  }

  // The cache planned each distinct (experiment opts) exactly once no matter
  // how many workers raced on it: misses == distinct keys, deterministic.
  const PlanCacheStats cs = stress_cache.stats();
  EXPECT_EQ(cs.misses, golden_cache.stats().misses);
  EXPECT_EQ(cs.hits + cs.misses,
            static_cast<long long>(results.size()));
  EXPECT_GT(cs.hits, 0);
}

// Identical plans are not just equal text — cache hits share the same plan
// object across runs and repetitions (one immutable CommPlan per key).
TEST(SweepDeterminism, CacheSharesOnePlanObjectPerKey) {
  std::vector<SweepItem> items;
  for (int rep = 0; rep < 4; ++rep) {
    for (SweepItem& item : grid_rep(rep)) items.push_back(std::move(item));
  }
  PlanCache cache;
  SweepOptions opts;
  opts.jobs = kWorkers;
  opts.plan_cache = &cache;
  const std::vector<SweepResult> results = run_sweep(items, opts);

  const std::size_t per_rep = items.size() / 4;
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok) << items[i].label;
    const std::size_t base_slot = i % per_rep;
    EXPECT_EQ(results[i].plan.get(), results[base_slot].plan.get())
        << items[i].label << " should share " << items[base_slot].label << "'s plan";
  }
}

// The paper grid three ways — driver::run_experiment (plans every run),
// run_sweep inline at jobs=1, and run_sweep on 4 workers, each sweep with a
// fresh plan cache — must agree per slot on the result checksum and the
// static and dynamic counts; "pl" and "pl with shmem" share a plan, so the
// 4-worker cache must hit.
TEST(SweepDeterminism, SuiteGridMatchesPlanEveryRunLoop) {
  std::vector<SweepItem> items;
  for (const programs::BenchmarkInfo& info : programs::benchmark_suite()) {
    const auto program =
        std::make_shared<const zir::Program>(parser::parse_program(info.source));
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

  PlanCache serial_cache;
  SweepOptions serial_opts;
  serial_opts.jobs = 1;
  serial_opts.plan_cache = &serial_cache;
  const std::vector<SweepResult> serial = run_sweep(items, serial_opts);
  PlanCache parallel_cache;
  SweepOptions parallel_opts;
  parallel_opts.jobs = 4;
  parallel_opts.plan_cache = &parallel_cache;
  const std::vector<SweepResult> parallel = run_sweep(items, parallel_opts);
  ASSERT_EQ(serial.size(), items.size());
  ASSERT_EQ(parallel.size(), items.size());

  for (std::size_t i = 0; i < items.size(); ++i) {
    sim::RunConfig cfg;
    cfg.procs = items[i].procs;
    cfg.config_overrides = items[i].config_overrides;
    const driver::Metrics want =
        driver::run_experiment(*items[i].program, items[i].experiment, cfg);
    for (const SweepResult* got : {&serial[i], &parallel[i]}) {
      ASSERT_TRUE(got->ok) << items[i].label << ": " << got->error;
      EXPECT_EQ(result_checksum(got->metrics.run), result_checksum(want.run))
          << items[i].label;
      EXPECT_EQ(got->metrics.static_count, want.static_count) << items[i].label;
      EXPECT_EQ(got->metrics.dynamic_count, want.dynamic_count) << items[i].label;
    }
  }
  EXPECT_GT(parallel_cache.stats().hits, 0);
}

}  // namespace
}  // namespace zc::exec
