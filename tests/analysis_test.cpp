// Attribution engine tests: the per-transfer blame conservation law on all
// four paper benchmarks (rows partition the trace's exposed overhead, even
// on capped traces), critical-path decomposition of the makespan, honest
// degradation when detail buffers were truncated, the differential
// conservation law (per-decision savings sum to the end-to-end exposed
// delta for mv vs. mv+rr+cc+pl), and the pure-post-processing contract
// (attribution never perturbs the simulated metrics).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/blame.h"
#include "src/analysis/critpath.h"
#include "src/analysis/diff.h"
#include "src/driver/driver.h"
#include "src/driver/report.h"
#include "src/parser/parser.h"
#include "src/programs/programs.h"
#include "src/support/json.h"
#include "src/trace/recorder.h"
#include "src/trace/stats.h"

namespace zc::analysis {
namespace {

constexpr const char* kBenchmarks[] = {"tomcatv", "swm", "simple", "sp"};

driver::Metrics run_traced(const std::string& bench, const std::string& experiment,
                           trace::Recorder& recorder, int procs = 16) {
  const programs::BenchmarkInfo& info = programs::benchmark(bench);
  const zir::Program program = parser::parse_program(info.source);
  sim::RunConfig cfg;
  cfg.procs = procs;
  cfg.config_overrides = info.test_configs;
  cfg.recorder = &recorder;
  return driver::run_experiment(program, driver::experiment(experiment), cfg);
}

/// |a - b| within 1e-9 relative (plus an absolute floor for zero totals).
void expect_conserved(double a, double b, const std::string& what) {
  EXPECT_NEAR(a, b, 1e-12 + 1e-9 * std::max(std::abs(a), std::abs(b))) << what;
}

TEST(Blame, ConservationLawHoldsOnAllBenchmarks) {
  for (const char* bench : kBenchmarks) {
    for (const char* experiment : {"baseline", "pl"}) {
      const std::string what = std::string(bench) + "/" + experiment;
      trace::Recorder rec(16);
      const driver::Metrics m = run_traced(bench, experiment, rec);
      const programs::BenchmarkInfo& info = programs::benchmark(bench);
      const zir::Program program = parser::parse_program(info.source);

      const BlameReport report = compute_blame(rec, program, m.plan);
      ASSERT_FALSE(report.rows.empty()) << what;

      // The rows partition the trace's exposed IRONMAN overhead.
      double row_sum = 0.0;
      for (const BlameRow& row : report.rows) row_sum += row.exposed_overhead_seconds();
      expect_conserved(row_sum, report.total_exposed_seconds, what);
      expect_conserved(report.total_exposed_seconds,
                       m.trace_stats->exposed_overhead_seconds, what);

      // And the wire decomposition reconciles with the recorder's totals.
      expect_conserved(report.wire.wire_seconds, rec.wire_totals().wire_seconds, what);
      expect_conserved(report.wire.exposed_seconds, rec.wire_totals().exposed_seconds, what);
    }
  }
}

TEST(Blame, ConservationSurvivesCappedTraces) {
  // Tiny detail buffers: nearly everything is dropped, but the per-transfer
  // aggregates are exact by construction, so blame still reconciles.
  trace::RecorderOptions opts;
  opts.max_events_per_proc = 8;
  opts.max_messages = 4;
  trace::Recorder rec(16, opts);
  const driver::Metrics m = run_traced("tomcatv", "pl", rec);
  ASSERT_GT(rec.dropped_events(), 0);

  const BlameReport report = compute_blame(rec);
  expect_conserved(report.total_exposed_seconds, m.trace_stats->exposed_overhead_seconds,
                   "capped tomcatv/pl");
}

TEST(Blame, RowsCarryAnchorsLabelsAndMembers) {
  trace::Recorder rec(16);
  const driver::Metrics m = run_traced("tomcatv", "pl", rec);
  const zir::Program program =
      parser::parse_program(programs::benchmark("tomcatv").source);

  const BlameReport report = compute_blame(rec, program, m.plan);
  for (const BlameRow& row : report.rows) {
    if (row.transfer < 0) continue;  // the untagged bucket has no plan row
    EXPECT_FALSE(row.label.empty()) << row.transfer;
    EXPECT_GE(row.anchor.block, 0) << row.transfer;
    EXPECT_GT(row.anchor.use_line, 0) << row.transfer;
    EXPECT_FALSE(row.members.empty()) << row.transfer;
  }
  // Renders don't choke and the JSON round-trips.
  EXPECT_FALSE(report.to_string(5).empty());
  EXPECT_FALSE(report.to_csv().empty());
  const std::string dumped = report.to_json().dump();
  EXPECT_EQ(json::parse(dumped).dump(), dumped);
}

TEST(CriticalPath, DecomposesMakespanExactly) {
  trace::Recorder rec(16);
  const driver::Metrics m = run_traced("tomcatv", "pl", rec);
  const zir::Program program =
      parser::parse_program(programs::benchmark("tomcatv").source);

  const CriticalPathReport cp = compute_critical_path(rec, program, m.plan);
  ASSERT_TRUE(cp.exact);
  ASSERT_FALSE(cp.segments.empty());
  EXPECT_GT(cp.makespan, 0.0);
  // The makespan is the latest recorded event end; trailing scalar work can
  // only push the engine's elapsed time past it, never the other way.
  EXPECT_LE(cp.makespan, m.execution_time * (1.0 + 1e-12));

  double kind_sum = cp.compute_seconds + cp.call_cpu_seconds + cp.call_wait_seconds +
                    cp.wire_seconds + cp.barrier_seconds + cp.untracked_seconds;
  expect_conserved(kind_sum, cp.makespan, "kind decomposition");

  double seg_sum = 0.0;
  for (const PathSegment& seg : cp.segments) {
    EXPECT_GE(seg.seconds(), 0.0);
    seg_sum += seg.seconds();
  }
  expect_conserved(seg_sum, cp.makespan, "segment coverage");

  ASSERT_FALSE(cp.transfers.empty());
  for (const PathTransfer& t : cp.transfers) {
    EXPECT_GE(t.slack_seconds, 0.0);
    EXPECT_GT(t.messages, 0);
    if (t.on_path) {
      EXPECT_GT(t.path_seconds, 0.0);
    }
  }
  const std::string dumped = cp.to_json().dump();
  EXPECT_EQ(json::parse(dumped).dump(), dumped);
}

TEST(CriticalPath, DegradesHonestlyWhenCapped) {
  trace::RecorderOptions opts;
  opts.max_events_per_proc = 8;
  opts.max_messages = 4;
  trace::Recorder rec(16, opts);
  run_traced("tomcatv", "pl", rec);

  const CriticalPathReport cp = compute_critical_path(rec);
  EXPECT_FALSE(cp.exact);
  EXPECT_TRUE(cp.segments.empty()) << "no walk on a truncated trace";
  EXPECT_GT(cp.makespan, 0.0);
  EXPECT_FALSE(cp.to_string(5).empty());
}

TEST(Differential, SavingsSumToEndToEndDelta) {
  // The paper's headline question, per decision: mv (baseline) vs. the full
  // mv+rr+cc+pl pipeline. The components plus the untagged delta must
  // partition the end-to-end exposed-overhead delta exactly.
  for (const char* bench : kBenchmarks) {
    trace::Recorder rec_before(16);
    const driver::Metrics before = run_traced(bench, "baseline", rec_before);
    trace::Recorder rec_after(16);
    const driver::Metrics after = run_traced(bench, "pl", rec_after);
    const zir::Program program =
        parser::parse_program(programs::benchmark(bench).source);

    const BlameReport blame_before = compute_blame(rec_before, program, before.plan);
    const BlameReport blame_after = compute_blame(rec_after, program, after.plan);
    const BlameDiff diff = diff_blame(blame_before, blame_after, "baseline", "pl");

    double component_sum = diff.untagged_savings_seconds;
    std::set<int> seen;
    for (const DiffComponent& c : diff.components) {
      component_sum += c.savings_seconds();
      for (const int id : c.transfers) {
        EXPECT_TRUE(seen.insert(id).second)
            << bench << ": transfer " << id << " in two components";
      }
    }
    expect_conserved(component_sum, diff.total_savings_seconds(), bench);
    expect_conserved(diff.total_savings_seconds(),
                     before.trace_stats->exposed_overhead_seconds -
                         after.trace_stats->exposed_overhead_seconds,
                     bench);
    // The full pipeline helps every paper benchmark at this scale.
    EXPECT_GT(diff.total_savings_seconds(), 0.0) << bench;
  }
}

TEST(Differential, ClassifiesOptimizerDecisions) {
  trace::Recorder rec_before(16);
  const driver::Metrics before = run_traced("swm", "baseline", rec_before);
  trace::Recorder rec_after(16);
  const driver::Metrics after = run_traced("swm", "pl", rec_after);
  const zir::Program program = parser::parse_program(programs::benchmark("swm").source);

  const BlameDiff diff = diff_blame(compute_blame(rec_before, program, before.plan),
                                    compute_blame(rec_after, program, after.plan),
                                    "baseline", "pl");
  int removed_or_merged = 0;
  for (const DiffComponent& c : diff.components) {
    if (c.kind == ComponentKind::kRemoved || c.kind == ComponentKind::kMerged) {
      ++removed_or_merged;
      EXPECT_GT(c.rows_before, c.rows_after) << c.label;
    }
  }
  EXPECT_GT(removed_or_merged, 0) << "rr/cc must show up as removed/merged components";
  const std::string dumped = diff.to_json().dump();
  EXPECT_EQ(json::parse(dumped).dump(), dumped);
}

TEST(Attribution, IsPurePostProcessing) {
  // Attribution reads the recorder after the run; the simulated metrics of
  // a traced+attributed run must stay bitwise identical to an untraced run.
  const programs::BenchmarkInfo& info = programs::benchmark("swm");
  const zir::Program program = parser::parse_program(info.source);
  const auto exp = driver::find_experiment("pl");
  ASSERT_TRUE(exp.has_value());

  const driver::Metrics plain =
      driver::run_source(info.source, *exp, 16, info.test_configs);

  trace::Recorder rec(16);
  sim::RunConfig cfg;
  cfg.procs = 16;
  cfg.config_overrides = info.test_configs;
  cfg.recorder = &rec;
  const json::Value doc = driver::run_report(program, *exp, std::move(cfg));

  ASSERT_TRUE(doc.has("blame"));
  ASSERT_TRUE(doc.has("critical_path"));
  EXPECT_EQ(doc.at("execution_time_seconds").number, plain.execution_time);  // bitwise
  EXPECT_EQ(doc.at("static_count").number, static_cast<double>(plain.static_count));
  EXPECT_EQ(doc.at("dynamic_count").number, static_cast<double>(plain.dynamic_count));
  EXPECT_EQ(doc.at("total_messages").number,
            static_cast<double>(plain.run.total_messages));
}

}  // namespace
}  // namespace zc::analysis
