// Full-pipeline invariants for the windowed telemetry sink (src/tseries):
// for real traced runs of the paper's table benchmarks, the windowed sums
// must reconcile with trace::Stats' exact aggregates to 1e-9 — including
// when the event trace itself was capped — and attaching the sink must not
// perturb the simulation at all (bit-identical results). Also pins the
// report schema v4 "timeline" block and the Chrome counter-track export.
// The fast unit tests for the folding grid live in tseries_smoke_test.cpp.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/driver/driver.h"
#include "src/driver/report.h"
#include "src/exec/sweep.h"
#include "src/parser/parser.h"
#include "src/programs/programs.h"
#include "src/support/json.h"
#include "src/trace/chrome.h"
#include "src/trace/recorder.h"
#include "src/trace/stats.h"
#include "src/tseries/tseries.h"

namespace zc {
namespace {

constexpr int kProcs = 4;

struct TracedRun {
  trace::Stats stats;
  driver::Metrics metrics;
};

/// Runs `bench` under experiment `exp` with both a recorder and `series`
/// attached, returning the recorder's exact aggregates.
TracedRun traced_run(const std::string& bench, const std::string& exp,
                     tseries::SimSeries* series, trace::RecorderOptions ropts = {}) {
  const programs::BenchmarkInfo& info = programs::benchmark(bench);
  const zir::Program program = parser::parse_program(info.source);
  trace::Recorder recorder(kProcs, ropts);
  sim::RunConfig cfg;
  cfg.procs = kProcs;
  cfg.config_overrides = info.test_configs;
  cfg.recorder = &recorder;
  cfg.timeline = series;
  TracedRun out;
  out.metrics = driver::run_experiment(program, driver::experiment(exp), cfg);
  out.stats = trace::compute_stats(recorder);
  return out;
}

void expect_conserved(const tseries::SimSeries& s, const trace::Stats& stats,
                      const std::string& label) {
  using S = tseries::SimSeries;
  EXPECT_NEAR(s.total(S::kCpu) + s.total(S::kWait), stats.exposed_overhead_seconds, 1e-9)
      << label;
  EXPECT_NEAR(s.total(S::kCompute), stats.compute_seconds, 1e-9) << label;
  EXPECT_NEAR(s.total(S::kBarrier), stats.barrier_seconds, 1e-9) << label;
  EXPECT_NEAR(s.total(S::kWireExposed), stats.wire.exposed_seconds, 1e-9) << label;
  EXPECT_NEAR(s.total(S::kWireOverlapped), stats.wire.overlapped_seconds, 1e-9) << label;
}

TEST(TimeSeries, WindowedSumsReconcileWithExactStatsOnTableBenchmarks) {
  for (const std::string bench : {"tomcatv", "swm", "simple", "sp"}) {
    tseries::SimSeries series(kProcs);
    const TracedRun run = traced_run(bench, "pl", &series);
    ASSERT_GT(run.stats.total_messages, 0) << bench;
    ASSERT_GT(series.duration(), 0.0) << bench;
    expect_conserved(series, run.stats, bench);
  }
}

TEST(TimeSeries, ReconciliationSurvivesACappedEventTrace) {
  // Cap the recorder's detail buffers far below the run's event count. The
  // recorder's aggregates stay exact by design, and the series never
  // depended on the buffers — both sides must still agree.
  trace::RecorderOptions ropts;
  ropts.max_events_per_proc = 8;
  ropts.max_messages = 8;
  for (const std::string bench : {"tomcatv", "sp"}) {
    tseries::SimSeries series(kProcs);
    const TracedRun run = traced_run(bench, "pl", &series, ropts);
    ASSERT_GT(run.stats.dropped_events, 0) << bench << ": cap did not bite";
    ASSERT_GT(run.stats.dropped_messages, 0) << bench << ": cap did not bite";
    expect_conserved(series, run.stats, bench + " (capped)");
  }
}

TEST(TimeSeries, ConservationHoldsAcrossExperimentsAndWindowCounts) {
  // Totals are invariant to window resolution: a single window (a plain
  // total) and a grid far finer than the event density must agree with the
  // default, on a communication-optimized variant as well as the baseline.
  for (const std::string exp : {"pl", "baseline"}) {
    double reference = -1.0;
    for (const int window_count : {1, 64, 4096}) {
      tseries::SimSeries series(kProcs, window_count);
      const TracedRun run = traced_run("tomcatv", exp, &series);
      expect_conserved(series, run.stats, exp + " w=" + std::to_string(window_count));
      using S = tseries::SimSeries;
      double grand = 0.0;
      for (int c = 0; c < S::kChannelCount; ++c) {
        grand += series.total(static_cast<S::Channel>(c));
      }
      if (reference < 0.0) reference = grand;
      EXPECT_NEAR(grand, reference, 1e-9) << exp;
    }
  }
}

TEST(TimeSeries, AttachingTheSinkNeverPerturbsTheSimulation) {
  const programs::BenchmarkInfo& info = programs::benchmark("swm");
  const zir::Program program = parser::parse_program(info.source);
  const driver::Experiment exp = driver::experiment("pl");

  sim::RunConfig plain;
  plain.procs = kProcs;
  plain.config_overrides = info.test_configs;
  const driver::Metrics base = driver::run_experiment(program, exp, plain);

  tseries::SimSeries series(kProcs);
  sim::RunConfig observed;
  observed.procs = kProcs;
  observed.config_overrides = info.test_configs;
  observed.timeline = &series;
  const driver::Metrics traced = driver::run_experiment(program, exp, observed);

  EXPECT_EQ(exec::result_checksum(base.run), exec::result_checksum(traced.run));
  EXPECT_GT(series.duration(), 0.0);
}

TEST(TimeSeries, RunReportGainsTheTimelineBlockAndStaysDiffable) {
  const programs::BenchmarkInfo& info = programs::benchmark("tomcatv");
  const zir::Program program = parser::parse_program(info.source);
  const driver::Experiment exp = driver::experiment("pl");

  sim::RunConfig bare;
  bare.procs = kProcs;
  bare.config_overrides = info.test_configs;
  const json::Value without = driver::run_report(program, exp, bare);
  EXPECT_EQ(without.at("schema_version").number, 6.0);
  EXPECT_FALSE(without.has("timeline"));

  tseries::SimSeries series(kProcs);
  sim::RunConfig timed;
  timed.procs = kProcs;
  timed.config_overrides = info.test_configs;
  timed.timeline = &series;
  const json::Value with = driver::run_report(program, exp, timed);
  ASSERT_TRUE(with.has("timeline"));
  const json::Value& block = with.at("timeline");
  EXPECT_EQ(block.at("kind").string, "zc-sim-timeline");
  EXPECT_EQ(static_cast<int>(block.at("procs").number), kProcs);

  // The block is optional: diffing a report that has it against one that
  // does not must not throw or flag a regression on its own.
  const json::Value diff = driver::diff_run_reports(without, with);
  EXPECT_TRUE(diff.has("fields"));
}

TEST(TimeSeries, ChromeExportEmitsCounterTracksForTheTimeline) {
  tseries::SimSeries series(kProcs);
  const TracedRun run = traced_run("simple", "pl", &series);
  ASSERT_GT(run.stats.total_messages, 0);

  // Timeline-only export: valid JSON whose pid-4 track carries "C" events.
  const json::Value doc = json::parse(trace::to_chrome_json(nullptr, nullptr, &series));
  long long counters = 0;
  bool named_track = false;
  for (const json::Value& e : doc.at("traceEvents").array) {
    if (e.at("pid").number != 4.0) continue;
    if (e.at("ph").string == "C") ++counters;
    if (e.at("ph").string == "M" && e.at("name").string == "process_name") {
      named_track = e.at("args").at("name").string == "timeline";
    }
  }
  EXPECT_TRUE(named_track);
  // At minimum the trailing zero per channel is present.
  EXPECT_GE(counters, static_cast<long long>(tseries::SimSeries::kChannelCount));
}

}  // namespace
}  // namespace zc
