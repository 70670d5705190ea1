// Unit tests for the windowed time-series core (src/tseries): proportional
// span spreading, the folding resize (sums preserved exactly, window count
// fixed), point samples, the SimSeries wire split, WallSeries concurrency,
// and the CSV/JSON export shapes. The end-to-end conservation laws against
// real traced runs live in tests/tseries_test.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "src/support/csv.h"
#include "src/support/json.h"
#include "src/tseries/render.h"
#include "src/tseries/tseries.h"

namespace zc::tseries {
namespace {

TEST(Windows, SpreadsSpanProportionallyAcrossWindows) {
  Windows w(1, 1, 4, /*initial_width=*/1.0);
  w.add_span(0, 0, 0.5, 2.5);  // half of [0,1), all of [1,2), half of [2,3)
  EXPECT_DOUBLE_EQ(w.value(0, 0, 0), 0.5);
  EXPECT_DOUBLE_EQ(w.value(0, 0, 1), 1.0);
  EXPECT_DOUBLE_EQ(w.value(0, 0, 2), 0.5);
  EXPECT_DOUBLE_EQ(w.value(0, 0, 3), 0.0);
  EXPECT_DOUBLE_EQ(w.row_total(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(w.duration(), 2.5);
  EXPECT_EQ(w.used_windows(), 3);
}

TEST(Windows, EmptyAndNonFiniteSpansAddNothing) {
  Windows w(1, 1, 4, 1.0);
  w.add_span(0, 0, 2.0, 2.0);  // empty: only advances duration
  w.add_span(0, 0, 3.0, 1.0);  // negative: ignored entirely
  const double inf = std::numeric_limits<double>::infinity();
  w.add_span(0, 0, 0.0, inf);
  w.add_span(0, 0, std::nan(""), 1.0);
  EXPECT_DOUBLE_EQ(w.channel_total(0), 0.0);
  EXPECT_DOUBLE_EQ(w.duration(), 2.0);
}

TEST(Windows, FoldingDoublesWidthAndPreservesSums) {
  Windows w(1, 1, 4, 1.0);
  w.add_span(0, 0, 0.0, 4.0);  // fills all four windows at width 1
  EXPECT_DOUBLE_EQ(w.window_width(), 1.0);
  w.add_span(0, 0, 6.0, 7.0);  // lands past 4*1 -> fold to width 2
  EXPECT_DOUBLE_EQ(w.window_width(), 2.0);
  EXPECT_EQ(w.window_count(), 4);
  // Old pairs merged: [0,2) = 2, [2,4) = 2; the new span in [6,7).
  EXPECT_DOUBLE_EQ(w.value(0, 0, 0), 2.0);
  EXPECT_DOUBLE_EQ(w.value(0, 0, 1), 2.0);
  EXPECT_DOUBLE_EQ(w.value(0, 0, 3), 1.0);
  EXPECT_DOUBLE_EQ(w.row_total(0, 0), 5.0);
}

TEST(Windows, RepeatedFoldingConvergesAndConserves) {
  Windows w(2, 2, 3, 1e-6);  // odd window count: the fold's odd-tail case
  double expected = 0.0;
  for (int i = 0; i < 200; ++i) {
    const double t0 = static_cast<double>(i) * 0.37;
    w.add_span(i % 2, i % 2, t0, t0 + 0.25);
    expected += 0.25;
  }
  EXPECT_EQ(w.window_count(), 3);
  EXPECT_NEAR(w.channel_total(0) + w.channel_total(1), expected, 1e-9);
  EXPECT_GE(w.window_count() * w.window_width(), w.duration());
}

TEST(Windows, SpanStartingOnARoundedWindowEdgeIsKept) {
  // At width 1e-6, t0 / w rounds down to window 245 while 246 * w rounds to
  // <= t0, so window 245's share is empty; the span must still land in the
  // windows after it. A tomcatv baseline run at 4096 windows hits this.
  Windows w(1, 1, 4096, 1e-6);
  const double t0 = 0.00024599999999999996;
  const double t1 = 0.00025279999999999996;
  w.add_span(0, 0, t0, t1);
  EXPECT_NEAR(w.channel_total(0), t1 - t0, 1e-15);
}

TEST(Windows, PointSamplesLandInTheirWindow) {
  Windows w(1, 1, 4, 1.0);
  w.add_at(0, 0, 1.5, 3.0);
  w.add_at(0, 0, 1.9, 2.0);
  EXPECT_DOUBLE_EQ(w.value(0, 0, 1), 5.0);
  w.add_at(0, 0, 100.0, 1.0);  // folds until t fits
  EXPECT_NEAR(w.channel_total(0), 6.0, 1e-12);
}

TEST(Windows, SingleWindowDegeneratesToATotal) {
  Windows w(1, 1, 1, 1.0);
  w.add_span(0, 0, 0.0, 10.0);
  w.add_span(0, 0, 12.0, 13.0);
  EXPECT_EQ(w.used_windows(), 1);
  EXPECT_NEAR(w.row_total(0, 0), 11.0, 1e-12);
}

TEST(SimSeries, CallSplitsWaitAndCpu) {
  SimSeries s(2, 8);
  s.add_call(0, 1.0, 3.0, 4.0);  // wait [1,3), cpu [3,4)
  EXPECT_NEAR(s.total(SimSeries::kWait), 2.0, 1e-12);
  EXPECT_NEAR(s.total(SimSeries::kCpu), 1.0, 1e-12);
}

TEST(SimSeries, WireSplitsExposedAndOverlappedByDnWait) {
  SimSeries s(2, 8);
  // Wire [2,6): 4 s. The destination waited 1.5 s in DN -> exposed 1.5,
  // overlapped 2.5 (the clamp rule of Recorder::record_consumed).
  s.add_wire(1, 2.0, 6.0, 1.5);
  EXPECT_NEAR(s.total(SimSeries::kWireExposed), 1.5, 1e-12);
  EXPECT_NEAR(s.total(SimSeries::kWireOverlapped), 2.5, 1e-12);
  // Wait beyond the wire time clamps to the wire time (sender lag).
  s.add_wire(1, 10.0, 11.0, 5.0);
  EXPECT_NEAR(s.total(SimSeries::kWireExposed), 2.5, 1e-12);
  // Zero-length wire adds nothing.
  s.add_wire(0, 20.0, 20.0, 1.0);
  EXPECT_NEAR(s.total(SimSeries::kWireExposed) + s.total(SimSeries::kWireOverlapped),
              5.0, 1e-12);
}

TEST(SimSeries, JsonAndCsvExportsCarryTheWholeGrid) {
  SimSeries s(2, 4);
  s.add_call(0, 0.0, 1.0, 2.0);
  s.add_compute(1, 0.0, 3.0);
  s.add_barrier(0, 3.0, 4.0);

  const json::Value doc = json::parse(s.to_json().dump());
  EXPECT_EQ(doc.at("kind").string, "zc-sim-timeline");
  EXPECT_EQ(static_cast<int>(doc.at("procs").number), 2);
  const json::Value& channels = doc.at("channels");
  double json_compute = 0.0;
  for (const json::Value& window : channels.at("compute").array[1].array) {
    json_compute += window.number;
  }
  EXPECT_NEAR(json_compute, 3.0, 1e-12);

  const Csv csv = parse_csv(s.to_csv());
  ASSERT_GT(csv.rows.size(), 0u);
  double csv_total = 0.0;
  for (std::size_t r = 0; r < csv.rows.size(); ++r) {
    csv_total += std::stod(csv.cell(r, "seconds"));
  }
  double grid_total = 0.0;
  for (int c = 0; c < SimSeries::kChannelCount; ++c) {
    grid_total += s.total(static_cast<SimSeries::Channel>(c));
  }
  EXPECT_NEAR(csv_total, grid_total, 1e-9);
}

TEST(WallSeries, ConcurrentProducersConserveTotals) {
  WallSeries s(4, {"busy", "tasks"}, 16, 0.001);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&s, t] {
      for (int i = 0; i < 500; ++i) {
        const double at = static_cast<double>(i) * 1e-4;
        s.add_span(t, 0, at, at + 5e-5);
        s.add_at(t, 1, at, 1.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_NEAR(s.channel_total(0), 4 * 500 * 5e-5, 1e-9);
  EXPECT_DOUBLE_EQ(s.channel_total(1), 4.0 * 500.0);
  const json::Value doc = json::parse(s.to_json().dump());
  EXPECT_EQ(doc.at("kind").string, "zc-wall-timeline");
  EXPECT_EQ(static_cast<int>(doc.at("rows").number), 4);
}

TEST(Render, HeatmapAndSweepSummaryMentionEveryRow) {
  SimSeries s(2, 8);
  s.add_compute(0, 0.0, 1.0);
  s.add_compute(1, 0.5, 1.5);
  const std::string map = heatmap(s, "unit");
  EXPECT_NE(map.find("proc 0"), std::string::npos);
  EXPECT_NE(map.find("proc 1"), std::string::npos);
  EXPECT_NE(map.find("totals (s):"), std::string::npos);

  WallSeries w(2, {"busy", "tasks", "latency", "own_pop", "steal", "cache_hit",
                   "cache_miss"});
  w.add_span(0, 0, 0.0, 0.1);
  w.add_at(0, 1, 0.1, 1.0);
  const std::string summary = sweep_summary(w);
  EXPECT_NE(summary.find("worker 0"), std::string::npos);
  EXPECT_NE(summary.find("worker 1"), std::string::npos);
}

}  // namespace
}  // namespace zc::tseries
