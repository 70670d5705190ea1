// The perf archive (src/archive): envelope round trips, bare run-report
// ingestion (and rejection of host-less payloads), metric extraction and
// direction inference, MAD noise bands, the like-for-like regression gate
// with its host-class refusal, and the JSON-lines store.
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/archive/archive.h"
#include "src/archive/envelope.h"
#include "src/archive/trend.h"
#include "src/support/diag.h"
#include "src/support/fingerprint.h"
#include "src/support/io.h"
#include "src/support/json.h"

namespace {

using namespace zc;
using archive::Direction;
using archive::Envelope;
using archive::Verdict;
using json::Value;

/// A minimal bench-perf payload with one timed result.
Value bench_payload(const std::string& bench, double median_ns) {
  Value result = Value::make_object();
  result["name"] = Value::make_str("tomcatv/pl");
  result["median_ns"] = Value::make_num(median_ns);
  Value results = Value::make_array();
  results.push_back(std::move(result));
  Value doc = Value::make_object();
  doc["schema"] = Value::make_str("zcomm-bench-perf");
  doc["bench"] = Value::make_str(bench);
  doc["results"] = std::move(results);
  return doc;
}

Envelope sample(const std::string& bench, double median_ns, long long when,
                const std::string& host_class = "") {
  Envelope e = archive::wrap(bench_payload(bench, median_ns), when, "");
  if (!host_class.empty()) {
    e.host.forced_class = host_class;
    e.host.known = true;
  }
  return e;
}

// ----------------------------------------------------------------- envelope

TEST(Envelope, WrapRoundTripsThroughJson) {
  const Envelope e = archive::wrap(bench_payload("t1", 123.0), 1700000000, "abc123");
  EXPECT_FALSE(e.legacy);
  EXPECT_EQ(e.kind, "zcomm-bench-perf");
  EXPECT_EQ(e.bench, "t1");
  EXPECT_EQ(e.recorded_at_utc(), "2023-11-14T22:13:20Z");

  const Envelope back = archive::envelope_from_json(json::parse(e.to_json().dump()));
  EXPECT_FALSE(back.legacy);
  EXPECT_EQ(back.unix_time, 1700000000);
  EXPECT_EQ(back.git_sha, "abc123");
  EXPECT_EQ(back.host_class(), e.host_class());
  EXPECT_EQ(back.build.compiler, e.build.compiler);
  // Bit-exactness, not just field equality: the archive's append line and a
  // re-ingested record must be the same bytes.
  EXPECT_EQ(back.to_json().dump(0), e.to_json().dump(0));
}

TEST(Envelope, BarePayloadWithoutHostIsRejected) {
  EXPECT_THROW(archive::envelope_from_json(bench_payload("t1", 9.0)), Error);
  Value hostless = bench_payload("t1", 9.0);
  hostless["host"] = Value::make_object();
  EXPECT_THROW(archive::envelope_from_json(hostless), Error) << "host block without a class";
}

TEST(Envelope, BareRunReportDonatesItsOwnHostBlock) {
  Value report = Value::make_object();
  report["schema"] = Value::make_str("zcomm-run-report");
  report["benchmark"] = Value::make_str("swm");
  report["execution_time_seconds"] = Value::make_num(1.5);
  Value host = fingerprint::current_host().to_json();
  report["host"] = std::move(host);

  const Envelope e = archive::envelope_from_json(report);
  EXPECT_TRUE(e.legacy);
  EXPECT_TRUE(e.host.known);
  EXPECT_EQ(e.host_class(), fingerprint::current_host().host_class());
  EXPECT_EQ(e.bench, "swm") << "run reports label themselves 'benchmark'";
}

TEST(Envelope, HostClassIsStableAndForcedClassWins) {
  const fingerprint::Host h = fingerprint::current_host();
  EXPECT_TRUE(h.known);
  EXPECT_GT(h.cores, 0);
  EXPECT_NE(h.host_class(), "unknown");
  EXPECT_EQ(h.host_class(), fingerprint::current_host().host_class());

  fingerprint::Host forced = h;
  forced.forced_class = "ci-other-box";
  EXPECT_EQ(forced.host_class(), "ci-other-box");
}

// ------------------------------------------------------ metrics & direction

TEST(Metrics, DirectionFollowsMetricName) {
  EXPECT_EQ(archive::direction_for("median_ns"), Direction::kLowerIsBetter);
  EXPECT_EQ(archive::direction_for("execution_time_seconds"), Direction::kLowerIsBetter);
  EXPECT_EQ(archive::direction_for("legacy_serial_s"), Direction::kLowerIsBetter);
  EXPECT_EQ(archive::direction_for("static_count"), Direction::kLowerIsBetter);
  EXPECT_EQ(archive::direction_for("dynamic_count"), Direction::kLowerIsBetter);
  EXPECT_EQ(archive::direction_for("reqs_per_sec"), Direction::kHigherIsBetter);
  EXPECT_EQ(archive::direction_for("plan_cache_hit_rate"), Direction::kHigherIsBetter);
  EXPECT_EQ(archive::direction_for("overlap_fraction"), Direction::kHigherIsBetter);
  EXPECT_EQ(archive::direction_for("grid_runs"), Direction::kNeutral);
  EXPECT_EQ(archive::direction_for("jobs"), Direction::kNeutral);
}

TEST(Metrics, ExtractionFlattensResultsAndSkipsTelemetryBlocks) {
  const Envelope e = archive::wrap(bench_payload("t1", 42.0), 1, "");
  const std::vector<archive::Measurement> ms = archive::extract_metrics(e);
  ASSERT_EQ(ms.size(), 1u);
  EXPECT_EQ(ms[0].metric, "results.tomcatv/pl.median_ns");
  EXPECT_EQ(ms[0].value, 42.0);
  EXPECT_EQ(ms[0].direction, Direction::kLowerIsBetter);

  // Run-report shape: top-level numerics are measurements; the metrics
  // snapshot, provenance, profile, and timeline blocks are telemetry.
  Value report = Value::make_object();
  report["schema"] = Value::make_str("zcomm-run-report");
  report["benchmark"] = Value::make_str("swm");
  report["execution_time_seconds"] = Value::make_num(2.0);
  report["static_count"] = Value::make_num(10.0);
  Value noise = Value::make_object();
  noise["counter"] = Value::make_num(999.0);
  report["metrics"] = noise;
  report["passes"] = Value::make_object();
  report["host"] = fingerprint::current_host().to_json();

  const Envelope r = archive::envelope_from_json(report);
  const std::vector<archive::Measurement> rm = archive::extract_metrics(r);
  ASSERT_EQ(rm.size(), 2u);
  for (const archive::Measurement& m : rm) {
    EXPECT_TRUE(m.metric == "execution_time_seconds" || m.metric == "static_count")
        << m.metric;
    EXPECT_EQ(m.direction, Direction::kLowerIsBetter) << m.metric;
  }
}

// ----------------------------------------------------------------- trending

TEST(Trend, MadBandAndRelativeFloor) {
  // Median 100, MAD 2: the 3-sigma band is 100 +- max(3*1.4826*2, 0.1*100)
  // = 100 +- 10 (the relative floor dominates 8.9).
  const std::vector<double> values = {98, 99, 100, 101, 102, 100, 100};
  const archive::TrendStats st = archive::trend_stats(values, 3.0, 0.10);
  EXPECT_EQ(st.n, 7);
  EXPECT_DOUBLE_EQ(st.median, 100.0);
  EXPECT_DOUBLE_EQ(st.mad, 1.0);
  EXPECT_DOUBLE_EQ(st.band_low, 90.0);
  EXPECT_DOUBLE_EQ(st.band_high, 110.0);

  // Noisier series: the MAD term wins over the floor.
  const std::vector<double> noisy = {80, 90, 100, 110, 120};
  const archive::TrendStats n = archive::trend_stats(noisy, 3.0, 0.10);
  EXPECT_DOUBLE_EQ(n.median, 100.0);
  EXPECT_DOUBLE_EQ(n.mad, 10.0);
  EXPECT_DOUBLE_EQ(n.band_high, 100.0 + 3.0 * 1.4826 * 10.0);
  EXPECT_DOUBLE_EQ(n.band_low, 100.0 - 3.0 * 1.4826 * 10.0);
}

TEST(Trend, DeterministicSeriesCollapsesToTheFloor) {
  const std::vector<double> flat = {5.0, 5.0, 5.0};
  const archive::TrendStats st = archive::trend_stats(flat, 3.0, 0.10);
  EXPECT_DOUBLE_EQ(st.mad, 0.0);
  EXPECT_DOUBLE_EQ(st.band_low, 4.5);
  EXPECT_DOUBLE_EQ(st.band_high, 5.5);
}

TEST(Trend, SparklineSpansTheRange) {
  EXPECT_EQ(archive::sparkline({}), "");
  EXPECT_EQ(archive::sparkline({1.0, 1.0, 1.0}), "...");
  const std::string s = archive::sparkline({0.0, 1.0});
  EXPECT_EQ(s.size(), 6u) << "two 3-byte glyphs";
  EXPECT_EQ(s.substr(0, 3), "▁");
  EXPECT_EQ(s.substr(3, 3), "█");
}

TEST(Trend, SeriesAreKeyedByHostClass) {
  std::vector<Envelope> records;
  records.push_back(sample("t1", 100, 1, "box-a"));
  records.push_back(sample("t1", 101, 2, "box-a"));
  records.push_back(sample("t1", 500, 3, "box-b"));
  const auto series = archive::build_series(records);
  ASSERT_EQ(series.size(), 2u);
  const archive::SeriesKey a{"t1", "results.tomcatv/pl.median_ns", "box-a"};
  const archive::SeriesKey b{"t1", "results.tomcatv/pl.median_ns", "box-b"};
  ASSERT_TRUE(series.count(a));
  ASSERT_TRUE(series.count(b));
  EXPECT_EQ(series.at(a).points.size(), 2u);
  EXPECT_EQ(series.at(b).points.size(), 1u);
}

// ------------------------------------------------------------------- gating

std::vector<Envelope> history_of(std::initializer_list<double> values,
                                 const std::string& host_class) {
  std::vector<Envelope> h;
  long long t = 1;
  for (const double v : values) h.push_back(sample("t1", v, t++, host_class));
  return h;
}

TEST(Check, InBandSamplePasses) {
  const auto history = history_of({100, 101, 99, 100}, "box-a");
  const archive::CheckResult r =
      archive::check_sample(history, sample("t1", 102, 9, "box-a"));
  EXPECT_EQ(r.overall(), Verdict::kOk);
  EXPECT_EQ(r.exit_code(), 0);
  EXPECT_EQ(r.compared, 1);
  EXPECT_EQ(r.regressions, 0);
}

TEST(Check, SlowdownBeyondTheBandRegresses) {
  const auto history = history_of({100, 101, 99, 100}, "box-a");
  const archive::CheckResult r =
      archive::check_sample(history, sample("t1", 200, 9, "box-a"));
  EXPECT_EQ(r.overall(), Verdict::kRegression);
  EXPECT_EQ(r.exit_code(), 1);
  ASSERT_EQ(r.metrics.size(), 1u);
  EXPECT_NEAR(r.metrics[0].delta_fraction(), 1.0, 1e-9);
}

TEST(Check, ImprovementBeyondTheBandIsNotARegression) {
  const auto history = history_of({100, 101, 99, 100}, "box-a");
  const archive::CheckResult r =
      archive::check_sample(history, sample("t1", 50, 9, "box-a"));
  EXPECT_EQ(r.overall(), Verdict::kImprovement);
  EXPECT_EQ(r.exit_code(), 0);
}

TEST(Check, InjectedScaleForcesADeterministicRegression) {
  const auto history = history_of({100, 100, 100}, "box-a");
  archive::CheckOptions opts;
  opts.inject_scale = 2.0;
  const archive::CheckResult r =
      archive::check_sample(history, sample("t1", 100, 9, "box-a"), opts);
  EXPECT_EQ(r.overall(), Verdict::kRegression);
  EXPECT_EQ(r.exit_code(), 1);
}

TEST(Check, CrossHostClassHistoryIsRefusedNotCompared) {
  const auto history = history_of({100, 100, 100}, "box-a");
  const archive::CheckResult r =
      archive::check_sample(history, sample("t1", 100, 9, "box-b"));
  EXPECT_EQ(r.overall(), Verdict::kRefusedHostClass);
  EXPECT_EQ(r.exit_code(), 3);
  EXPECT_EQ(r.compared, 0);
  ASSERT_EQ(r.archive_classes.size(), 1u);
  EXPECT_EQ(r.archive_classes[0], "box-a");
}

TEST(Check, LegacyUnknownHostRecordsNeverGate) {
  // Archives may hold host-unknown legacy lines (host {"class":
  // "unknown"}, no build block) recorded before host-less payloads were
  // rejected; they must still read back as host class "unknown".
  Envelope old = sample("t1", 100, 1);
  old.legacy = true;
  old.host.known = false;
  const Value line = json::parse(old.to_json().dump(0));
  std::vector<Envelope> history;
  for (long long t = 1; t <= 3; ++t) {
    history.push_back(archive::envelope_from_json(line));
    history.back().unix_time = t;
  }
  ASSERT_TRUE(history[0].legacy);
  ASSERT_EQ(history[0].host_class(), "unknown");
  // Fresh sample from a real host: unknown-host history is not
  // like-for-like, so this refuses rather than comparing against unknown
  // hardware.
  const archive::CheckResult r =
      archive::check_sample(history, sample("t1", 100, 9, "box-a"));
  EXPECT_EQ(r.overall(), Verdict::kRefusedHostClass);
  EXPECT_EQ(r.exit_code(), 3);
}

TEST(Check, EmptyHistoryIsNoBaseline) {
  const archive::CheckResult r =
      archive::check_sample({}, sample("t1", 100, 9, "box-a"));
  EXPECT_EQ(r.overall(), Verdict::kNoBaseline);
  EXPECT_EQ(r.exit_code(), 4);
}

// -------------------------------------------------------------------- store

TEST(Store, AppendReadBackAndFilter) {
  const std::string path = testing::TempDir() + "/zc_archive_test.jsonl";
  std::filesystem::remove(path);
  const archive::Archive store(path);
  EXPECT_TRUE(store.read_all().empty()) << "missing file reads as empty";

  store.append(sample("t1", 100, 1000, "box-a"));
  store.append(sample("t2", 5, 2000, "box-a"));
  store.append(sample("t1", 101, 3000, "box-b"));

  int skipped = 0;
  const std::vector<Envelope> all = store.read_all(&skipped);
  EXPECT_EQ(skipped, 0);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].bench, "t1");
  EXPECT_EQ(all[1].bench, "t2");
  EXPECT_EQ(all[2].host_class(), "box-b");

  archive::Query q;
  q.bench = "t1";
  EXPECT_EQ(store.select(q).size(), 2u);
  q.host_class = "box-a";
  EXPECT_EQ(store.select(q).size(), 1u);
  archive::Query range;
  range.since_unix = 1500;
  range.until_unix = 2500;
  const auto mid = store.select(range);
  ASSERT_EQ(mid.size(), 1u);
  EXPECT_EQ(mid[0].bench, "t2");
  std::filesystem::remove(path);
}

TEST(Store, UnparseableLinesAreSkippedNotFatal) {
  const std::string path = testing::TempDir() + "/zc_archive_garbage.jsonl";
  std::filesystem::remove(path);
  const archive::Archive store(path);
  store.append(sample("t1", 100, 1, "box-a"));
  {
    // Simulate a torn concurrent write, stray noise and a host-less payload.
    std::string text = io::read_text_file(path);
    text += "{\"schema\": \"zcomm-perf-env";
    text += "\n\nnot json at all\n";
    text += bench_payload("t1", 9.0).dump(0) + "\n";
    io::write_text_file(path, text);
  }
  store.append(sample("t1", 101, 2, "box-a"));

  int skipped = 0;
  const std::vector<Envelope> all = store.read_all(&skipped);
  EXPECT_EQ(skipped, 3) << "torn line + noise line + host-less payload; blanks are free";
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[1].unix_time, 2);
  std::filesystem::remove(path);
}

}  // namespace
