// End-to-end smoke for the tracing workflow a user would actually run: a
// small traced experiment, the Chrome JSON written to disk and validated
// with the lightweight support/json parser, and the stats CSV round-tripped
// through support/csv. The companion ctest `trace_smoke_cli` drives the
// same flow through the comm_explorer binary's flags.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/driver/driver.h"
#include "src/parser/parser.h"
#include "src/programs/programs.h"
#include "src/support/csv.h"
#include "src/support/json.h"
#include "src/trace/chrome.h"
#include "src/trace/recorder.h"

namespace zc::trace {
namespace {

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(TraceSmoke, SmallTracedRunExportsValidJsonAndCsv) {
  const programs::BenchmarkInfo& info = programs::benchmark("tomcatv");
  const zir::Program program = parser::parse_program(info.source);

  Recorder recorder(4);
  sim::RunConfig cfg;
  cfg.procs = 4;
  cfg.config_overrides = info.test_configs;
  cfg.recorder = &recorder;
  const driver::Metrics m =
      driver::run_experiment(program, driver::experiment("pl"), cfg);
  ASSERT_TRUE(m.trace_stats.has_value());
  ASSERT_GT(m.run.total_messages, 0);

  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "zc_trace_smoke";
  std::filesystem::create_directories(dir);

  // Chrome trace: write, read back, parse, sanity-check the shape.
  const std::filesystem::path json_path = dir / "trace.json";
  write_chrome_trace(recorder, json_path.string());
  const json::Value doc = json::parse(read_file(json_path));
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("displayTimeUnit").string, "ms");
  const json::Value& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  EXPECT_GT(events.array.size(), 0u);
  long long proc_tracks = 0;
  for (const json::Value& e : events.array) {
    if (e.at("ph").string == "M" && e.at("name").string == "thread_name" &&
        e.at("pid").number == 1.0) {
      ++proc_tracks;
    }
  }
  EXPECT_EQ(proc_tracks, 4);

  // Stats CSV: write, parse with support/csv, check a known cell, and
  // confirm the parsed document re-renders to the identical bytes.
  const std::filesystem::path csv_path = dir / "stats.csv";
  {
    std::ofstream out(csv_path);
    ASSERT_TRUE(out.good());
    out << m.trace_stats->to_csv();
  }
  const std::string csv_text = read_file(csv_path);
  const Csv csv = parse_csv(csv_text);
  ASSERT_EQ(csv.headers, (std::vector<std::string>{"name", "value"}));
  bool saw_total = false;
  for (const auto& row : csv.rows) {
    ASSERT_EQ(row.size(), 2u);
    if (row[0] == "total_messages") {
      EXPECT_EQ(row[1], std::to_string(m.run.total_messages));
      saw_total = true;
    }
  }
  EXPECT_TRUE(saw_total);

  CsvWriter rewriter(csv.headers);
  for (const auto& row : csv.rows) rewriter.add_row(row);
  EXPECT_EQ(rewriter.to_string(), csv_text);

  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace zc::trace
