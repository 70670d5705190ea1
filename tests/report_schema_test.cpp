// Round-trips a run report through src/support/json and validates the
// schema documented in src/driver/report.h: required keys, their types,
// non-empty per-pass provenance, and serialization stability.
#include <string>

#include <gtest/gtest.h>

#include "src/driver/report.h"
#include "src/parser/parser.h"
#include "src/programs/programs.h"
#include "src/support/json.h"
#include "src/trace/recorder.h"

namespace {

using namespace zc;

json::Value generate_report(bool traced) {
  const programs::BenchmarkInfo& info = programs::benchmark("tomcatv");
  const zir::Program program = parser::parse_program(info.source);
  trace::Recorder recorder(4);
  sim::RunConfig cfg;
  cfg.procs = 4;
  cfg.config_overrides = info.test_configs;
  if (traced) cfg.recorder = &recorder;
  return driver::run_report(program, driver::experiment("pl"), std::move(cfg));
}

void expect_number(const json::Value& doc, const std::string& key) {
  ASSERT_TRUE(doc.has(key)) << "missing required key " << key;
  EXPECT_TRUE(doc.at(key).is_number()) << key << " must be a number";
}

void expect_string(const json::Value& doc, const std::string& key) {
  ASSERT_TRUE(doc.has(key)) << "missing required key " << key;
  EXPECT_TRUE(doc.at(key).is_string()) << key << " must be a string";
}

TEST(ReportSchemaTest, RoundTripValidatesRequiredKeys) {
  const json::Value built = generate_report(/*traced=*/true);
  const std::string text = built.dump();
  const json::Value doc = json::parse(text);

  expect_string(doc, "schema");
  EXPECT_EQ(doc.at("schema").string, "zcomm-run-report");
  expect_number(doc, "schema_version");
  EXPECT_EQ(doc.at("schema_version").number, 6.0);
  expect_string(doc, "benchmark");
  EXPECT_EQ(doc.at("benchmark").string, "tomcatv");
  expect_string(doc, "experiment");
  EXPECT_EQ(doc.at("experiment").string, "pl");
  expect_string(doc, "library");
  expect_number(doc, "procs");
  EXPECT_EQ(doc.at("procs").number, 4.0);

  ASSERT_TRUE(doc.has("options"));
  const json::Value& opts = doc.at("options");
  ASSERT_TRUE(opts.is_object());
  for (const char* key : {"remove_redundant", "combine", "pipeline", "inter_block"}) {
    ASSERT_TRUE(opts.has(key)) << key;
    EXPECT_EQ(opts.at(key).kind, json::Value::Kind::kBool) << key;
  }
  EXPECT_TRUE(opts.at("pipeline").boolean);
  expect_string(opts, "heuristic");

  expect_number(doc, "static_count");
  expect_number(doc, "dynamic_count");
  expect_number(doc, "execution_time_seconds");
  expect_number(doc, "total_messages");
  expect_number(doc, "total_bytes");
  expect_number(doc, "reduction_count");
  EXPECT_GT(doc.at("static_count").number, 0.0);
  EXPECT_GE(doc.at("dynamic_count").number, doc.at("static_count").number);
  EXPECT_GT(doc.at("execution_time_seconds").number, 0.0);
}

TEST(ReportSchemaTest, HostFingerprintBlockIsDeterministic) {
  const json::Value doc = json::parse(generate_report(/*traced=*/false).dump());
  ASSERT_TRUE(doc.has("host"));
  const json::Value& host = doc.at("host");
  ASSERT_TRUE(host.is_object());
  expect_string(host, "class");
  EXPECT_FALSE(host.at("class").string.empty());
  expect_number(host, "cores");
  EXPECT_GT(host.at("cores").number, 0.0);
  expect_string(host, "cpu_model");
  expect_number(host, "page_size");
  ASSERT_TRUE(host.has("build"));
  const json::Value& build = host.at("build");
  expect_string(build, "compiler");
  EXPECT_FALSE(build.at("compiler").string.empty());
  expect_string(build, "compiler_version");
  // No timestamps anywhere in the block: the same binary must emit the
  // same host block byte-for-byte, keeping reports and response streams
  // deterministic.
  const json::Value again = json::parse(generate_report(/*traced=*/false).dump());
  EXPECT_EQ(host.dump(), again.at("host").dump());
}

TEST(ReportSchemaTest, PassProvenanceIsPresentAndNonEmpty) {
  const json::Value doc = json::parse(generate_report(/*traced=*/false).dump());

  ASSERT_TRUE(doc.has("passes"));
  const json::Value& passes = doc.at("passes");
  ASSERT_TRUE(passes.is_object());
  ASSERT_TRUE(passes.has("summary"));
  const json::Value& summary = passes.at("summary");
  EXPECT_GT(summary.at("transfers_generated").number, 0.0);
  EXPECT_GT(summary.at("rr_removed").number, 0.0);
  EXPECT_GT(summary.at("pl_placements").number, 0.0);
  EXPECT_GT(summary.at("total_sr_hoist").number, 0.0);

  for (const char* pass : {"generate", "rr", "cc", "pl"}) {
    ASSERT_TRUE(passes.has(pass)) << pass;
    EXPECT_TRUE(passes.at(pass).is_array()) << pass;
  }
  EXPECT_FALSE(passes.at("rr").array.empty());
  EXPECT_FALSE(passes.at("pl").array.empty());
  // Every decision carries its source anchor.
  for (const json::Value& d : passes.at("rr").array) {
    ASSERT_TRUE(d.has("where"));
    EXPECT_TRUE(d.at("where").at("block").is_number());
    EXPECT_TRUE(d.at("where").at("proc").is_string());
    EXPECT_TRUE(d.at("covering_transfer").is_number());
  }
}

TEST(ReportSchemaTest, TraceBlockPresentOnlyWhenTraced) {
  const json::Value untraced = json::parse(generate_report(/*traced=*/false).dump());
  EXPECT_FALSE(untraced.has("trace"));
  EXPECT_FALSE(untraced.has("blame"));
  EXPECT_FALSE(untraced.has("critical_path"));

  const json::Value traced = json::parse(generate_report(/*traced=*/true).dump());
  ASSERT_TRUE(traced.has("trace"));
  const json::Value& t = traced.at("trace");
  EXPECT_GT(t.at("total_messages").number, 0.0);
  EXPECT_GT(t.at("wire_seconds").number, 0.0);
  // No process-wide state rides along: v6 dropped the "metrics" block.
  EXPECT_FALSE(untraced.has("metrics"));
  EXPECT_FALSE(traced.has("metrics"));
}

TEST(ReportSchemaTest, ReportIsAFunctionOfItsRunAlone) {
  // Earlier runs in the same process must leave no trace in a report: the
  // same program and experiment give byte-identical documents every time.
  for (const bool traced : {false, true}) {
    const std::string first = generate_report(traced).dump();
    const std::string second = generate_report(traced).dump();
    EXPECT_EQ(first, second) << (traced ? "traced" : "untraced");
  }
}

TEST(ReportSchemaTest, AttributionBlocksPresentWhenTraced) {
  const json::Value doc = json::parse(generate_report(/*traced=*/true).dump());

  ASSERT_TRUE(doc.has("blame"));
  const json::Value& blame = doc.at("blame");
  EXPECT_GT(blame.at("communications").number, 0.0);
  ASSERT_FALSE(blame.at("rows").array.empty());
  // The rows partition the trace's exposed overhead (full law pinned by
  // tests/analysis_test.cpp; here: the totals agree across blocks).
  EXPECT_NEAR(blame.at("total_exposed_seconds").number,
              doc.at("trace").at("exposed_overhead_seconds").number,
              1e-9 * doc.at("trace").at("exposed_overhead_seconds").number);
  for (const json::Value& row : blame.at("rows").array) {
    EXPECT_TRUE(row.at("transfer").is_number());
    EXPECT_TRUE(row.at("exposed_overhead_seconds").is_number());
  }

  ASSERT_TRUE(doc.has("critical_path"));
  const json::Value& cp = doc.at("critical_path");
  EXPECT_TRUE(cp.at("exact").boolean);
  EXPECT_GT(cp.at("makespan_seconds").number, 0.0);
  EXPECT_FALSE(cp.at("transfers").array.empty());
}

TEST(ReportSchemaTest, DiffRunReportsMatchesToolVerdicts) {
  const json::Value report = generate_report(/*traced=*/false);
  // Identical reports: no regression, strict improvement impossible.
  const json::Value same = driver::diff_run_reports(report, report);
  EXPECT_FALSE(same.at("regressed").boolean);
  const json::Value strict =
      driver::diff_run_reports(report, report, 0.05, {"static_count"});
  EXPECT_TRUE(strict.at("regressed").boolean);
  EXPECT_FALSE(strict.at("strict").array[0].at("improved").boolean);
  // The JSON is self-describing and round-trips.
  const std::string text = strict.dump();
  EXPECT_EQ(json::parse(text).dump(), text);
}

TEST(ReportSchemaTest, SerializationIsStable) {
  const json::Value built = generate_report(/*traced=*/false);
  const std::string once = built.dump();
  EXPECT_EQ(json::parse(once).dump(), once)
      << "dump -> parse -> dump must be a fixed point";
}

}  // namespace
