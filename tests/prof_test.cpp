// Tests for the host-side profiler (src/prof): span-tree invariants, the
// folded-stack and JSON exports, multi-threaded attachment, the
// perf-budget gate, and — the load-bearing contract — that profiling never
// changes what the toolchain produces (plans and run results are
// bit-identical profiled or not).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <regex>
#include <sstream>
#include <thread>
#include <vector>

#include "src/comm/optimizer.h"
#include "src/driver/driver.h"
#include "src/driver/report.h"
#include "src/parser/parser.h"
#include "src/prof/procstat.h"
#include "src/prof/prof.h"
#include "src/programs/programs.h"
#include "src/sim/engine.h"
#include "src/support/json.h"

namespace {

using namespace zc;

/// Burns a little real time so spans have measurable durations.
void spin_for(std::chrono::microseconds d) {
  const auto until = std::chrono::steady_clock::now() + d;
  volatile double sink = 0.0;
  while (std::chrono::steady_clock::now() < until) sink = sink + 1.0;
}

prof::Profiler::Tree small_tree(prof::Profiler& p) {
  prof::Attach attach(&p);
  {
    ZC_PROF_SPAN("root");
    {
      ZC_PROF_SPAN("child a");  // space: exercises folded-frame sanitizing
      prof::add_bytes(128);
      spin_for(std::chrono::microseconds(200));
    }
    {
      ZC_PROF_SPAN("child-b");
      spin_for(std::chrono::microseconds(200));
      { ZC_PROF_SPAN("leaf"); spin_for(std::chrono::microseconds(100)); }
    }
  }
  return p.tree();
}

TEST(ProfTest, DisabledByDefault) {
  EXPECT_FALSE(prof::enabled());
  // No profiler attached: spans and byte attributions are no-ops.
  { ZC_PROF_SPAN("nobody-listens"); prof::add_bytes(1); }
  prof::Profiler p;
  EXPECT_EQ(p.tree().nodes.size(), 0u);
  EXPECT_EQ(p.thread_count(), 0);
}

TEST(ProfTest, NullAttachIsNoOp) {
  prof::Attach attach(nullptr);
  EXPECT_FALSE(prof::enabled());
  { ZC_PROF_SPAN("still-off"); }
}

TEST(ProfTest, TreeInvariants) {
  prof::Profiler p;
  const prof::Profiler::Tree t = small_tree(p);
  ASSERT_EQ(t.roots.size(), 1u);
  ASSERT_EQ(t.nodes.size(), 4u);

  // self + Σ children == total, exactly, at every node.
  double self_sum = 0.0;
  for (int i = 0; i < static_cast<int>(t.nodes.size()); ++i) {
    double children = 0.0;
    for (const int c : t.nodes[i].children) children += t.nodes[c].total_seconds;
    EXPECT_DOUBLE_EQ(t.nodes[i].total_seconds, t.self_seconds(i) + children);
    EXPECT_GE(t.self_seconds(i), 0.0);
    self_sum += t.self_seconds(i);
  }
  // The self times partition the wall time.
  EXPECT_NEAR(self_sum, t.wall_seconds(), 1e-12);

  const prof::Node& root = t.nodes[t.roots[0]];
  EXPECT_EQ(root.name, "root");
  EXPECT_EQ(root.count, 1);
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(t.nodes[root.children[0]].name, "child a");
  EXPECT_EQ(t.nodes[root.children[0]].bytes, 128);
  EXPECT_GE(t.nodes[root.children[0]].total_seconds, 150e-6);
}

TEST(ProfTest, RepeatedSpansAggregate) {
  prof::Profiler p;
  {
    prof::Attach attach(&p);
    for (int i = 0; i < 10; ++i) { ZC_PROF_SPAN("loop"); }
  }
  const prof::Profiler::Tree t = p.tree();
  ASSERT_EQ(t.nodes.size(), 1u);
  EXPECT_EQ(t.nodes[0].count, 10);
}

TEST(ProfTest, OpenFramesContributeElapsedTime) {
  prof::Profiler p;
  prof::Attach attach(&p);
  ZC_PROF_SPAN("still-open");
  spin_for(std::chrono::microseconds(500));
  const prof::Profiler::Tree t = p.tree();  // snapshot mid-span
  ASSERT_EQ(t.nodes.size(), 1u);
  EXPECT_GE(t.nodes[0].total_seconds, 400e-6);
  EXPECT_EQ(t.nodes[0].count, 1);
}

TEST(ProfTest, RootTotalTracksWallTime) {
  prof::Profiler p;
  const auto start = std::chrono::steady_clock::now();
  {
    prof::Attach attach(&p);
    ZC_PROF_SPAN("main");
    spin_for(std::chrono::milliseconds(20));
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  const double root = p.tree().wall_seconds();
  EXPECT_GT(root, 0.0);
  // The root span opens/closes within the measured window; over a 20 ms
  // window the bookkeeping outside the span is far below 1%.
  EXPECT_LE(std::abs(root - wall) / wall, 0.01);
}

TEST(ProfTest, FoldedGrammarAndSum) {
  prof::Profiler p;
  const prof::Profiler::Tree t = small_tree(p);
  const std::string folded = p.to_folded();

  // flamegraph.pl's input grammar: `frame(;frame)* <count>` per line, no
  // spaces or semicolons inside a frame name.
  const std::regex line_re(R"(^[^ ;]+(;[^ ;]+)* \d+$)");
  std::istringstream is(folded);
  std::string line;
  long long folded_total_us = 0;
  int lines = 0;
  bool saw_sanitized = false;
  while (std::getline(is, line)) {
    EXPECT_TRUE(std::regex_match(line, line_re)) << "bad folded line: " << line;
    const std::size_t sp = line.rfind(' ');
    folded_total_us += std::stoll(line.substr(sp + 1));
    if (line.find("child_a") != std::string::npos) saw_sanitized = true;
    ++lines;
  }
  EXPECT_GT(lines, 0);
  EXPECT_TRUE(saw_sanitized) << "'child a' should fold as 'child_a'";

  // Folded values are per-node self times: they must add up to the wall
  // time within rounding (each line rounds to a microsecond).
  const double wall_us = t.wall_seconds() * 1e6;
  EXPECT_NEAR(static_cast<double>(folded_total_us), wall_us,
              static_cast<double>(t.nodes.size()));
}

TEST(ProfTest, JsonExportMatchesTree) {
  prof::Profiler p;
  const prof::Profiler::Tree t = small_tree(p);
  const json::Value v = p.to_json();
  EXPECT_NEAR(v.at("wall_seconds").number, t.wall_seconds(), 1e-9);
  ASSERT_EQ(v.at("spans").array.size(), t.roots.size());
  const json::Value& root = v.at("spans").array[0];
  EXPECT_EQ(root.at("name").string, "root");
  EXPECT_EQ(root.at("count").number, 1.0);
  EXPECT_EQ(root.at("children").array.size(), 2u);
  // Round-trips through the serializer.
  const json::Value reparsed = json::parse(v.dump());
  EXPECT_EQ(reparsed.at("spans").array[0].at("name").string, "root");
}

TEST(ProfTest, ThreadsDoNotInterleave) {
  prof::Profiler p;
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&p, i] {
      prof::Attach attach(&p);
      const char* name = i % 2 == 0 ? "even" : "odd";
      for (int k = 0; k < 50; ++k) {
        ZC_PROF_SPAN(name);
        {
          ZC_PROF_SPAN("inner");
          prof::add_bytes(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(p.thread_count(), 4);
  const prof::Profiler::Tree t = p.tree();
  // Merged by path: exactly "even" and "odd" roots, each with one "inner"
  // child. Interleaved stacks would nest spans under the wrong parent and
  // break this shape.
  ASSERT_EQ(t.roots.size(), 2u);
  long long root_count = 0;
  for (const int r : t.roots) {
    const prof::Node& n = t.nodes[r];
    EXPECT_TRUE(n.name == "even" || n.name == "odd");
    root_count += n.count;
    ASSERT_EQ(n.children.size(), 1u);
    EXPECT_EQ(t.nodes[n.children[0]].name, "inner");
    EXPECT_EQ(t.nodes[n.children[0]].count, n.count);
  }
  EXPECT_EQ(root_count, 4 * 50);
  // Every per-thread timeline is well-formed on its own clock: events
  // don't run backwards and depths match a stack discipline.
  for (int th = 0; th < p.thread_count(); ++th) {
    for (const prof::TimelineEvent& e : p.timeline(th)) {
      EXPECT_LE(e.t_begin, e.t_end);
      EXPECT_GE(e.depth, 0);
      EXPECT_LE(e.depth, 1);
    }
  }
}

TEST(ProfTest, TimelineIsBoundedAndCountsDrops) {
  prof::Profiler p(/*max_timeline_events=*/3);
  {
    prof::Attach attach(&p);
    for (int i = 0; i < 8; ++i) { ZC_PROF_SPAN("e"); }
  }
  EXPECT_EQ(p.timeline(0).size(), 3u);
  EXPECT_EQ(p.dropped_timeline_events(), 5);
  // The aggregate tree stays exact regardless of timeline drops.
  EXPECT_EQ(p.tree().nodes[0].count, 8);
}

TEST(ProfTest, PeakRssIsPositiveOnLinux) {
  const long long rss = prof::peak_rss_bytes();
  EXPECT_GT(rss, 0) << "VmHWM should parse on this platform";
  EXPECT_EQ(rss % 1024, 0);  // the kernel reports whole kB
}

// --- the zero-effect contract ---------------------------------------------

struct RunSnapshot {
  std::string plan_text;
  long long static_count = 0;
  long long dynamic_count = 0;
  long long total_messages = 0;
  long long total_bytes = 0;
  long long reduction_count = 0;
  double elapsed_seconds = 0.0;
  std::map<std::string, double> scalars;
  std::map<std::string, double> checksums;
};

RunSnapshot run_benchmark(const std::string& name) {
  const programs::BenchmarkInfo& info = programs::benchmark(name);
  const zir::Program program = parser::parse_program(info.source);
  driver::Experiment e = driver::experiment("pl");
  sim::RunConfig cfg;
  cfg.procs = 4;
  cfg.config_overrides = info.test_configs;
  const driver::Metrics m = driver::run_experiment(program, e, std::move(cfg));
  RunSnapshot s;
  s.plan_text = comm::to_string(m.plan, program);
  s.static_count = m.static_count;
  s.dynamic_count = m.dynamic_count;
  s.total_messages = m.run.total_messages;
  s.total_bytes = m.run.total_bytes;
  s.reduction_count = m.run.reduction_count;
  s.elapsed_seconds = m.run.elapsed_seconds;
  s.scalars = m.run.scalars;
  s.checksums = m.run.checksums;
  return s;
}

TEST(ProfTest, ProfilingDoesNotChangeResults) {
  // The whole pipeline — parse, plan, simulate — must produce bit-identical
  // outputs with and without a profiler attached, on every benchmark.
  for (const std::string bench : {"tomcatv", "swm", "simple", "sp"}) {
    const RunSnapshot off = run_benchmark(bench);
    prof::Profiler p;
    RunSnapshot on;
    {
      prof::Attach attach(&p);
      ZC_PROF_SPAN("test-root");
      on = run_benchmark(bench);
    }
    EXPECT_GT(p.tree().wall_seconds(), 0.0) << bench << ": profiler saw nothing";

    EXPECT_EQ(off.plan_text, on.plan_text) << bench;
    EXPECT_EQ(off.static_count, on.static_count) << bench;
    EXPECT_EQ(off.dynamic_count, on.dynamic_count) << bench;
    EXPECT_EQ(off.total_messages, on.total_messages) << bench;
    EXPECT_EQ(off.total_bytes, on.total_bytes) << bench;
    EXPECT_EQ(off.reduction_count, on.reduction_count) << bench;
    EXPECT_EQ(off.elapsed_seconds, on.elapsed_seconds) << bench;  // bit-exact
    EXPECT_EQ(off.scalars, on.scalars) << bench;
    EXPECT_EQ(off.checksums, on.checksums) << bench;
  }
}

// --- report integration and the perf-budget gate --------------------------

json::Value profiled_report(prof::Profiler* profiler) {
  const programs::BenchmarkInfo& info = programs::benchmark("swm");
  const zir::Program program = parser::parse_program(info.source);
  driver::Experiment e = driver::experiment("pl");
  sim::RunConfig cfg;
  cfg.procs = 4;
  cfg.config_overrides = info.test_configs;
  const int procs = cfg.procs;
  const driver::Metrics m = driver::run_experiment(program, e, std::move(cfg));
  driver::ReportOptions ropts;
  ropts.benchmark = "swm";
  ropts.metrics_snapshot = false;  // the global registry varies run to run
  ropts.provenance = false;
  ropts.host_profiler = profiler;
  return driver::build_report(m, e, procs, nullptr, ropts);
}

TEST(ProfTest, ReportHostProfileBlock) {
  prof::Profiler p;
  json::Value with;
  {
    prof::Attach attach(&p);
    ZC_PROF_SPAN("report-root");
    with = profiled_report(&p);
  }
  EXPECT_EQ(with.at("schema_version").number, 5.0);
  ASSERT_TRUE(with.has("host_profile"));
  const json::Value& hp = with.at("host_profile");
  EXPECT_GT(hp.at("wall_seconds").number, 0.0);
  EXPECT_GT(hp.at("peak_rss_bytes").number, 0.0);
  EXPECT_EQ(hp.at("spans").array[0].at("name").string, "report-root");

  // Unprofiled reports carry no host_profile block and are bit-identical
  // across builds of the same run (dump compares the full document).
  const json::Value without_a = profiled_report(nullptr);
  const json::Value without_b = profiled_report(nullptr);
  EXPECT_FALSE(without_a.has("host_profile"));
  EXPECT_EQ(without_a.dump(), without_b.dump());
}

json::Value scale_profile(json::Value doc, double factor) {
  // Recursively scales host_profile durations, as report_diff's
  // --scale-after-host testing aid does.
  struct Scaler {
    double f;
    void walk(json::Value& v) const {
      if (v.has("wall_seconds")) v["wall_seconds"].number *= f;
      if (v.has("total_seconds")) v["total_seconds"].number *= f;
      if (v.has("self_seconds")) v["self_seconds"].number *= f;
      if (v.has("spans")) for (json::Value& s : v["spans"].array) walk(s);
      if (v.has("children")) for (json::Value& s : v["children"].array) walk(s);
    }
  };
  Scaler{factor}.walk(doc["host_profile"]);
  return doc;
}

TEST(ProfTest, PerfBudgetDiff) {
  prof::Profiler p;
  json::Value report;
  {
    prof::Attach attach(&p);
    ZC_PROF_SPAN("budget-root");
    report = profiled_report(&p);
  }

  // Identical runs pass any budget.
  const json::Value same = driver::perf_budget_diff(report, report, 20.0);
  EXPECT_FALSE(same.at("regressed").boolean);
  EXPECT_FALSE(same.at("wall").at("regressed").boolean);

  // A 2x slowdown on everything blows a 20% budget (wall, at least; small
  // spans may hide under the absolute noise floor).
  const json::Value slow = scale_profile(report, 2.0);
  const json::Value bad = driver::perf_budget_diff(report, slow, 20.0);
  EXPECT_TRUE(bad.at("regressed").boolean);
  EXPECT_TRUE(bad.at("wall").at("regressed").boolean);

  // The absolute floor absorbs sub-millisecond jitter: with a huge floor
  // nothing regresses.
  const json::Value forgiven = driver::perf_budget_diff(report, slow, 20.0, /*abs_floor=*/1e9);
  EXPECT_FALSE(forgiven.at("regressed").boolean);

  // Reports without a host_profile are rejected, not mis-compared.
  json::Value unprofiled = profiled_report(nullptr);
  EXPECT_THROW(driver::perf_budget_diff(unprofiled, report, 20.0), Error);

  // diff_run_reports itself stays clean across asymmetric optional blocks.
  const json::Value diff = driver::diff_run_reports(unprofiled, report);
  EXPECT_FALSE(diff.at("regressed").boolean);
  bool noted = false;
  for (const json::Value& b : diff.at("optional_blocks").array) {
    if (b.at("name").string == "host_profile") {
      noted = true;
      EXPECT_FALSE(b.at("before").boolean);
      EXPECT_TRUE(b.at("after").boolean);
    }
  }
  EXPECT_TRUE(noted);
}

TEST(ProfTest, StrictFieldMissingIsNotStructuralError) {
  prof::Profiler p;
  json::Value profiled;
  {
    prof::Attach attach(&p);
    profiled = profiled_report(&p);
  }
  const json::Value plain = profiled_report(nullptr);
  // A strict field that only one report carries is flagged as
  // incomparable instead of throwing.
  const json::Value diff =
      driver::diff_run_reports(plain, profiled, 0.05, {"no_such_field"});
  ASSERT_EQ(diff.at("strict").array.size(), 1u);
  EXPECT_FALSE(diff.at("strict").array[0].at("comparable").boolean);
  EXPECT_FALSE(diff.at("regressed").boolean);
}

}  // namespace
