// Provenance and observability invariants:
//   - attaching a PassLog never changes the produced CommPlan (the
//     zero-overhead-off contract's "bit-identical" half);
//   - every rr decision names a live covering transfer of the same array
//     and direction;
//   - cc group members partition the live transfers of their block;
//   - pl placements stay within the feasible send interval and report a
//     non-negative hoist;
// plus unit coverage of the metrics registry and the JSON builder.
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/comm/optimizer.h"
#include "src/driver/driver.h"
#include "src/parser/parser.h"
#include "src/programs/programs.h"
#include "src/report/passlog.h"
#include "src/support/diag.h"
#include "src/support/io.h"
#include "src/support/json.h"
#include "src/support/metrics.h"

namespace {

using namespace zc;

const std::vector<std::string>& bench_names() {
  static const std::vector<std::string> names = {"tomcatv", "swm", "simple", "sp"};
  return names;
}

/// Every optimizer configuration worth checking provenance under: the four
/// cumulative levels, the inter-block extension, and the non-default
/// combining heuristics.
std::vector<std::pair<std::string, comm::OptOptions>> option_matrix() {
  using comm::CombineHeuristic;
  using comm::OptLevel;
  using comm::OptOptions;

  std::vector<std::pair<std::string, comm::OptOptions>> v;
  v.emplace_back("baseline", OptOptions::for_level(OptLevel::kBaseline));
  v.emplace_back("rr", OptOptions::for_level(OptLevel::kRR));
  v.emplace_back("cc", OptOptions::for_level(OptLevel::kCC));
  v.emplace_back("pl", OptOptions::for_level(OptLevel::kPL));

  OptOptions inter = OptOptions::for_level(OptLevel::kPL);
  inter.inter_block = true;
  v.emplace_back("pl+inter", inter);

  OptOptions maxlat = OptOptions::for_level(OptLevel::kPL);
  maxlat.heuristic = CombineHeuristic::kMaxLatency;
  v.emplace_back("pl/maxlat", maxlat);

  OptOptions hybrid = OptOptions::for_level(OptLevel::kPL);
  hybrid.heuristic = CombineHeuristic::kHybrid;
  v.emplace_back("pl/hybrid", hybrid);
  return v;
}

TEST(PassLogTest, PlanBitIdenticalWithLogAttached) {
  for (const std::string& bench : bench_names()) {
    const zir::Program program = parser::parse_program(programs::benchmark(bench).source);
    for (const auto& [label, opts] : option_matrix()) {
      const comm::CommPlan bare = comm::plan_communication(program, opts);

      report::PassLog log;
      comm::OptOptions logged = opts;
      logged.pass_log = &log;
      const comm::CommPlan observed = comm::plan_communication(program, logged);

      SCOPED_TRACE(bench + " / " + label);
      EXPECT_EQ(bare.static_count(), observed.static_count());
      EXPECT_EQ(bare.total_transfer_count(), observed.total_transfer_count());
      EXPECT_EQ(comm::to_string(bare, program), comm::to_string(observed, program));
    }
  }
}

TEST(PassLogTest, RRDecisionsNameLiveCoverers) {
  for (const std::string& bench : bench_names()) {
    const zir::Program program = parser::parse_program(programs::benchmark(bench).source);
    for (const auto& [label, opts] : option_matrix()) {
      report::PassLog log;
      comm::OptOptions logged = opts;
      logged.pass_log = &log;
      const comm::CommPlan plan = comm::plan_communication(program, logged);
      SCOPED_TRACE(bench + " / " + label);

      int redundant = 0;
      for (const comm::BlockPlan& bp : plan.blocks) {
        for (const comm::Transfer& t : bp.transfers) redundant += t.redundant ? 1 : 0;
      }
      EXPECT_EQ(static_cast<int>(log.rr.size()), redundant)
          << "one decision per killed transfer";

      for (const report::RRDecision& d : log.rr) {
        ASSERT_GE(d.where.block, 0);
        ASSERT_LT(d.where.block, static_cast<int>(plan.blocks.size()));
        const comm::BlockPlan& bp = plan.blocks[d.where.block];
        ASSERT_GE(d.transfer, 0);
        ASSERT_LT(d.transfer, static_cast<int>(bp.transfers.size()));
        const comm::Transfer& killed = bp.transfers[d.transfer];
        EXPECT_TRUE(killed.redundant);
        EXPECT_EQ(program.array(killed.array).name, d.array);
        EXPECT_EQ(program.direction(killed.direction).name, d.direction);

        ASSERT_GE(d.covering_block, 0);
        ASSERT_LT(d.covering_block, static_cast<int>(plan.blocks.size()));
        const comm::BlockPlan& cbp = plan.blocks[d.covering_block];
        ASSERT_GE(d.covering_transfer, 0);
        ASSERT_LT(d.covering_transfer, static_cast<int>(cbp.transfers.size()));
        const comm::Transfer& coverer = cbp.transfers[d.covering_transfer];
        EXPECT_FALSE(coverer.redundant) << "coverer must be live in the plan";
        EXPECT_EQ(coverer.array, killed.array);
        EXPECT_EQ(coverer.direction, killed.direction);
        EXPECT_NE(&coverer, &killed);
        // After resolve_rr_coverers() even an intra-block decision may point
        // at an earlier block (its original coverer was itself killed by the
        // inter-block pass); within one block the coverer must come first.
        if (d.covering_block == d.where.block) {
          EXPECT_LT(coverer.use_stmt, killed.use_stmt)
              << "an intra-block coverer precedes its kill";
        } else {
          EXPECT_TRUE(opts.inter_block)
              << "cross-block coverage requires the inter-block extension";
          EXPECT_LT(d.covering_block, d.where.block)
              << "flow order: the coverer's block precedes the kill's";
        }
      }
    }
  }
}

TEST(PassLogTest, CCGroupMembersPartitionLiveTransfers) {
  for (const std::string& bench : bench_names()) {
    const zir::Program program = parser::parse_program(programs::benchmark(bench).source);
    for (const auto& [label, opts] : option_matrix()) {
      report::PassLog log;
      comm::OptOptions logged = opts;
      logged.pass_log = &log;
      const comm::CommPlan plan = comm::plan_communication(program, logged);
      SCOPED_TRACE(bench + " / " + label);

      for (const comm::BlockPlan& bp : plan.blocks) {
        // (array, direction, use_stmt) identifies a live transfer within a
        // block; the groups' members must cover each exactly once.
        std::multiset<std::tuple<int, int, int>> live;
        for (const comm::Transfer& t : bp.transfers) {
          if (!t.redundant) {
            live.emplace(t.array.index(), t.direction.index(), t.use_stmt);
          }
        }
        std::multiset<std::tuple<int, int, int>> grouped;
        for (const comm::CommGroup& g : bp.groups) {
          for (const comm::Member& m : g.members) {
            grouped.emplace(m.array.index(), g.direction.index(), m.use_stmt);
          }
        }
        EXPECT_EQ(live, grouped) << "groups must partition the live transfers";
      }

      for (const report::CCMerge& m : log.cc) {
        ASSERT_GE(m.where.block, 0);
        ASSERT_LT(m.where.block, static_cast<int>(plan.blocks.size()));
        const comm::BlockPlan& bp = plan.blocks[m.where.block];
        ASSERT_GE(m.group, 0);
        ASSERT_LT(m.group, static_cast<int>(bp.groups.size()));
        const comm::CommGroup& g = bp.groups[m.group];
        EXPECT_GE(m.members_after, 2) << "a merge implies at least two members";
        EXPECT_LE(m.members_after, static_cast<int>(g.members.size()));
        EXPECT_TRUE(g.has_member(program.find_array(m.array)))
            << m.array << " must be a member of the group it joined";
        EXPECT_EQ(m.heuristic, comm::to_string(logged.heuristic));
        EXPECT_GT(m.group_est_elems, 0);
        EXPECT_GE(m.group_est_elems, m.est_elems);
      }
      if (!opts.combine) {
        EXPECT_TRUE(log.cc.empty());
      }
    }
  }
}

TEST(PassLogTest, PLPlacementsStayWithinFeasibleInterval) {
  for (const std::string& bench : bench_names()) {
    const zir::Program program = parser::parse_program(programs::benchmark(bench).source);
    for (const auto& [label, opts] : option_matrix()) {
      report::PassLog log;
      comm::OptOptions logged = opts;
      logged.pass_log = &log;
      const comm::CommPlan plan = comm::plan_communication(program, logged);
      SCOPED_TRACE(bench + " / " + label);

      EXPECT_EQ(static_cast<int>(log.pl.size()), plan.static_count())
          << "one placement record per communication";
      for (const report::PLPlacement& p : log.pl) {
        ASSERT_GE(p.where.block, 0);
        ASSERT_LT(p.where.block, static_cast<int>(plan.blocks.size()));
        const comm::BlockPlan& bp = plan.blocks[p.where.block];
        ASSERT_GE(p.group, 0);
        ASSERT_LT(p.group, static_cast<int>(bp.groups.size()));
        const comm::CommGroup& g = bp.groups[p.group];

        EXPECT_EQ(p.sr_pos, g.sr_pos);
        EXPECT_EQ(p.dn_pos, g.dn_pos);
        EXPECT_EQ(p.sv_pos, g.sv_pos);
        EXPECT_EQ(p.earliest_send, g.earliest_send);
        EXPECT_EQ(p.first_use, g.first_use);
        EXPECT_EQ(program.direction(g.direction).name, p.direction);

        EXPECT_GE(p.sr_hoist, 0) << "hoist distance is never negative";
        EXPECT_EQ(p.sr_hoist, p.first_use - p.sr_pos);
        EXPECT_GE(p.sr_pos, p.earliest_send) << "SR within the feasible interval";
        EXPECT_LE(p.sr_pos, p.first_use);
        EXPECT_EQ(p.dn_pos, p.first_use) << "DN stays at the first use";
        EXPECT_EQ(p.pipelined, opts.pipeline);
        if (!opts.pipeline) {
          EXPECT_EQ(p.sr_hoist, 0);
        }
      }
    }
  }

  // The paper's pipelining claim, spot-checked: TOMCATV under `pl` hoists at
  // least one SR above its DN.
  const zir::Program tomcatv =
      parser::parse_program(programs::benchmark("tomcatv").source);
  report::PassLog log;
  comm::OptOptions opts = comm::OptOptions::for_level(comm::OptLevel::kPL);
  opts.pass_log = &log;
  comm::plan_communication(tomcatv, opts);
  EXPECT_GT(log.total_sr_hoist(), 0);
}

TEST(PassLogTest, DriverRunIsBitIdenticalWithLogAttached) {
  const programs::BenchmarkInfo& info = programs::benchmark("tomcatv");
  const zir::Program program = parser::parse_program(info.source);
  auto exp = driver::find_experiment("pl");
  ASSERT_TRUE(exp.has_value());

  const auto run = [&](report::PassLog* log) {
    driver::Experiment e = *exp;
    e.opts.pass_log = log;
    sim::RunConfig cfg;
    cfg.procs = 4;
    cfg.config_overrides = info.test_configs;
    return driver::run_experiment(program, e, std::move(cfg));
  };

  const driver::Metrics bare = run(nullptr);
  report::PassLog log;
  const driver::Metrics observed = run(&log);

  EXPECT_EQ(bare.static_count, observed.static_count);
  EXPECT_EQ(bare.dynamic_count, observed.dynamic_count);
  EXPECT_EQ(bare.execution_time, observed.execution_time) << "bitwise-equal simulated time";
  EXPECT_FALSE(log.pl.empty());
}

TEST(PassLogTest, ToStringNamesEveryPassWithProvenance) {
  const zir::Program program =
      parser::parse_program(programs::benchmark("tomcatv").source);
  report::PassLog log;
  comm::OptOptions opts = comm::OptOptions::for_level(comm::OptLevel::kPL);
  opts.pass_log = &log;
  comm::plan_communication(program, opts);

  const std::string text = log.to_string();
  EXPECT_NE(text.find("rr:"), std::string::npos);
  EXPECT_NE(text.find("cc:"), std::string::npos);
  EXPECT_NE(text.find("pl:"), std::string::npos);
  EXPECT_NE(text.find("[block "), std::string::npos) << "decisions carry source anchors";
}

TEST(MetricsTest, CountersGaugesAndHistograms) {
  metrics::Registry reg;
  EXPECT_TRUE(reg.empty());
  EXPECT_EQ(reg.counter("absent"), 0);
  EXPECT_EQ(reg.gauge_value("absent"), 0.0);
  EXPECT_EQ(reg.find_histogram("absent"), nullptr);

  reg.count("runs");
  reg.count("runs", 2);
  reg.gauge("temp", 1.5);
  reg.gauge("temp", 2.5);
  reg.observe("sizes", 3.0, {2.0, 4.0});
  reg.observe("sizes", 5.0, {99.0});  // later bounds are ignored

  EXPECT_EQ(reg.counter("runs"), 3);
  EXPECT_EQ(reg.gauge_value("temp"), 2.5);
  const metrics::Histogram* h = reg.find_histogram("sizes");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2);
  EXPECT_EQ(h->sum, 8.0);
  EXPECT_EQ(h->min, 3.0);
  EXPECT_EQ(h->max, 5.0);
  ASSERT_EQ(h->bounds, (std::vector<double>{2.0, 4.0}));
  EXPECT_EQ(h->buckets, (std::vector<long long>{0, 1, 1}));

  const std::string text = reg.to_text();
  EXPECT_NE(text.find("counter runs 3"), std::string::npos);
  EXPECT_NE(text.find("gauge temp 2.5"), std::string::npos);
  EXPECT_NE(text.find("hist sizes"), std::string::npos);

  const json::Value doc = json::parse(reg.to_json().dump());
  EXPECT_EQ(doc.at("counters").at("runs").number, 3.0);
  EXPECT_EQ(doc.at("gauges").at("temp").number, 2.5);
  EXPECT_EQ(doc.at("histograms").at("sizes").at("count").number, 2.0);

  reg.reset();
  EXPECT_TRUE(reg.empty());
}

TEST(MetricsTest, HistogramQuantilesPinnedOnKnownSamples) {
  // Ten samples 1..10, one per bucket: the rank interpolation is exact, so
  // the quantiles are pinnable values rather than bucket-resolution blurs.
  metrics::Registry reg;
  std::vector<double> bounds;
  for (int i = 1; i <= 10; ++i) bounds.push_back(static_cast<double>(i));
  for (int i = 1; i <= 10; ++i) reg.observe("latency", static_cast<double>(i), bounds);

  const metrics::Histogram* h = reg.find_histogram("latency");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h->quantile(0.50), 5.0);
  EXPECT_DOUBLE_EQ(h->quantile(0.90), 9.0);
  EXPECT_DOUBLE_EQ(h->quantile(0.99), 9.9);
  EXPECT_DOUBLE_EQ(h->quantile(1.0), 10.0);

  // Values beyond the last bound land in the overflow bucket and clamp to
  // the observed max rather than extrapolating to infinity.
  reg.observe("over", 1.0, {2.0});
  reg.observe("over", 50.0, {2.0});
  const metrics::Histogram* o = reg.find_histogram("over");
  ASSERT_NE(o, nullptr);
  EXPECT_LE(o->quantile(0.99), 50.0);
  EXPECT_GE(o->quantile(0.99), 2.0);

  // Empty histogram: quantiles are defined (0), never NaN.
  const metrics::Histogram empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);

  // Both expositions carry the summaries.
  const std::string text = reg.to_text();
  EXPECT_NE(text.find("hist latency count 10"), std::string::npos);
  EXPECT_NE(text.find(" p50 5 p90 9 p99 9.9"), std::string::npos);
  const json::Value doc = json::parse(reg.to_json().dump());
  EXPECT_DOUBLE_EQ(doc.at("histograms").at("latency").at("p50").number, 5.0);
  EXPECT_DOUBLE_EQ(doc.at("histograms").at("latency").at("p90").number, 9.0);
  EXPECT_DOUBLE_EQ(doc.at("histograms").at("latency").at("p99").number, 9.9);
}

TEST(MetricsTest, OptimizerAndDriverPublish) {
  auto& reg = metrics::Registry::global();
  reg.reset();

  const programs::BenchmarkInfo& info = programs::benchmark("tomcatv");
  driver::run_source(info.source, driver::experiment("pl"), 4, info.test_configs);

  EXPECT_EQ(reg.counter("driver.experiments"), 1);
  EXPECT_EQ(reg.counter("opt.plans"), 1);
  EXPECT_GT(reg.counter("opt.transfers_generated"), 0);
  EXPECT_GT(reg.counter("sim.communications"), 0);
  EXPECT_GT(reg.gauge_value("driver.last_execution_seconds"), 0.0);
  EXPECT_EQ(reg.gauge_value("driver.last_dynamic_count"),
            static_cast<double>(reg.counter("sim.communications")));
  EXPECT_NE(reg.find_histogram("opt.sr_hoist_stmts"), nullptr);
  reg.reset();
}

TEST(JsonBuilderTest, DumpParseRoundTrip) {
  json::Value doc = json::Value::make_object();
  doc["int"] = json::Value::make_int(42);
  doc["float"] = json::Value::make_num(2.5);
  doc["big"] = json::Value::make_num(1e100);
  doc["str"] = json::Value::make_str("line\n\"quote\"\t\\");
  doc["flag"] = json::Value::make_bool(true);
  doc["none"] = json::Value::make_null();
  doc["nan"] = json::Value::make_num(std::nan(""));
  json::Value arr = json::Value::make_array();
  for (int i = 0; i < 3; ++i) arr.push_back(json::Value::make_int(i));
  doc["list"] = std::move(arr);
  doc["nested"]["implicit"] = json::Value::make_str("objects on demand");

  const std::string text = doc.dump();
  EXPECT_NE(text.find("\"int\": 42"), std::string::npos) << "integral doubles print as integers";
  const json::Value back = json::parse(text);
  EXPECT_EQ(back.at("int").number, 42.0);
  EXPECT_EQ(back.at("float").number, 2.5);
  EXPECT_EQ(back.at("big").number, 1e100);
  EXPECT_EQ(back.at("str").string, "line\n\"quote\"\t\\");
  EXPECT_TRUE(back.at("flag").boolean);
  EXPECT_TRUE(back.at("none").is_null());
  EXPECT_TRUE(back.at("nan").is_null()) << "non-finite numbers render as null";
  ASSERT_EQ(back.at("list").array.size(), 3u);
  EXPECT_EQ(back.at("list").array[2].number, 2.0);
  EXPECT_EQ(back.at("nested").at("implicit").string, "objects on demand");

  EXPECT_EQ(json::parse(text).dump(), text) << "dump is a fixed point through parse";
  EXPECT_EQ(doc.dump(0).find('\n'), std::string::npos) << "indent 0 is single-line";
}

TEST(IoTest, WriteAndReadBack) {
  const std::string path = ::testing::TempDir() + "/zc_io_test.txt";
  io::write_text_file(path, "round\ntrip\n");
  EXPECT_EQ(io::read_text_file(path), "round\ntrip\n");
}

TEST(IoTest, UnwritablePathThrowsWithPath) {
  try {
    io::write_text_file("/nonexistent-dir/out.json", "x");
    FAIL() << "expected zc::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent-dir/out.json"), std::string::npos);
  }
  EXPECT_THROW(io::read_text_file("/nonexistent-dir/in.json"), Error);
}

}  // namespace
