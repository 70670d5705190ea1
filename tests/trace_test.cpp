// Trace subsystem tests: recorder bounding and drop accounting, Chrome
// JSON well-formedness (parsed back with support/json), the golden
// zero-perturbation contract (a traced run's Metrics are bit-identical to
// an untraced run), exact reconciliation of trace totals with the engine's
// counters, and the Figure 6 cross-check (traced ping exposed overhead ==
// Transport::exposed_overhead).
#include <gtest/gtest.h>

#include <cmath>

#include "src/driver/driver.h"
#include "src/parser/parser.h"
#include "src/programs/programs.h"
#include "src/sim/ping.h"
#include "src/sim/transport.h"
#include "src/support/csv.h"
#include "src/support/json.h"
#include "src/trace/chrome.h"
#include "src/trace/recorder.h"
#include "src/trace/stats.h"

namespace zc::trace {
namespace {

using ironman::CommLibrary;
using ironman::IronmanCall;
using ironman::Primitive;

TEST(Recorder, BoundsEventBuffersAndCountsDrops) {
  RecorderOptions opts;
  opts.max_events_per_proc = 4;
  opts.max_messages = 2;
  Recorder rec(2, opts);

  for (int i = 0; i < 10; ++i) {
    rec.record_compute(0, 100, i * 1.0, i * 1.0 + 0.5);
  }
  EXPECT_EQ(rec.events(0).size(), 4u);
  EXPECT_EQ(rec.events(1).size(), 0u);
  EXPECT_EQ(rec.dropped_events(), 6);
  // Aggregates keep counting past the cap.
  EXPECT_DOUBLE_EQ(rec.compute_seconds(), 10 * 0.5);

  for (int i = 0; i < 5; ++i) {
    const std::int64_t id = rec.record_message(7, /*transfer=*/0, 0, 1, 256, 0.0, 0.1, 0.2);
    EXPECT_EQ(id >= 0, i < 2);  // detailed records stop at the cap
    rec.record_consumed(id, /*transfer=*/0, 0.3, /*wait_seconds=*/0.05, /*wire_seconds=*/0.1);
  }
  EXPECT_EQ(rec.messages().size(), 2u);
  EXPECT_EQ(rec.dropped_messages(), 3);
  EXPECT_EQ(rec.total_messages(), 5);
  EXPECT_EQ(rec.total_bytes(), 5 * 256);
  EXPECT_DOUBLE_EQ(rec.wire_totals().wire_seconds, 5 * 0.1);
  EXPECT_DOUBLE_EQ(rec.wire_totals().exposed_seconds, 5 * 0.05);
  const auto& chan = rec.channel_totals().at({7, 0, 1});
  EXPECT_EQ(chan.messages, 5);
  EXPECT_EQ(chan.bytes, 5 * 256);
}

TEST(Recorder, SizeBucketsStraddleTheKnee) {
  EXPECT_EQ(Recorder::size_bucket(1), 16);
  EXPECT_EQ(Recorder::size_bucket(16), 16);
  EXPECT_EQ(Recorder::size_bucket(17), 32);
  EXPECT_EQ(Recorder::size_bucket(4096), 4096);
  EXPECT_EQ(Recorder::size_bucket(4097), 8192);
  EXPECT_EQ(Recorder::size_bucket(1 << 20), 1 << 20);
  EXPECT_EQ(Recorder::size_bucket((1 << 20) + 1), Recorder::kOverflowBucket);
}

TEST(Recorder, CallTotalsSplitWaitAndCpu) {
  Recorder rec(2);
  // A DN that waited 3 time units and then spent 1 on the copy.
  rec.record_call(1, IronmanCall::kDN, Primitive::kPvmRecv, 0, /*transfer=*/0, 0, 1, 800,
                  /*t_begin=*/10.0, /*t_unblocked=*/13.0, /*t_end=*/14.0);
  const CallTotals& dn = rec.call_totals()[static_cast<std::size_t>(IronmanCall::kDN)];
  EXPECT_EQ(dn.calls, 1);
  EXPECT_DOUBLE_EQ(dn.wait_seconds, 3.0);
  EXPECT_DOUBLE_EQ(dn.cpu_seconds, 1.0);
  const CallTotals& prim = rec.primitive_totals().at(Primitive::kPvmRecv);
  EXPECT_EQ(prim.calls, 1);
  EXPECT_DOUBLE_EQ(prim.wait_seconds, 3.0);
}

/// Runs one paper experiment on a test-scale benchmark, traced.
driver::Metrics run_traced(const std::string& bench, const std::string& experiment,
                           Recorder& recorder, int procs = 16) {
  const programs::BenchmarkInfo& info = programs::benchmark(bench);
  const zir::Program program = parser::parse_program(info.source);
  sim::RunConfig cfg;
  cfg.procs = procs;
  cfg.config_overrides = info.test_configs;
  cfg.recorder = &recorder;
  return driver::run_experiment(program, driver::experiment(experiment), cfg);
}

driver::Metrics run_untraced(const std::string& bench, const std::string& experiment,
                             int procs = 16) {
  const programs::BenchmarkInfo& info = programs::benchmark(bench);
  return driver::run_source(info.source, driver::experiment(experiment), procs,
                            info.test_configs);
}

TEST(TraceGolden, TracedRunIsBitIdenticalToUntraced) {
  for (const char* experiment : {"baseline", "pl", "pl with shmem"}) {
    Recorder rec(16);
    const driver::Metrics traced = run_traced("tomcatv", experiment, rec);
    const driver::Metrics plain = run_untraced("tomcatv", experiment);

    EXPECT_EQ(traced.static_count, plain.static_count) << experiment;
    EXPECT_EQ(traced.dynamic_count, plain.dynamic_count) << experiment;
    EXPECT_EQ(traced.execution_time, plain.execution_time) << experiment;  // bitwise
    EXPECT_EQ(traced.run.total_messages, plain.run.total_messages) << experiment;
    EXPECT_EQ(traced.run.total_bytes, plain.run.total_bytes) << experiment;
    EXPECT_EQ(traced.run.reduction_count, plain.run.reduction_count) << experiment;
    ASSERT_EQ(traced.run.checksums.size(), plain.run.checksums.size()) << experiment;
    for (const auto& [name, sum] : plain.run.checksums) {
      EXPECT_EQ(traced.run.checksums.at(name), sum) << experiment << " " << name;  // bitwise
    }
    for (const auto& [name, value] : plain.run.scalars) {
      EXPECT_EQ(traced.run.scalars.at(name), value) << experiment << " " << name;
    }
    EXPECT_TRUE(traced.trace_stats.has_value()) << experiment;
    EXPECT_FALSE(plain.trace_stats.has_value()) << experiment;
  }
}

TEST(TraceGolden, StatsTotalsReconcileWithRunResult) {
  for (const char* experiment : {"baseline", "cc", "pl", "pl with shmem"}) {
    Recorder rec(16);
    const driver::Metrics m = run_traced("tomcatv", experiment, rec);
    const Stats& s = *m.trace_stats;

    EXPECT_EQ(s.total_messages, m.run.total_messages) << experiment;
    EXPECT_EQ(s.total_bytes, m.run.total_bytes) << experiment;

    long long channel_messages = 0, channel_bytes = 0;
    for (const ChannelStat& ch : s.channels) {
      channel_messages += ch.messages;
      channel_bytes += ch.bytes;
    }
    EXPECT_EQ(channel_messages, m.run.total_messages) << experiment;
    EXPECT_EQ(channel_bytes, m.run.total_bytes) << experiment;

    long long hist_messages = 0, hist_bytes = 0;
    for (const SizeBucket& b : s.histogram) {
      hist_messages += b.messages;
      hist_bytes += b.bytes;
    }
    EXPECT_EQ(hist_messages, m.run.total_messages) << experiment;
    EXPECT_EQ(hist_bytes, m.run.total_bytes) << experiment;

    // Every SR produced a message and every message was consumed by a DN.
    const auto& sr = s.per_call[static_cast<std::size_t>(IronmanCall::kSR)];
    const auto& dn = s.per_call[static_cast<std::size_t>(IronmanCall::kDN)];
    EXPECT_EQ(sr.calls, m.run.total_messages) << experiment;
    EXPECT_EQ(dn.calls, m.run.total_messages) << experiment;
    // And the wire decomposition covers each message's transmission exactly.
    EXPECT_NEAR(s.wire.exposed_seconds + s.wire.overlapped_seconds, s.wire.wire_seconds,
                1e-12 + 1e-9 * s.wire.wire_seconds)
        << experiment;
  }
}

TEST(TraceChrome, JsonParsesBackAndHasAllTracks) {
  Recorder rec(16);
  const driver::Metrics m = run_traced("tomcatv", "pl", rec);
  const std::string text = to_chrome_json(rec);

  const json::Value doc = json::parse(text);
  ASSERT_TRUE(doc.is_object());
  const json::Value& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_GT(events.array.size(), 100u);

  long long spans = 0, metadata = 0, wire_spans = 0, compute_spans = 0, wait_spans = 0;
  for (const json::Value& e : events.array) {
    ASSERT_TRUE(e.is_object());
    const std::string& ph = e.at("ph").string;
    if (ph == "M") {
      ++metadata;
      continue;
    }
    ASSERT_EQ(ph, "X");
    ++spans;
    EXPECT_TRUE(e.at("ts").is_number());
    EXPECT_TRUE(e.at("dur").is_number());
    EXPECT_GE(e.at("dur").number, 0.0);
    const double pid = e.at("pid").number;
    if (pid == 2.0) ++wire_spans;
    const std::string& name = e.at("name").string;
    if (name == "compute") ++compute_spans;
    if (name.rfind("wait ", 0) == 0) ++wait_spans;
  }
  EXPECT_GT(spans, 0);
  EXPECT_GE(metadata, 2 + 16);  // two process names + one per processor
  EXPECT_EQ(wire_spans, m.run.total_messages);  // uncapped at this scale
  EXPECT_GT(compute_spans, 0);
  EXPECT_GT(wait_spans, 0);  // some receive always waits at this scale
}

TEST(TraceChrome, PipeliningShowsWireOverlappingCompute) {
  // The acceptance check for `pl` on TOMCATV: transfers must be in flight
  // while destination processors compute — i.e. some message's wire span
  // overlaps a compute span on its destination's track.
  Recorder rec(16);
  run_traced("tomcatv", "pl", rec);

  long long overlapping = 0;
  for (const MessageRecord& msg : rec.messages()) {
    for (const Event& e : rec.events(msg.dst)) {
      if (e.kind != EventKind::kCompute) continue;
      if (e.t_begin < msg.t_arrived && msg.t_on_wire < e.t_end) {
        ++overlapping;
        break;
      }
    }
  }
  EXPECT_GT(overlapping, 0);
  // And the stats agree: a meaningful share of wire time was hidden.
  const Stats s = compute_stats(rec);
  EXPECT_GT(s.wire.overlapped_seconds, 0.0);
}

TEST(TracePing, ExposedOverheadMatchesTransportModel) {
  // The Figure 6 cross-check: in the synthetic ping every transmission is
  // fully overlapped by busy loops, so the traced per-message exposed
  // overhead (wait + CPU inside the IRONMAN calls) must equal the cost
  // model's closed-form Transport::exposed_overhead within 1%.
  struct Case {
    machine::MachineModel machine;
    CommLibrary library;
  };
  const std::vector<Case> cases = {
      {machine::t3d_model(), CommLibrary::kPVM},
      {machine::paragon_model(), CommLibrary::kNXSync},
      {machine::paragon_model(), CommLibrary::kNXAsync},
  };
  for (const Case& c : cases) {
    for (const long long doubles : {64LL, 512LL, 4096LL}) {
      const long long bytes = doubles * 8;
      Recorder rec(2);
      sim::run_ping(c.machine, c.library, {doubles}, /*reps=*/200, &rec);
      const Stats s = compute_stats(rec);
      ASSERT_EQ(s.total_messages, 200);
      const double expected = sim::Transport(c.machine, c.library).exposed_overhead(bytes);
      EXPECT_NEAR(s.exposed_overhead_per_message(), expected, 0.01 * expected)
          << ironman::to_string(c.library) << " @ " << doubles << " doubles";
      // Fully overlapped: essentially none of the wire time is exposed.
      EXPECT_LT(s.wire.exposed_seconds, 0.01 * s.wire.wire_seconds + 1e-12)
          << ironman::to_string(c.library);
    }
  }
}

TEST(TraceStats, InFlightMessagesDoNotPoisonTotals) {
  // A trace cut while messages are still on the wire (posted, never
  // consumed): totals must count the posting but exclude the unconsumed
  // transmission from the wire decomposition, with no NaNs in the ratios.
  Recorder rec(2);
  for (int i = 0; i < 2; ++i) {
    const std::int64_t id =
        rec.record_message(1, /*transfer=*/0, 0, 1, 512, i * 1.0, i * 1.0 + 0.1, i * 1.0 + 0.3);
    rec.record_consumed(id, /*transfer=*/0, i * 1.0 + 0.4, /*wait_seconds=*/0.1,
                        /*wire_seconds=*/0.2);
  }
  // In flight: one with a computed arrival, one cut before arrival was known.
  rec.record_message(1, /*transfer=*/0, 0, 1, 512, 5.0, 5.1, 5.3);
  rec.record_message(1, /*transfer=*/0, 0, 1, 512, 6.0, 6.1, 0.0);

  ASSERT_EQ(rec.messages().size(), 4u);
  for (std::size_t i = 2; i < 4; ++i) {
    EXPECT_FALSE(rec.messages()[i].consumed);
    EXPECT_EQ(rec.messages()[i].t_consumed, 0.0);
  }

  const Stats s = compute_stats(rec);
  EXPECT_EQ(s.total_messages, 4);  // all postings counted...
  EXPECT_EQ(s.total_bytes, 4 * 512);
  EXPECT_DOUBLE_EQ(s.wire.wire_seconds, 2 * 0.2);  // ...but only consumed wire time
  EXPECT_DOUBLE_EQ(s.wire.exposed_seconds, 2 * 0.1);
  EXPECT_DOUBLE_EQ(s.wire.overlapped_seconds, 2 * 0.1);
  EXPECT_FALSE(std::isnan(s.overlap_fraction()));
  EXPECT_FALSE(std::isnan(s.exposed_overhead_per_message()));
  EXPECT_DOUBLE_EQ(s.overlap_fraction(), 0.5);
}

TEST(TraceChrome, SkipsDegenerateWireSlicesForInFlightMessages) {
  Recorder rec(2);
  // One consumed message, then in-flight records whose spans would be
  // zero-length (arrival == departure) or negative (arrival never set).
  const std::int64_t ok = rec.record_message(1, /*transfer=*/0, 0, 1, 256, 0.0, 0.1, 0.3);
  rec.record_consumed(ok, /*transfer=*/0, 0.4, 0.1, 0.2);
  rec.record_message(1, /*transfer=*/0, 0, 1, 256, 1.0, 1.1, 1.1);
  rec.record_message(1, /*transfer=*/0, 0, 1, 256, 2.0, 2.1, 0.0);

  const json::Value doc = json::parse(to_chrome_json(rec));
  long long wire_spans = 0;
  for (const json::Value& e : doc.at("traceEvents").array) {
    if (e.at("ph").string != "X" || e.at("pid").number != 2.0) continue;
    ++wire_spans;
    EXPECT_GT(e.at("dur").number, 0.0);
  }
  EXPECT_EQ(wire_spans, 1);  // only the consumed message renders
}

TEST(TraceChrome, SpanArgsCarryAttributionAndParseBack) {
  Recorder rec(2);
  rec.set_transfer_label(3, "U@east");
  rec.record_call(1, IronmanCall::kDN, Primitive::kPvmRecv, 1, /*transfer=*/3, 0, 1, 256,
                  /*t_begin=*/0.0, /*t_unblocked=*/0.2, /*t_end=*/0.25);
  const std::int64_t id = rec.record_message(1, /*transfer=*/3, 0, 1, 256, 0.0, 0.05, 0.2);
  rec.record_consumed(id, /*transfer=*/3, 0.2, 0.2, 0.15);

  const json::Value doc = json::parse(to_chrome_json(rec));
  bool saw_call = false, saw_wait = false, saw_wire = false;
  for (const json::Value& e : doc.at("traceEvents").array) {
    if (e.at("ph").string != "X") continue;
    const json::Value& args = e.at("args");
    EXPECT_EQ(args.at("transfer").number, 3.0);
    EXPECT_EQ(args.at("transfer_label").string, "U@east");
    EXPECT_EQ(args.at("bytes").number, 256.0);
    if (e.at("pid").number == 2.0) {
      saw_wire = true;
      EXPECT_EQ(args.at("consumed_us").number, 0.2 * 1e6);
    } else if (e.at("name").string.rfind("wait ", 0) == 0) {
      saw_wait = true;
      EXPECT_EQ(args.at("primitive").string, "pvm_recv");
    } else {
      saw_call = true;
      EXPECT_EQ(args.at("primitive").string, "pvm_recv");
      EXPECT_EQ(args.at("src").number, 0.0);
      EXPECT_EQ(args.at("dst").number, 1.0);
    }
  }
  EXPECT_TRUE(saw_call);
  EXPECT_TRUE(saw_wait);
  EXPECT_TRUE(saw_wire);
}

TEST(TraceStats, CsvHasStableTotalsAndRendersRoundTrip) {
  Recorder rec(16);
  const driver::Metrics m = run_traced("swm", "cc", rec);
  const std::string text = m.trace_stats->to_csv();

  const Csv csv = parse_csv(text);
  ASSERT_EQ(csv.headers, (std::vector<std::string>{"name", "value"}));
  auto value_of = [&csv](const std::string& name) -> std::string {
    for (std::size_t r = 0; r < csv.rows.size(); ++r) {
      if (csv.rows[r][0] == name) return csv.rows[r][1];
    }
    ADD_FAILURE() << "missing CSV key " << name;
    return "";
  };
  EXPECT_EQ(value_of("total_messages"), std::to_string(m.run.total_messages));
  EXPECT_EQ(value_of("total_bytes"), std::to_string(m.run.total_bytes));
  EXPECT_EQ(value_of("procs"), "16");

  // Re-rendering the parsed document reproduces the bytes exactly.
  CsvWriter rewriter(csv.headers);
  for (const auto& row : csv.rows) rewriter.add_row(row);
  EXPECT_EQ(rewriter.to_string(), text);
}

}  // namespace
}  // namespace zc::trace
