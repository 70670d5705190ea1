#include "src/driver/report.h"

#include <utility>

#include "src/analysis/blame.h"
#include "src/analysis/critpath.h"
#include "src/prof/procstat.h"
#include "src/support/diag.h"
#include "src/support/fingerprint.h"
#include "src/trace/stats.h"

namespace zc::driver {

namespace {

using json::Value;

constexpr int kMaxDecisionsPerPass = 2000;
constexpr int kMaxAttributionRows = 200;

Value options_json(const comm::OptOptions& o) {
  Value v = Value::make_object();
  v["remove_redundant"] = Value::make_bool(o.remove_redundant);
  v["combine"] = Value::make_bool(o.combine);
  v["pipeline"] = Value::make_bool(o.pipeline);
  v["heuristic"] = Value::make_str(comm::to_string(o.heuristic));
  v["inter_block"] = Value::make_bool(o.inter_block);
  return v;
}

Value trace_json(const trace::Stats& s) {
  Value v = Value::make_object();
  v["total_messages"] = Value::make_int(s.total_messages);
  v["total_bytes"] = Value::make_int(s.total_bytes);
  v["exposed_overhead_seconds"] = Value::make_num(s.exposed_overhead_seconds);
  v["wire_seconds"] = Value::make_num(s.wire.wire_seconds);
  v["exposed_wire_seconds"] = Value::make_num(s.wire.exposed_seconds);
  v["overlap_fraction"] = Value::make_num(s.overlap_fraction());
  v["compute_seconds"] = Value::make_num(s.compute_seconds);
  v["barrier_seconds"] = Value::make_num(s.barrier_seconds);
  v["barrier_count"] = Value::make_int(s.barrier_count);
  v["channels"] = Value::make_int(static_cast<long long>(s.channels.size()));
  v["dropped_events"] = Value::make_int(s.dropped_events);
  v["dropped_messages"] = Value::make_int(s.dropped_messages);
  return v;
}

}  // namespace

Value build_report(const Metrics& metrics, const Experiment& experiment, int procs,
                   const report::PassLog* log, const ReportOptions& ropts) {
  Value doc = Value::make_object();
  doc["schema"] = Value::make_str("zcomm-run-report");
  doc["schema_version"] = Value::make_int(6);
  doc["benchmark"] = Value::make_str(ropts.benchmark);
  doc["experiment"] = Value::make_str(experiment.name);
  doc["library"] = Value::make_str(ironman::to_string(experiment.library));
  doc["procs"] = Value::make_int(procs);
  doc["options"] = options_json(experiment.opts);

  doc["static_count"] = Value::make_int(metrics.static_count);
  doc["dynamic_count"] = Value::make_int(metrics.dynamic_count);
  doc["execution_time_seconds"] = Value::make_num(metrics.execution_time);
  doc["total_messages"] = Value::make_int(metrics.run.total_messages);
  doc["total_bytes"] = Value::make_int(metrics.run.total_bytes);
  doc["reduction_count"] = Value::make_int(metrics.run.reduction_count);

  // Who measured this: the host class the perf archive compares
  // like-for-like, plus the toolchain. Deterministic per machine/build —
  // no timestamps, so response streams and goldens stay bit-stable.
  Value host = fingerprint::current_host().to_json();
  host["build"] = fingerprint::current_build().to_json();
  doc["host"] = std::move(host);

  if (log != nullptr) doc["passes"] = log->to_json(kMaxDecisionsPerPass);
  if (metrics.trace_stats.has_value()) doc["trace"] = trace_json(*metrics.trace_stats);
  if (ropts.host_profiler != nullptr) {
    Value hp = ropts.host_profiler->to_json();
    hp["peak_rss_bytes"] = Value::make_int(prof::peak_rss_bytes());
    doc["host_profile"] = std::move(hp);
  }
  if (ropts.timeline != nullptr) doc["timeline"] = ropts.timeline->to_json();
  return doc;
}

Value run_report(const zir::Program& program, const Experiment& experiment,
                 sim::RunConfig config, const ReportOptions& ropts) {
  ReportOptions opts = ropts;
  if (opts.benchmark.empty()) opts.benchmark = program.name();

  Experiment e = experiment;
  report::PassLog log;
  e.opts.pass_log = &log;

  const int procs = config.procs;
  const trace::Recorder* recorder = config.recorder;
  // A timeline attached to the run lands in the report unless the caller
  // explicitly supplied a (possibly different) series to embed.
  if (opts.timeline == nullptr) opts.timeline = config.timeline;
  const Metrics m = run_experiment(program, e, std::move(config));
  Value doc = build_report(m, e, procs, &log, opts);
  if (recorder != nullptr) attach_attribution(doc, *recorder, program, m.plan);
  return doc;
}

void attach_attribution(json::Value& doc, const trace::Recorder& recorder,
                        const zir::Program& program, const comm::CommPlan& plan) {
  doc["blame"] = analysis::compute_blame(recorder, program, plan).to_json(kMaxAttributionRows);
  doc["critical_path"] =
      analysis::compute_critical_path(recorder, program, plan).to_json(kMaxAttributionRows);
}

json::Value diff_run_reports(const json::Value& before, const json::Value& after,
                             double time_tolerance,
                             const std::vector<std::string>& strict_fields) {
  const auto num_field = [](const Value& doc, const std::string& key) {
    const Value& v = doc.at(key);
    if (!v.is_number()) throw Error("report field '" + key + "' is not a number");
    return v.number;
  };
  const auto label = [](const Value& doc) {
    std::string s;
    if (doc.has("benchmark")) s = doc.at("benchmark").string;
    if (doc.has("experiment")) {
      if (!s.empty()) s += "/";
      s += doc.at("experiment").string;
    }
    return s;
  };

  Value diff = Value::make_object();
  diff["before"] = Value::make_str(label(before));
  diff["after"] = Value::make_str(label(after));
  bool regressed = false;

  Value fields = Value::make_array();
  const auto add_field = [&](const std::string& name, double allowed_growth) {
    const double b = num_field(before, name);
    const double a = num_field(after, name);
    const bool bad = a > b * (1.0 + allowed_growth);
    Value f = Value::make_object();
    f["name"] = Value::make_str(name);
    f["before"] = Value::make_num(b);
    f["after"] = Value::make_num(a);
    f["delta"] = Value::make_num(a - b);
    f["regressed"] = Value::make_bool(bad);
    fields.push_back(std::move(f));
    regressed = regressed || bad;
  };
  add_field("static_count", 0.0);
  add_field("dynamic_count", 0.0);
  add_field("execution_time_seconds", time_tolerance);
  diff["fields"] = std::move(fields);

  Value strict = Value::make_array();
  for (const std::string& name : strict_fields) {
    Value f = Value::make_object();
    f["name"] = Value::make_str(name);
    if (!before.has(name) || !after.has(name)) {
      // One side lacks the field (e.g. a strict trace metric against an
      // untraced report): surface the asymmetry instead of failing the diff.
      f["comparable"] = Value::make_bool(false);
      f["improved"] = Value::make_bool(false);
    } else {
      const double b = num_field(before, name);
      const double a = num_field(after, name);
      const bool ok = a < b;
      f["comparable"] = Value::make_bool(true);
      f["before"] = Value::make_num(b);
      f["after"] = Value::make_num(a);
      f["improved"] = Value::make_bool(ok);
      regressed = regressed || !ok;
    }
    strict.push_back(std::move(f));
  }
  diff["strict"] = std::move(strict);

  // Optional blocks may legitimately differ between runs (one traced or
  // profiled, the other not). Presence asymmetry is reported, never treated
  // as a regression or a structural error. "metrics" occurs only in v5 and
  // older reports.
  Value blocks = Value::make_array();
  for (const char* name : {"passes", "trace", "blame", "critical_path", "metrics",
                           "host_profile", "timeline", "host"}) {
    const bool in_before = before.has(name);
    const bool in_after = after.has(name);
    if (!in_before && !in_after) continue;
    Value b = Value::make_object();
    b["name"] = Value::make_str(name);
    b["before"] = Value::make_bool(in_before);
    b["after"] = Value::make_bool(in_after);
    blocks.push_back(std::move(b));
  }
  diff["optional_blocks"] = std::move(blocks);
  diff["regressed"] = Value::make_bool(regressed);
  return diff;
}

}  // namespace zc::driver
