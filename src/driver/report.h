// Machine-readable run reports: one JSON document per (program, experiment)
// run, carrying everything the paper's Tables 1-4 / Figure 8 report — the
// static and dynamic communication counts and execution time — plus the
// optimizer's pass-provenance decisions (src/report/passlog.h), and trace
// analytics when the run was traced. Every field describes this one run, so
// two runs of the same program and experiment give byte-identical reports.
// `report_diff` (examples/report_diff.cpp) compares two such documents and
// flags count or time regressions.
//
// Schema (validated by tests/report_schema_test.cpp):
//   schema               "zcomm-run-report"
//   schema_version       6
//   benchmark            caller's label (defaults to the program name)
//   program, experiment, library, procs
//   options              {remove_redundant, combine, pipeline, heuristic,
//                         inter_block}
//   static_count, dynamic_count, execution_time_seconds
//   total_messages, total_bytes, reduction_count
//   host                 the host fingerprint (class, cores, cpu_model,
//                        page_size, sanitize) and
//                        a nested build fingerprint — the identity the perf
//                        archive (src/archive) gates like-for-like; no
//                        timestamps, so reports stay deterministic
//   passes               PassLog::to_json() (summary + per-pass decisions,
//                        at most 2000 per pass); run_report always has it
//   trace                present iff the run was traced
//   blame                present iff traced: per-transfer attribution
//                        (analysis::BlameReport::to_json, at most 200 rows)
//   critical_path        present iff traced: longest dependence chain and
//                        per-transfer slack (analysis::CriticalPathReport)
//   host_profile         present iff ReportOptions::host_profiler was set:
//                        the toolchain's own span tree (prof::Profiler
//                        ::to_json) plus peak_rss_bytes — host cost, not
//                        simulated time
//   timeline             present iff ReportOptions::timeline was set: the
//                        run's windowed utilization series
//                        (tseries::SimSeries::to_json)
//
// Version history: v1 had everything above except blame / critical_path,
// plus a "metrics" block; v2 added blame / critical_path; v3 added the
// optional host_profile block; v4 added the optional timeline block; v5
// added the optional host fingerprint block; v6 dropped "metrics", a
// snapshot of a process-wide registry that summed over every earlier run in
// the process, and made "host" unconditional.
// Reports built without the corresponding producer are byte-identical to the
// prior version apart from the version number, and diffs tolerate one-sided
// presence of every optional block (so v5 reports with "metrics" diff
// cleanly against v6).
#pragma once

#include <vector>

#include "src/driver/driver.h"
#include "src/prof/prof.h"
#include "src/report/passlog.h"
#include "src/support/json.h"
#include "src/trace/recorder.h"
#include "src/tseries/tseries.h"

namespace zc::driver {

struct ReportOptions {
  std::string benchmark;  ///< label; empty = the program's name
  /// When set, the report gains a "host_profile" block with this profiler's
  /// aggregated span tree (snapshotted at build time) and the process's peak
  /// RSS. Null (the default) leaves the report bit-identical to unprofiled.
  const prof::Profiler* host_profiler = nullptr;
  /// When set, the report gains a "timeline" block with this series'
  /// windowed utilization data (the sink the run fed via
  /// sim::RunConfig::timeline). Null (the default) omits the block.
  const tseries::SimSeries* timeline = nullptr;
};

/// Assembles the report for an already-executed run. `log` may be null
/// (the "passes" block is omitted); `procs` is the processor count the run
/// used (RunConfig is consumed by run_experiment, so the caller passes it).
json::Value build_report(const Metrics& metrics, const Experiment& experiment, int procs,
                         const report::PassLog* log, const ReportOptions& ropts = {});

/// Runs `experiment` on `program` with a PassLog attached and assembles the
/// report. config.recorder, when set, adds the "trace", "blame" and
/// "critical_path" blocks.
json::Value run_report(const zir::Program& program, const Experiment& experiment,
                       sim::RunConfig config, const ReportOptions& ropts = {});

/// Attaches the "blame" and "critical_path" blocks to an assembled report
/// from a traced run's recorder (exposed for callers that hold their own
/// recorder, e.g. comm_explorer).
void attach_attribution(json::Value& doc, const trace::Recorder& recorder,
                        const zir::Program& program, const comm::CommPlan& plan);

/// Machine-readable comparison of two run reports — the same content the
/// report_diff tool prints: per-field before/after/delta with a regression
/// verdict (counts must not grow; execution time may grow by up to
/// `time_tolerance`), plus optional strictly-must-improve fields. Returns
///   {before, after, regressed, fields: [{name, before, after, delta,
///    regressed}...], strict: [{name, before, after, improved}...]}.
json::Value diff_run_reports(const json::Value& before, const json::Value& after,
                             double time_tolerance = 0.05,
                             const std::vector<std::string>& strict_fields = {});

}  // namespace zc::driver
