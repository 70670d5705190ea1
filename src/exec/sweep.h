// The sweep engine: runs a grid of independent pipeline configurations
// (program x experiment x procs x overrides) on `jobs` threads, memoizing
// communication plans in a PlanCache so each distinct (program, options,
// machine) is optimized exactly once.
//
// Determinism contract (what the stress test pins):
//   - Results are collected into a vector slotted by submission index —
//     result order never depends on scheduling.
//   - Each task gets its own sim::Engine, Transport, and (if tracing) its
//     own trace::Recorder; the only cross-task shared state is deeply const:
//     the zir::Program, the cached CommPlans, and the machine model value.
//   - options.jobs == 1 executes inline on the calling thread in submission
//     order — the exact serial path — and every jobs > 1 schedule must
//     produce bit-identical checksums, plans, and trace Stats against it.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/driver/driver.h"
#include "src/exec/plan_cache.h"

namespace zc::prof {
class Profiler;
}  // namespace zc::prof

namespace zc::exec {

/// One grid point: everything one pipeline run needs.
struct SweepItem {
  std::string label;  ///< caller's row identity (e.g. "tomcatv/pl/p64")
  /// The parsed program, shared across items (parse once per source — the
  /// scheduler never parses).
  std::shared_ptr<const zir::Program> program;
  driver::Experiment experiment;
  int procs = 64;
  std::map<std::string, long long> config_overrides;
  machine::MachineModel machine = machine::t3d_model();
  bool trace = false;  ///< attach a per-run Recorder, yielding trace_stats
};

/// One grid point's outcome, in the submission slot of its SweepItem.
struct SweepResult {
  bool ok = false;
  std::string error;  ///< what() of the task's exception, when !ok

  driver::Metrics metrics;  ///< run detail (valid when ok)
  /// The shared cached plan this run executed (also copied inside
  /// metrics.plan, as for a serial driver run).
  std::shared_ptr<const comm::CommPlan> plan;
  double wall_seconds = 0.0;  ///< host wall time of this task's plan+run
};

struct SweepOptions {
  /// Threads running items (the caller + jobs-1 workers). 1 = inline
  /// serial. 0 = hardware_jobs(). Negative throws zc::Error.
  int jobs = 1;
  /// Plan memoization cache; nullptr = a cache local to the run_sweep call.
  PlanCache* plan_cache = nullptr;
  /// Optional host profiler: each task attaches to it for its duration so
  /// worker spans land in the merged profile tree.
  prof::Profiler* host_profiler = nullptr;
};

/// The machine's hardware concurrency, clamped to >= 1 — what jobs == 0
/// resolves to.
[[nodiscard]] int hardware_jobs();

/// Runs every item and returns results in submission order. Item failures
/// are reported per-result (ok = false), never thrown; only a negative
/// jobs count or a failure to start a thread throws.
std::vector<SweepResult> run_sweep(const std::vector<SweepItem>& items,
                                   const SweepOptions& options = {});

/// Order-independent bit-fold of a run's numeric outputs (checksums,
/// scalars, counters, elapsed time) — equal iff the runs are bit-identical
/// in every compared field. The sweep determinism tests compare these.
std::uint64_t result_checksum(const sim::RunResult& result);

}  // namespace zc::exec
