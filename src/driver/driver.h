// One-call façade tying the pipeline together: parse mini-ZPL, plan
// communication at an optimization level, run on a simulated machine, and
// report the paper's metrics (static count, dynamic count, execution time).
//
// The Experiment type reproduces the paper's Figure 9 key:
//   baseline             message vectorization
//   rr                   + redundant communication removal
//   cc                   + communication combination
//   pl                   + communication pipelining
//   pl with shmem        pl using shmem_put
//   pl with max latency  pl with shmem, combining for maximum latency hiding
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/comm/optimizer.h"
#include "src/sim/engine.h"
#include "src/trace/stats.h"
#include "src/zir/program.h"

namespace zc::driver {

struct Experiment {
  std::string name;
  comm::OptOptions opts;
  ironman::CommLibrary library = ironman::CommLibrary::kPVM;
};

/// The six experiments of the paper's Figure 9 / appendix tables, on the T3D.
std::vector<Experiment> paper_experiments();

/// Looks up a paper experiment by name ("baseline", "rr", "cc", "pl",
/// "pl with shmem", "pl with max latency").
std::optional<Experiment> find_experiment(std::string_view name);

/// Checked lookup: the named paper experiment; throws zc::Error on an
/// unknown name.
Experiment experiment(std::string_view name);

/// A compiled program: the IR plus its communication plan.
struct Compiled {
  zir::Program program;
  comm::CommPlan plan;

  [[nodiscard]] int static_count() const { return plan.static_count(); }
};

/// Parses (throwing on errors), plans communication. `source` is mini-ZPL.
Compiled compile(std::string_view source, const comm::OptOptions& opts);

/// Plans communication for an already-built program.
Compiled compile(zir::Program program, const comm::OptOptions& opts);

/// The paper's three reported metrics for one run.
struct Metrics {
  int static_count = 0;
  long long dynamic_count = 0;
  double execution_time = 0.0;  ///< simulated seconds
  sim::RunResult run;           ///< full detail

  /// The communication plan the run executed — kept so callers can join
  /// trace records back to plan structure (per-transfer blame, critical
  /// path, differential attribution; see src/analysis).
  comm::CommPlan plan;

  /// Trace analytics, present iff the run was traced (config.recorder set):
  /// per-call wait/CPU split, exposed vs. overlapped wire time, channel
  /// traffic, message-size histogram. See src/trace/stats.h.
  std::optional<trace::Stats> trace_stats;
};

/// Compiles `program` under `experiment` and runs it on the T3D (or the
/// machine in `config`, which must carry a library consistent with it —
/// the experiment's library overrides config.library). Attach a
/// trace::Recorder to `config.recorder` to trace the run; Metrics then
/// carries the computed trace::Stats.
Metrics run_experiment(const zir::Program& program, const Experiment& experiment,
                       sim::RunConfig config);

/// Like run_experiment, but executes an already-computed plan (e.g. one
/// shared out of the sweep engine's plan cache) instead of planning here.
/// `plan` must be the product of plan_communication(program,
/// experiment.opts) — the caller owns that contract. Metrics carries its own
/// copy of the plan, exactly as run_experiment's does.
Metrics run_planned(const zir::Program& program, const comm::CommPlan& plan,
                    const Experiment& experiment, sim::RunConfig config);

/// Convenience used by golden tests: run `source` at an optimization level
/// on `procs` processors and return metrics.
Metrics run_source(std::string_view source, const Experiment& experiment, int procs,
                   const std::map<std::string, long long>& config_overrides = {});

}  // namespace zc::driver
