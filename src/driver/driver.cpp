#include "src/driver/driver.h"

#include <chrono>

#include "src/parser/parser.h"
#include "src/prof/procstat.h"
#include "src/prof/prof.h"
#include "src/support/check.h"
#include "src/support/diag.h"
#include "src/support/metrics.h"

namespace zc::driver {

std::vector<Experiment> paper_experiments() {
  using comm::CombineHeuristic;
  using comm::OptLevel;
  using comm::OptOptions;
  using ironman::CommLibrary;

  std::vector<Experiment> exps;
  exps.push_back({"baseline", OptOptions::for_level(OptLevel::kBaseline), CommLibrary::kPVM});
  exps.push_back({"rr", OptOptions::for_level(OptLevel::kRR), CommLibrary::kPVM});
  exps.push_back({"cc", OptOptions::for_level(OptLevel::kCC), CommLibrary::kPVM});
  exps.push_back({"pl", OptOptions::for_level(OptLevel::kPL), CommLibrary::kPVM});
  exps.push_back({"pl with shmem", OptOptions::for_level(OptLevel::kPL), CommLibrary::kSHMEM});
  Experiment maxlat{"pl with max latency", OptOptions::for_level(OptLevel::kPL),
                    CommLibrary::kSHMEM};
  maxlat.opts.heuristic = CombineHeuristic::kMaxLatency;
  exps.push_back(std::move(maxlat));
  return exps;
}

std::optional<Experiment> find_experiment(std::string_view name) {
  for (Experiment& e : paper_experiments()) {
    if (e.name == name) return std::move(e);
  }
  return std::nullopt;
}

Experiment experiment(std::string_view name) {
  std::optional<Experiment> e = find_experiment(name);
  if (!e.has_value()) throw Error("unknown experiment '" + std::string(name) + "'");
  return std::move(*e);
}

Compiled compile(std::string_view source, const comm::OptOptions& opts) {
  return compile(parser::parse_program(source), opts);
}

Compiled compile(zir::Program program, const comm::OptOptions& opts) {
  Compiled c{std::move(program), {}};
  c.plan = comm::plan_communication(c.program, opts);
  return c;
}

Metrics run_experiment(const zir::Program& program, const Experiment& experiment,
                       sim::RunConfig config) {
  comm::CommPlan plan = comm::plan_communication(program, experiment.opts);
  return run_planned(program, plan, experiment, std::move(config));
}

Metrics run_planned(const zir::Program& program, const comm::CommPlan& plan,
                    const Experiment& experiment, sim::RunConfig config) {
  ZC_PROF_SPAN("driver/run_experiment");
  const auto wall_start = std::chrono::steady_clock::now();
  config.library = experiment.library;

  Metrics m;
  m.static_count = plan.static_count();
  trace::Recorder* recorder = config.recorder;
  m.run = sim::run_program(program, plan, std::move(config));
  m.dynamic_count = m.run.dynamic_count;
  m.execution_time = m.run.elapsed_seconds;
  m.plan = plan;
  if (recorder != nullptr) m.trace_stats = trace::compute_stats(*recorder);

  auto& reg = metrics::Registry::current();
  reg.count("driver.experiments");
  reg.gauge("driver.last_static_count", static_cast<double>(m.static_count));
  reg.gauge("driver.last_dynamic_count", static_cast<double>(m.dynamic_count));
  reg.gauge("driver.last_execution_seconds", m.execution_time);
  // Host-side cost of the run itself (the simulated counters above measure
  // the virtual machine): end-to-end wall time plus the process's peak RSS,
  // so --metrics shows what this toolchain costs the machine it runs on.
  reg.gauge("process.last_run_wall_seconds",
            std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
                .count());
  reg.gauge("process.peak_rss_bytes", static_cast<double>(prof::peak_rss_bytes()));
  return m;
}

Metrics run_source(std::string_view source, const Experiment& experiment, int procs,
                   const std::map<std::string, long long>& config_overrides) {
  const zir::Program program = parser::parse_program(source);
  sim::RunConfig cfg;
  cfg.procs = procs;
  cfg.config_overrides = config_overrides;
  return run_experiment(program, experiment, std::move(cfg));
}

}  // namespace zc::driver
