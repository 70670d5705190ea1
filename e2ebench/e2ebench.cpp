// End-to-end benchmark of the zcomm pipeline — source text -> parse -> plan
// -> simulate -> analyse -> report — on the paper's four table programs,
// with a per-layer split of where the host time went.
//
//   e2ebench --workload W --seed N --seconds S --trace 0|1 --expected FILE
//            [--scale bench|test] [--git-sha SHA]
//   e2ebench --write-expected FILE [--scale bench|test]
//
// Workloads (README.md records why each was chosen):
//   tables_t3d   4 programs x the 6 Figure-9 experiments at 64 procs,
//                through exec::run_sweep (jobs = 1)
//   mesh_4096    4 programs x pl at 4096 procs, through exec::run_sweep
//   attribution  4 programs x {baseline, pl} at 64 procs, each run with a
//                trace::Recorder, then stats, blame, critical path, the
//                pair's diff_blame and a full run report dumped to JSON
//
// --trace 0 measures the end-to-end metrics over rounds until --seconds
// is spent: each round sets up kSetupReps times (parse every program, plan
// every cell through a fresh PlanCache), then runs one pass over the grid of
// cells in an order drawn from --seed (the seed changes nothing else).
// setup_s is the median set-up, grid_s the sum over cells of each cell's
// median, cell_s_p50 the median of those medians.
//
// --trace 1 repeats the set-up and grid with one prof::Profiler per program
// attached around every public call (spans named bench/* below, plus the
// program's own spans), alternating with untraced passes, and prints the
// per-layer self times in raw seconds. Layer rows must add up to the
// traced grid time within kReconcileTolerance.
//
// Every cell of every pass is checked against the expected-results file,
// which --write-expected generates with the kLockstep core (the reference
// interpreter), not the event core being measured. Any mismatch or error
// makes ok_frac < 1 and the exit code 1. The last stdout line is one JSON
// object {correct, attempted, failed, metrics}.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/blame.h"
#include "src/analysis/critpath.h"
#include "src/analysis/diff.h"
#include "src/comm/optimizer.h"
#include "src/driver/driver.h"
#include "src/driver/report.h"
#include "src/exec/plan_cache.h"
#include "src/exec/sweep.h"
#include "src/parser/parser.h"
#include "src/prof/procstat.h"
#include "src/prof/prof.h"
#include "src/programs/programs.h"
#include "src/sim/engine.h"
#include "src/support/fingerprint.h"
#include "src/support/json.h"
#include "src/support/metrics.h"
#include "src/trace/recorder.h"
#include "src/trace/stats.h"

namespace zc {
namespace {

using Clock = std::chrono::steady_clock;

// Set-up is milliseconds, so one cold shot does not repeat within a tenth.
// Each run sets up this many times before its first pass; the untraced run
// also re-measures set-up between cells.
constexpr int kSetupReps = 11;
// Traced layer rows must cover the traced grid time to within this share.
constexpr double kReconcileTolerance = 0.02;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// The host is shared, and its speed for this code drifts by 20-40% over
// minutes as neighbours come and go (one mesh_4096 pass took 12.6 s, and
// 17-21 s twenty minutes later), wider than any bound a regression check
// can use. So the untraced run also times a calibration kernel: fixed work
// of the benchmark's own, independent of the repo's code, with the three
// kinds of work the workloads do. It runs between cells, and the end-to-end
// times are scaled by kCalibrationSeconds over its median time in the run:
// they read as seconds on a host that runs the kernel in
// kCalibrationSeconds. The raw seconds are printed beside them.
constexpr double kCalibrationSeconds = 0.015;
// Share of each cell's time spent after it re-measuring set-up and
// calibrating.
constexpr double kProbeShare = 0.1;

volatile double calibration_sink = 0.0;

/// The calibration kernel. Its arrays are allocated once, before the first
/// set-up, and never freed: freeing large blocks would raise glibc's mmap
/// threshold under the program and change how it allocates. They add a
/// constant 12 MiB to peak_rss_mb.
class Calibration {
 public:
  double seconds() {
    const auto t0 = Clock::now();
    std::uint64_t x = 88172645463325252ULL;
    const auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    // Branchy, allocating work on a small working set, as in parsing and
    // planning.
    std::map<std::string, double> table;
    for (int i = 0; i < 8000; ++i) table[std::to_string(next() % 4096)] += i;
    // A stencil over two 2 MiB arrays, as in the simulator's statements.
    std::fill(u_.begin(), u_.end(), 1.0);
    for (int sweep = 0; sweep < 6; ++sweep) {
      for (std::size_t i = 1; i + 1 < u_.size(); ++i) {
        v_[i] = 0.25 * (u_[i - 1] + u_[i + 1]) + 0.5 * u_[i];
      }
      std::swap(u_, v_);
    }
    // Dependent loads at scattered addresses over 8 MiB, as in
    // per-processor bookkeeping on a large mesh.
    std::uint32_t at = 0;
    for (int i = 0; i < 60000; ++i) {
      at = (at * 1103515245u + 12345u + hops_[at]) & static_cast<std::uint32_t>(hops_.size() - 1);
    }
    calibration_sink = static_cast<double>(table.size()) + u_[u_.size() / 2] + at;
    return since(t0);
  }

 private:
  std::vector<double> u_ = std::vector<double>(std::size_t{1} << 18, 1.0);
  std::vector<double> v_ = std::vector<double>(std::size_t{1} << 18, 0.0);
  std::vector<std::uint32_t> hops_ = std::vector<std::uint32_t>(std::size_t{1} << 21, 1u);
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t bits_of(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

// ---------------------------------------------------------------------------
// Workloads.

struct Cell {
  int program = 0;  ///< index into programs::benchmark_suite()
  driver::Experiment experiment;
  int procs = 64;
  int canonical = 0;  ///< position before the seed's permutation

  [[nodiscard]] const programs::BenchmarkInfo& info() const {
    return programs::benchmark_suite()[static_cast<std::size_t>(program)];
  }
  [[nodiscard]] std::string label() const {
    return info().name + "/" + experiment.name + "/p" + std::to_string(procs);
  }
  /// Expected-results key.
  [[nodiscard]] std::string key() const {
    return info().name + "\t" + experiment.name + "\t" + std::to_string(procs);
  }
};

struct Workload {
  bool attribution = false;  ///< traced engine + analysis, not the sweep path
  std::vector<Cell> cells;
};

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"tables_t3d", "mesh_4096", "attribution"};
  return names;
}

/// The problem size: bench scale (the paper's spatial sizes with fewer
/// iterations, as the bench/ harnesses run them) or the programs' reduced
/// test configs (the self-test).
std::map<std::string, long long> configs_for(const programs::BenchmarkInfo& info, bool test) {
  if (test) return info.test_configs;
  static const std::map<std::string, std::map<std::string, long long>> bench = {
      {"tomcatv", {{"n", 128}, {"iters", 30}}},
      {"swm", {{"n", 512}, {"iters", 6}}},
      {"simple", {{"n", 256}, {"iters", 8}}},
      {"sp", {{"n", 16}, {"iters", 30}}},
  };
  return bench.at(info.name);
}

Workload make_workload(const std::string& name, bool test) {
  Workload w;
  const int programs = static_cast<int>(programs::benchmark_suite().size());
  const auto add = [&](const std::string& experiment, int procs) {
    for (int p = 0; p < programs; ++p) {
      const int canonical = static_cast<int>(w.cells.size());
      w.cells.push_back({p, *driver::find_experiment(experiment), procs, canonical});
    }
  };
  if (name == "tables_t3d") {
    for (const driver::Experiment& e : driver::paper_experiments()) add(e.name, 64);
  } else if (name == "mesh_4096") {
    // Test-scale problems are too small to split over 4096 processors.
    add("pl", test ? 256 : 4096);
  } else if (name == "attribution") {
    w.attribution = true;
    add("baseline", 64);
    add("pl", 64);
  } else {
    throw Error("unknown workload '" + name + "' (tables_t3d, mesh_4096, attribution)");
  }
  return w;
}

/// Fisher-Yates with a fixed generator, so a seed gives the same order on
/// every standard library.
void permute(std::vector<Cell>& cells, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  for (std::size_t i = cells.size(); i > 1; --i) {
    std::swap(cells[i - 1], cells[rng() % i]);
  }
}

// ---------------------------------------------------------------------------
// Expected results.

struct Expected {
  int static_count = 0;
  long long dynamic_count = 0;
  long long messages = 0;
  long long bytes = 0;
  std::uint64_t simulated_bits = 0;  ///< RunResult::elapsed_seconds, bit for bit
  std::uint64_t checksum = 0;        ///< exec::result_checksum

  bool operator==(const Expected&) const = default;
};

Expected expected_of(const comm::CommPlan& plan, const sim::RunResult& r) {
  return {plan.static_count(), r.dynamic_count,          r.total_messages,
          r.total_bytes,       bits_of(r.elapsed_seconds), exec::result_checksum(r)};
}

std::string scale_line(bool test) {
  return std::string("# scale=") + (test ? "test" : "bench");
}

using Oracle = std::map<std::string, Expected>;

Oracle load_oracle(const std::string& path, bool test) {
  std::ifstream in(path);
  if (!in) throw Error("cannot read expected results '" + path + "'");
  Oracle oracle;
  std::string line;
  bool scale_ok = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      scale_ok = scale_ok || line == scale_line(test);
      continue;
    }
    std::vector<std::string> f;
    std::stringstream ss(line);
    for (std::string field; std::getline(ss, field, '\t');) f.push_back(field);
    if (f.size() != 9) throw Error("bad expected-results line: " + line);
    Expected e;
    e.static_count = std::stoi(f[3]);
    e.dynamic_count = std::stoll(f[4]);
    e.messages = std::stoll(f[5]);
    e.bytes = std::stoll(f[6]);
    e.simulated_bits = std::stoull(f[7], nullptr, 16);
    e.checksum = std::stoull(f[8], nullptr, 16);
    oracle[f[0] + "\t" + f[1] + "\t" + f[2]] = e;
  }
  if (!scale_ok) throw Error("'" + path + "' lacks the line '" + scale_line(test) + "'");
  return oracle;
}

/// Runs every distinct cell of every workload on the kLockstep core and
/// writes the results file the benchmark checks against.
int write_expected(const std::string& path, bool test) {
  std::map<std::string, Cell> cells;
  for (const std::string& name : workload_names()) {
    for (const Cell& c : make_workload(name, test).cells) cells.emplace(c.key(), c);
  }
  std::ostringstream out;
  out << "# Expected results of every e2ebench cell, from the kLockstep core.\n"
      << scale_line(test) << "\n"
      << "# program\texperiment\tprocs\tstatic\tdynamic\tmessages\tbytes"
         "\tsimulated_s_bits\tresult_checksum\n";
  for (const auto& [key, cell] : cells) {
    std::cerr << "lockstep " << cell.label() << "\n";
    const zir::Program program = parser::parse_program(cell.info().source);
    const comm::CommPlan plan = comm::plan_communication(program, cell.experiment.opts);
    sim::RunConfig cfg;
    cfg.procs = cell.procs;
    cfg.library = cell.experiment.library;
    cfg.engine = sim::EngineKind::kLockstep;
    cfg.config_overrides = configs_for(cell.info(), test);
    sim::Engine engine(program, plan, std::move(cfg));
    const Expected e = expected_of(plan, engine.run());
    char hex[64];
    std::snprintf(hex, sizeof hex, "%016" PRIx64 "\t%016" PRIx64, e.simulated_bits, e.checksum);
    out << key << "\t" << e.static_count << "\t" << e.dynamic_count << "\t" << e.messages << "\t"
        << e.bytes << "\t" << hex << "\n";
  }
  std::ofstream file(path);
  file << out.str();
  if (!file.flush()) throw Error("cannot write '" + path + "'");
  return 0;
}

// ---------------------------------------------------------------------------
// One pass over the grid.

/// Layer counts of one cell — deterministic, the same on every pass.
struct Counts {
  long long transfers = 0;
  long long live_transfers = 0;
  long long static_count = 0;
  long long pl_window_sum = 0;
  long long dynamic_count = 0;
  long long messages = 0;
  long long bytes = 0;
  long long dropped_events = 0;
  long long report_bytes = 0;
  double simulated_s = 0.0;
  long long proc_iters = 0;  ///< procs x iters, the us_per_proc_iter base

  void add(const Counts& o) {
    transfers += o.transfers;
    live_transfers += o.live_transfers;
    static_count += o.static_count;
    pl_window_sum += o.pl_window_sum;
    dynamic_count += o.dynamic_count;
    messages += o.messages;
    bytes += o.bytes;
    dropped_events += o.dropped_events;
    report_bytes += o.report_bytes;
    simulated_s += o.simulated_s;
    proc_iters += o.proc_iters;
  }
};

struct Outcome {
  bool ok = false;
  double seconds = 0.0;         ///< host wall time of the cell's public calls
  double sweep_overhead = 0.0;  ///< run_sweep call minus its task's wall_seconds
  Counts counts;
};

struct PassResult {
  double grid_s = 0.0;  ///< sum of the cells' seconds
  std::vector<Outcome> cells;  ///< in the workload's (permuted) cell order
};

/// What a set-up leaves for the cells to run.
struct Setup {
  std::vector<std::shared_ptr<const zir::Program>> programs;  ///< by program index
  std::vector<std::shared_ptr<const comm::CommPlan>> plans;   ///< by cell
  std::unique_ptr<exec::PlanCache> cache;
  double seconds = 0.0;
};

/// State shared by every pass: the workload, the expected results and the
/// set-up.
struct Bench {
  Workload workload;
  bool test = false;
  Oracle oracle;
  Setup setup;
  std::vector<std::vector<exec::SweepItem>> items;  ///< one-item grid per cell (sweep workloads)
};

Counts counts_of(const Cell& cell, const comm::CommPlan& plan, const sim::RunResult& r,
                 bool test) {
  Counts c;
  c.transfers = plan.total_transfer_count();
  c.static_count = plan.static_count();
  for (const comm::BlockPlan& b : plan.blocks) {
    c.live_transfers += b.live_transfer_count();
    for (const comm::CommGroup& g : b.groups) c.pl_window_sum += g.window();
  }
  c.dynamic_count = r.dynamic_count;
  c.messages = r.total_messages;
  c.bytes = r.total_bytes;
  c.simulated_s = r.elapsed_seconds;
  c.proc_iters = static_cast<long long>(cell.procs) * configs_for(cell.info(), test).at("iters");
  return c;
}

bool matches(const Bench& b, const Cell& cell, const comm::CommPlan& plan,
             const sim::RunResult& r) {
  const auto it = b.oracle.find(cell.key());
  return it != b.oracle.end() && it->second == expected_of(plan, r);
}

/// Parses every program and plans every cell through a fresh cache — what
/// a user pays before the first cell runs. `profilers` (one per program)
/// is null when untraced.
Setup set_up(const Workload& w, std::vector<prof::Profiler>* profilers) {
  const auto t0 = Clock::now();
  Setup s;
  s.cache = std::make_unique<exec::PlanCache>();
  s.programs.resize(programs::benchmark_suite().size());
  for (const Cell& cell : w.cells) {
    auto& program = s.programs[static_cast<std::size_t>(cell.program)];
    if (program != nullptr) continue;
    const prof::Attach attach(profilers != nullptr ? &(*profilers)[cell.program] : nullptr);
    const prof::Span span("bench/parse");
    program = std::make_shared<const zir::Program>(parser::parse_program(cell.info().source));
  }
  const std::string machine = machine::t3d_model().name;
  for (const Cell& cell : w.cells) {
    const prof::Attach attach(profilers != nullptr ? &(*profilers)[cell.program] : nullptr);
    const prof::Span span("bench/plan");
    s.plans.push_back(s.cache->get_or_plan(*s.programs[static_cast<std::size_t>(cell.program)],
                                           cell.experiment.opts, machine));
  }
  s.seconds = since(t0);
  return s;
}

void build_items(Bench& b) {
  b.items.clear();
  for (const Cell& cell : b.workload.cells) {
    exec::SweepItem item;
    item.label = cell.label();
    item.program = b.setup.programs[static_cast<std::size_t>(cell.program)];
    item.experiment = cell.experiment;
    item.procs = cell.procs;
    item.config_overrides = configs_for(cell.info(), b.test);
    b.items.push_back({std::move(item)});
  }
}

Outcome sweep_outcome(const Bench& b, const Cell& cell, const exec::SweepResult& r) {
  Outcome o;
  if (!r.ok) {
    std::cerr << cell.label() << ": " << r.error << "\n";
    return o;
  }
  o.ok = matches(b, cell, *r.plan, r.metrics.run);
  o.counts = counts_of(cell, *r.plan, r.metrics.run, b.test);
  return o;
}

/// Sweep workloads: each cell is its own run_sweep call, so that traced,
/// its spans land in its program's profiler, and untraced passes time the
/// same calls.
PassResult sweep_pass(const Bench& b, std::vector<prof::Profiler>* profilers,
                      const std::function<void(double)>& after_cell) {
  exec::SweepOptions options;
  options.jobs = 1;
  options.plan_cache = b.setup.cache.get();
  PassResult pass;
  for (std::size_t i = 0; i < b.items.size(); ++i) {
    const Cell& cell = b.workload.cells[i];
    const auto c0 = Clock::now();
    exec::SweepResult r;
    {
      const prof::Attach attach(profilers != nullptr ? &(*profilers)[cell.program] : nullptr);
      const prof::Span span("bench/sweep");
      r = std::move(exec::run_sweep(b.items[i], options).front());
    }
    const double seconds = since(c0);
    Outcome o = sweep_outcome(b, cell, r);
    o.seconds = seconds;
    o.sweep_overhead = seconds - r.wall_seconds;
    pass.grid_s += seconds;
    pass.cells.push_back(o);
    if (after_cell) after_cell(seconds);
  }
  return pass;
}

/// One attribution cell: a traced run, then what a user reads from it.
/// `pending` holds the first finished blame of each program's pair until
/// the second arrives and the pair is diffed (baseline -> pl).
Outcome attribution_cell(const Bench& b, std::size_t index,
                         std::map<int, std::pair<std::string, analysis::BlameReport>>& pending) {
  const Cell& cell = b.workload.cells[index];
  const zir::Program& program = *b.setup.programs[static_cast<std::size_t>(cell.program)];
  const comm::CommPlan& plan = *b.setup.plans[index];
  metrics::Registry registry;  // keeps the report's metrics block per-cell
  const metrics::ScopedRegistry scoped(registry);

  std::unique_ptr<trace::Recorder> recorder;
  {
    const prof::Span span("bench/recorder");
    recorder = std::make_unique<trace::Recorder>(cell.procs);
  }
  sim::RunConfig cfg;
  cfg.procs = cell.procs;
  cfg.library = cell.experiment.library;
  cfg.config_overrides = configs_for(cell.info(), b.test);
  cfg.recorder = recorder.get();
  std::unique_ptr<sim::Engine> engine;
  {
    const prof::Span span("bench/engine");
    engine = std::make_unique<sim::Engine>(program, plan, std::move(cfg));
  }
  driver::Metrics m;
  {
    const prof::Span span("bench/run");
    m.run = engine->run();
  }
  {
    const prof::Span span("bench/engine");
    engine.reset();
  }
  {
    const prof::Span span("bench/stats");
    m.trace_stats = trace::compute_stats(*recorder);
  }
  analysis::BlameReport blame;
  {
    const prof::Span span("bench/blame");
    blame = analysis::compute_blame(*recorder, program, plan);
  }
  const double blame_total = blame.total_exposed_seconds;
  {
    const prof::Span span("bench/critpath");
    const analysis::CriticalPathReport path =
        analysis::compute_critical_path(*recorder, program, plan);
  }
  long long report_bytes = 0;
  {
    const prof::Span span("bench/report");
    m.static_count = plan.static_count();
    m.dynamic_count = m.run.dynamic_count;
    m.execution_time = m.run.elapsed_seconds;
    m.plan = plan;
    driver::ReportOptions ropts;
    ropts.benchmark = cell.info().name;
    json::Value doc = driver::build_report(m, cell.experiment, cell.procs, nullptr, ropts);
    driver::attach_attribution(doc, *recorder, program, plan);
    report_bytes = static_cast<long long>(doc.dump().size());
  }
  const long long dropped = recorder->dropped_events();
  {
    const prof::Span span("bench/recorder");
    recorder.reset();
  }
  const auto other = pending.find(cell.program);
  if (other == pending.end()) {
    pending.emplace(cell.program, std::make_pair(cell.experiment.name, std::move(blame)));
  } else {
    const prof::Span span("bench/diff");
    const bool first_is_baseline = other->second.first == "baseline";
    const analysis::BlameDiff diff =
        first_is_baseline ? analysis::diff_blame(other->second.second, blame, "baseline", "pl")
                          : analysis::diff_blame(blame, other->second.second, "baseline", "pl");
    pending.erase(other);
  }
  // Blame rows partition every recorded call, so their total is the stats'
  // exposed overhead up to summation order.
  const double exposed = m.trace_stats->exposed_overhead_seconds;
  Outcome o;
  o.ok = matches(b, cell, plan, m.run) &&
         std::abs(blame_total - exposed) <=
             1e-12 + 1e-9 * std::max(std::abs(blame_total), std::abs(exposed));
  o.counts = counts_of(cell, plan, m.run, b.test);
  o.counts.report_bytes = report_bytes;
  o.counts.dropped_events = dropped;
  return o;
}

PassResult attribution_pass(const Bench& b, std::vector<prof::Profiler>* profilers,
                            const std::function<void(double)>& after_cell) {
  PassResult pass;
  std::map<int, std::pair<std::string, analysis::BlameReport>> pending;
  for (std::size_t i = 0; i < b.workload.cells.size(); ++i) {
    const Cell& cell = b.workload.cells[i];
    const auto c0 = Clock::now();
    Outcome o;
    {
      const prof::Attach attach(profilers != nullptr ? &(*profilers)[cell.program] : nullptr);
      const prof::Span span("bench/cell");
      try {
        o = attribution_cell(b, i, pending);
      } catch (const std::exception& e) {
        std::cerr << cell.label() << ": " << e.what() << "\n";
        o = Outcome{};
      }
    }
    o.seconds = since(c0);
    pass.grid_s += o.seconds;
    pass.cells.push_back(o);
    if (after_cell) after_cell(o.seconds);
  }
  return pass;
}

/// `after_cell`, when set, is called with each cell's seconds, outside its
/// timing.
PassResult run_pass(const Bench& b, std::vector<prof::Profiler>* profilers,
                    const std::function<void(double)>& after_cell = {}) {
  return b.workload.attribution ? attribution_pass(b, profilers, after_cell)
                                : sweep_pass(b, profilers, after_cell);
}

/// The attribution cells' sim runs without a recorder, under their own
/// root span, so trace.record_overhead_s compares like with like.
void unrecorded_sim_runs(const Bench& b, std::vector<prof::Profiler>& profilers) {
  for (std::size_t i = 0; i < b.workload.cells.size(); ++i) {
    const Cell& cell = b.workload.cells[i];
    const prof::Attach attach(&profilers[cell.program]);
    const prof::Span span("bench/unrecorded");
    sim::RunConfig cfg;
    cfg.procs = cell.procs;
    cfg.library = cell.experiment.library;
    cfg.config_overrides = configs_for(cell.info(), b.test);
    sim::Engine engine(*b.setup.programs[static_cast<std::size_t>(cell.program)],
                       *b.setup.plans[i], std::move(cfg));
    if (!matches(b, cell, *b.setup.plans[i], engine.run())) {
      throw Error(cell.label() + ": unrecorded run differs from the expected result");
    }
  }
}

// ---------------------------------------------------------------------------
// Layer rows from the profiler span trees.

/// Self seconds by span name, over the subtrees whose root span is `root`.
std::map<std::string, double> self_by_name(const prof::Profiler::Tree& tree,
                                           const std::string& root) {
  std::map<std::string, double> out;
  std::vector<int> stack;
  for (const int r : tree.roots) {
    if (tree.nodes[static_cast<std::size_t>(r)].name == root) stack.push_back(r);
  }
  while (!stack.empty()) {
    const int n = stack.back();
    stack.pop_back();
    const prof::Node& node = tree.nodes[static_cast<std::size_t>(n)];
    out[node.name] += tree.self_seconds(n);
    stack.insert(stack.end(), node.children.begin(), node.children.end());
  }
  return out;
}

/// A layer row: the span names whose self time it sums. The grid rows
/// partition every span a grid pass opens except the bench/cell root, whose
/// self time is the harness's own and counts as unattributed.
struct Row {
  const char* metric;
  std::vector<const char*> spans;
};

const Row sim_run_row = {"sim.run_s",
                         {"bench/run", "sim/run", "sim/block", "sim/comm/dr", "sim/comm/sr",
                          "sim/comm/dn", "sim/comm/sv"}};

const std::vector<Row>& grid_rows() {
  static const std::vector<Row> rows = {
      {"exec.self_s", {"bench/sweep"}},
      {"driver.run_s", {"driver/run_experiment"}},
      {"sim.init_s", {"bench/engine"}},
      {"sim.alloc_s", {"sim/alloc"}},
      {"sim.compile_s", {"sim/compile"}},
      sim_run_row,
      {"trace.recorder_s", {"bench/recorder"}},
      {"trace.stats_s", {"bench/stats"}},
      {"analysis.blame_s", {"bench/blame", "analysis/blame"}},
      {"analysis.critpath_s", {"bench/critpath", "analysis/critpath"}},
      {"analysis.diff_s", {"bench/diff", "analysis/diff"}},
      {"driver.report_s", {"bench/report"}},
  };
  return rows;
}

const std::vector<Row>& setup_rows() {
  static const std::vector<Row> rows = {
      {"parser.parse_s",
       {"bench/parse", "frontend", "frontend/lex", "frontend/parse", "zir/build", "zir/validate"}},
      {"exec.plan_lookup_s", {"bench/plan"}},
      {"comm.plan_s",
       {"plan_communication", "opt/generate", "opt/rr", "opt/cc", "opt/pl", "opt/interblock"}},
      {"comm.generate_s", {"opt/generate"}},
      {"comm.rr_s", {"opt/rr"}},
      {"comm.cc_s", {"opt/cc"}},
      {"comm.pl_s", {"opt/pl"}},
  };
  return rows;
}

double row_seconds(const std::map<std::string, double>& self, const Row& row) {
  double s = 0.0;
  for (const char* name : row.spans) {
    const auto it = self.find(name);
    if (it != self.end()) s += it->second;
  }
  return s;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(bool correct, long long attempted, long long failed,
                  const std::vector<Metric>& metrics) {
  json::Value m = json::Value::make_object();
  for (const Metric& x : metrics) {
    json::Value v = json::Value::make_object();
    v["value"] = json::Value::make_num(x.value);
    v["unit"] = json::Value::make_str(x.unit);
    m[x.name] = std::move(v);
  }
  json::Value doc = json::Value::make_object();
  doc["correct"] = json::Value::make_bool(correct);
  doc["attempted"] = json::Value::make_int(attempted);
  doc["failed"] = json::Value::make_int(failed);
  doc["metrics"] = std::move(m);
  std::cout << doc.dump(0) << std::endl;
}

struct Tally {
  long long attempted = 0;
  long long failed = 0;

  void add(const PassResult& pass) {
    for (const Outcome& o : pass.cells) {
      ++attempted;
      if (!o.ok) ++failed;
    }
  }
  [[nodiscard]] double ok_frac() const {
    if (attempted == 0) return 0.0;
    return static_cast<double>(attempted - failed) / static_cast<double>(attempted);
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool test = false;
  std::string expected;
  std::string write_expected;
  std::string git_sha = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw Error("flag '" + flag + "' needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw Error("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "bench" && value != "test") throw Error("--scale takes bench or test");
      a.test = value == "test";
    } else if (flag == "--expected") {
      a.expected = value;
    } else if (flag == "--write-expected") {
      a.write_expected = value;
    } else if (flag == "--git-sha") {
      a.git_sha = value;
    } else {
      throw Error("unknown flag '" + flag + "'");
    }
  }
  if (a.write_expected.empty() && (a.workload.empty() || a.expected.empty() || !have_seed)) {
    throw Error(
        "usage: e2ebench --workload W --seed N --seconds S --trace 0|1 --expected FILE"
        " [--scale bench|test] [--git-sha SHA]\n"
        "       e2ebench --write-expected FILE [--scale bench|test]");
  }
  return a;
}

void print_stamp(const Args& a, const Bench& b, const std::string& samples) {
  std::cout << "e2ebench workload=" << a.workload << " seed=" << a.seed
            << " scale=" << (a.test ? "test" : "bench") << " trace=" << (a.trace ? 1 : 0)
            << " cells=" << b.workload.cells.size() << "\n"
            << "host_class=" << fingerprint::current_host().host_class()
            << " git_sha=" << a.git_sha << " " << samples << "\n"
            << "cell order:";
  for (const Cell& c : b.workload.cells) std::cout << " " << c.label();
  std::cout << "\n";
}

int run_untraced(const Args& a, Bench& b) {
  // The host's speed drifts over seconds, so after each cell the set-up and
  // the calibration kernel are both re-measured for kProbeShare of the
  // cell's time: their samples spread over the run as the cells do. The
  // repeated set-ups are measured and dropped; the cells run on the first.
  Calibration calibration;
  Tally tally;
  std::vector<double> setups;
  std::vector<double> calibrations;
  for (int r = 0; r < kSetupReps; ++r) {
    b.setup = set_up(b.workload, nullptr);
    setups.push_back(b.setup.seconds);
  }
  if (!b.workload.attribution) build_items(b);
  const auto probe = [&](double cell_seconds) {
    const auto p0 = Clock::now();
    do {
      setups.push_back(set_up(b.workload, nullptr).seconds);
      calibrations.push_back(calibration.seconds());
    } while (since(p0) < kProbeShare * cell_seconds);
  };

  std::vector<double> passes;
  std::vector<std::vector<double>> per_cell(b.workload.cells.size());
  double longest = 0.0;
  const auto t0 = Clock::now();
  while (passes.empty() || since(t0) + longest <= a.seconds) {
    const auto p0 = Clock::now();
    const PassResult pass = run_pass(b, nullptr, probe);
    tally.add(pass);
    passes.push_back(pass.grid_s);
    for (std::size_t i = 0; i < pass.cells.size(); ++i) {
      per_cell[i].push_back(pass.cells[i].seconds);
    }
    longest = std::max(longest, since(p0));
  }

  // A slow moment that hits one cell in one pass is dropped by that cell's
  // median, where the median pass would keep it.
  double raw_grid = 0.0;
  std::vector<double> cell_medians;
  for (const std::vector<double>& samples : per_cell) {
    cell_medians.push_back(median(samples));
    raw_grid += cell_medians.back();
  }
  const double raw_setup = median(setups);
  const double raw_cell = median(cell_medians);
  const double scale = kCalibrationSeconds / median(calibrations);
  const std::vector<Metric> metrics = {
      {"grid_s", raw_grid * scale, "s"},
      {"cell_s_p50", raw_cell * scale, "s"},
      {"setup_s", raw_setup * scale, "s"},
      {"peak_rss_mb", static_cast<double>(prof::peak_rss_bytes()) / (1024.0 * 1024.0), "MiB"},
      {"ok_frac", tally.ok_frac(), "fraction"},
  };
  print_stamp(a, b,
              "samples: passes=" + std::to_string(passes.size()) +
                  " setups=" + std::to_string(setups.size()) +
                  " cell_samples=" + std::to_string(passes.size() * per_cell.size()) +
                  " calibrations=" + std::to_string(calibrations.size()));
  const auto [cal_lo, cal_hi] = std::minmax_element(calibrations.begin(), calibrations.end());
  std::printf("calibration kernel: median %.6f s (min %.6f, max %.6f), nominal %.6f s, "
              "scale %.4f\n",
              median(calibrations), *cal_lo, *cal_hi, kCalibrationSeconds, scale);
  std::cout << "pass seconds:";
  for (const double p : passes) std::printf(" %.4f", p);
  std::cout << "\ncell seconds (median, then each pass):\n";
  for (std::size_t i = 0; i < per_cell.size(); ++i) {
    std::printf("  %-32s %9.5f :", b.workload.cells[i].label().c_str(), cell_medians[i]);
    for (const double c : per_cell[i]) std::printf(" %.5f", c);
    std::printf("\n");
  }
  std::printf("raw seconds: grid_s %.6f cell_s_p50 %.6f setup_s %.6f\n", raw_grid, raw_cell,
              raw_setup);
  for (const Metric& m : metrics) {
    std::printf("%-12s %14.6f %-8s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("(grid_s: sum over %zu cells of each cell's median over %zu passes; cell_s_p50: "
              "median over the cells of those medians; setup_s: median of %zu set-ups; all "
              "three times the calibration scale)\n",
              per_cell.size(), passes.size(), setups.size());
  const bool correct = tally.failed == 0;
  print_result(correct, tally.attempted, tally.failed, metrics);
  return correct ? 0 : 1;
}

int run_traced(const Args& a, Bench& b) {
  const std::size_t n_programs = programs::benchmark_suite().size();
  std::vector<prof::Profiler> profilers(n_programs);
  for (int r = 0; r < kSetupReps; ++r) b.setup = set_up(b.workload, &profilers);
  // Cache statistics of one set-up: the only pass that plans.
  const exec::PlanCacheStats cache_stats = b.setup.cache->stats();
  if (!b.workload.attribution) build_items(b);

  // Alternate untraced and traced passes so both see the same host state.
  Tally tally;
  std::vector<double> untraced;
  std::vector<double> traced;
  std::vector<double> sweep_overheads;  // per untraced pass
  PassResult last;
  const auto t0 = Clock::now();
  while (traced.empty() || since(t0) + *std::max_element(untraced.begin(), untraced.end()) +
                                   *std::max_element(traced.begin(), traced.end()) <=
                               a.seconds) {
    const PassResult plain = run_pass(b, nullptr);
    tally.add(plain);
    untraced.push_back(plain.grid_s);
    double overhead = 0.0;
    for (const Outcome& o : plain.cells) overhead += o.sweep_overhead;
    sweep_overheads.push_back(overhead);
    last = run_pass(b, &profilers);
    tally.add(last);
    traced.push_back(last.grid_s);
  }
  if (b.workload.attribution) unrecorded_sim_runs(b, profilers);

  const double reps = kSetupReps;
  const double passes = static_cast<double>(traced.size());
  double traced_grid = 0.0;
  for (const double g : traced) traced_grid += g;
  traced_grid /= passes;
  double untraced_grid = 0.0;
  for (const double g : untraced) untraced_grid += g;
  untraced_grid /= static_cast<double>(untraced.size());

  // Per program: setup and grid rows, counts.
  struct Program {
    std::map<std::string, double> rows;
    Counts counts;
    double unrecorded_run = 0.0;
  };
  std::vector<Program> per(n_programs);
  // Summed in the unpermuted order, so no seed moves a float total.
  std::vector<std::size_t> canonical(b.workload.cells.size());
  for (std::size_t i = 0; i < canonical.size(); ++i) {
    canonical[static_cast<std::size_t>(b.workload.cells[i].canonical)] = i;
  }
  for (const std::size_t i : canonical) {
    const std::size_t p = static_cast<std::size_t>(b.workload.cells[i].program);
    per[p].counts.add(last.cells[i].counts);
  }
  std::set<std::size_t> used;
  for (const Cell& c : b.workload.cells) used.insert(static_cast<std::size_t>(c.program));
  for (const std::size_t p : used) {
    const prof::Profiler::Tree tree = profilers[p].tree();
    std::map<std::string, double> setup_self = self_by_name(tree, "bench/parse");
    for (const auto& [k, v] : self_by_name(tree, "bench/plan")) setup_self[k] += v;
    for (const Row& row : setup_rows()) {
      per[p].rows[row.metric] = row_seconds(setup_self, row) / reps;
    }

    std::map<std::string, double> grid_self = self_by_name(tree, "bench/sweep");
    for (const auto& [k, v] : self_by_name(tree, "bench/cell")) grid_self[k] += v;
    for (const Row& row : grid_rows()) {
      per[p].rows[row.metric] = row_seconds(grid_self, row) / passes;
    }
    const std::map<std::string, double> unrec = self_by_name(tree, "bench/unrecorded");
    per[p].unrecorded_run = row_seconds(unrec, sim_run_row);
  }

  const auto total = [&](const std::string& metric) {
    double s = 0.0;
    for (const std::size_t p : used) s += per[p].rows[metric];
    return s;
  };
  Counts counts;
  double unrecorded_run = 0.0;
  for (const std::size_t p : used) {
    counts.add(per[p].counts);
    unrecorded_run += per[p].unrecorded_run;
  }
  double layer_sum = 0.0;
  for (const Row& row : grid_rows()) layer_sum += total(row.metric);
  const double unattributed_frac = (traced_grid - layer_sum) / traced_grid;
  const double sim_run = total("sim.run_s");

  std::vector<Metric> metrics;
  for (const Row& row : setup_rows()) metrics.push_back({row.metric, total(row.metric), "s"});
  metrics.push_back({"exec.plan_cache_hit_rate", cache_stats.hit_rate(), "fraction"});
  metrics.push_back({"exec.plan_cache_lookups", static_cast<double>(cache_stats.lookups()),
                     "count"});
  metrics.push_back({"exec.sweep_overhead_s",
                     b.workload.attribution ? 0.0 : median(sweep_overheads), "s"});
  for (const Row& row : grid_rows()) metrics.push_back({row.metric, total(row.metric), "s"});
  metrics.push_back({"sim.us_per_proc_iter",
                     counts.proc_iters > 0 ? sim_run / static_cast<double>(counts.proc_iters) * 1e6
                                           : 0.0,
                     "us"});
  metrics.push_back(
      {"sim.ns_per_msg",
       counts.messages > 0 ? sim_run / static_cast<double>(counts.messages) * 1e9 : 0.0, "ns"});
  metrics.push_back({"trace.record_overhead_s",
                     b.workload.attribution ? sim_run - unrecorded_run : 0.0, "s"});
  const std::vector<std::pair<const char*, long long>> count_metrics = {
      {"comm.transfers", counts.transfers},
      {"comm.live_transfers", counts.live_transfers},
      {"comm.static_count", counts.static_count},
      {"comm.pl_window_sum", counts.pl_window_sum},
      {"sim.dynamic_count", counts.dynamic_count},
      {"sim.messages", counts.messages},
      {"sim.bytes", counts.bytes},
      {"trace.dropped_events", counts.dropped_events},
      {"driver.report_bytes", counts.report_bytes},
  };
  for (const auto& [name, v] : count_metrics) {
    metrics.push_back({name, static_cast<double>(v), "count"});
  }
  metrics.push_back({"sim.simulated_s", counts.simulated_s, "s"});
  metrics.push_back({"bench.traced_grid_s", traced_grid, "s"});
  metrics.push_back({"bench.untraced_grid_s", untraced_grid, "s"});
  metrics.push_back({"bench.trace_overhead_frac", traced_grid / untraced_grid - 1.0, "fraction"});
  metrics.push_back({"bench.layer_sum_s", layer_sum, "s"});
  metrics.push_back({"bench.unattributed_frac", unattributed_frac, "fraction"});
  for (std::size_t p = 0; p < n_programs; ++p) {
    const std::string prefix = programs::benchmark_suite()[p].name + ".";
    for (const char* m : {"parser.parse_s", "comm.plan_s", "sim.alloc_s", "sim.compile_s",
                          "sim.run_s"}) {
      metrics.push_back({prefix + m, per[p].rows[m], "s"});
    }
    metrics.push_back({prefix + "sim.us_per_proc_iter",
                       per[p].counts.proc_iters > 0
                           ? per[p].rows["sim.run_s"] /
                                 static_cast<double>(per[p].counts.proc_iters) * 1e6
                           : 0.0,
                       "us"});
  }

  print_stamp(a, b,
              "samples: setups=" + std::to_string(kSetupReps) +
                  " traced_passes=" + std::to_string(traced.size()) +
                  " untraced_passes=" + std::to_string(untraced.size()));
  std::printf("\nlayer self time per traced grid pass (s), mean of %zu passes:\n",
              traced.size());
  std::printf("%-22s", "row");
  for (std::size_t p = 0; p < n_programs; ++p) {
    std::printf(" %10s", programs::benchmark_suite()[p].name.c_str());
  }
  std::printf(" %10s %7s\n", "total", "share");
  const auto print_row = [&](const std::string& name, double denom) {
    std::printf("%-22s", name.c_str());
    for (std::size_t p = 0; p < n_programs; ++p) std::printf(" %10.5f", per[p].rows[name]);
    std::printf(" %10.5f %6.1f%%\n", total(name), denom > 0 ? 100.0 * total(name) / denom : 0.0);
  };
  for (const Row& row : grid_rows()) print_row(row.metric, traced_grid);
  std::printf("%-22s %10.5f of traced grid_s %.5f: unattributed %.2f%% (tolerance %.0f%%) %s\n",
              "sum of layer rows", layer_sum, traced_grid, 100.0 * unattributed_frac,
              100.0 * kReconcileTolerance,
              std::abs(unattributed_frac) <= kReconcileTolerance ? "RECONCILED" : "NOT RECONCILED");
  std::printf("\nset-up rows per set-up (s), mean of %d set-ups (plan cache: %lld lookups, "
              "hit rate %.3f):\n",
              kSetupReps, cache_stats.lookups(), cache_stats.hit_rate());
  // The first three set-up rows partition a set-up; the rest split comm.plan_s.
  const double setup_total = total("parser.parse_s") + total("exec.plan_lookup_s") +
                             total("comm.plan_s");
  for (const Row& row : setup_rows()) print_row(row.metric, setup_total);
  std::printf("\ntracing overhead: traced grid_s %.5f vs untraced %.5f (%+.2f%%)\n", traced_grid,
              untraced_grid, 100.0 * (traced_grid / untraced_grid - 1.0));
  std::printf("\n");
  for (const Metric& m : metrics) {
    std::printf("%-30s %18.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = tally.failed == 0;
  print_result(correct, tally.attempted, tally.failed, metrics);
  return correct ? 0 : 1;
}

int run(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  if (!a.write_expected.empty()) return write_expected(a.write_expected, a.test);
  Bench b;
  b.workload = make_workload(a.workload, a.test);
  b.test = a.test;
  b.oracle = load_oracle(a.expected, a.test);
  permute(b.workload.cells, a.seed);
  return a.trace ? run_traced(a, b) : run_untraced(a, b);
}

}  // namespace
}  // namespace zc

int main(int argc, char** argv) {
  try {
    return zc::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    return 2;
  }
}
