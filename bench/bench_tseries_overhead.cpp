// Guard benchmark for the windowed telemetry sink (src/tseries): engine
// throughput with the timeline detached (the default, which must stay
// free) vs attached (per-event windowed accumulation). Gates the attached
// overhead at <= 5% on the engine hot path and asserts the sink never
// perturbs the simulation (bit-identical results on vs off).
//
// Methodology: the engine runs on the calling thread, so each run is timed
// in that thread's CPU time (CLOCK_THREAD_CPUTIME_ID), which excludes the
// time the thread sat descheduled while other processes held the core.
// Within a repetition the two arms alternate run by run, so the host's
// slow drift (neighbours' cache and frequency pressure) lands on both
// alike. What noise remains only ever ADDS time, so each arm's minimum mean
// across order-alternated repetitions is its least-contaminated estimate;
// the gate compares those minima. A busy stretch can still contaminate
// every rep of one attempt, so a failing verdict is re-measured (up to
// three attempts, minima accumulated across all of them) — a genuine
// regression stays above the gate in every window, a noise spike clears.
#include <time.h>

#include <algorithm>
#include <iostream>
#include <vector>

#include "bench/common.h"
#include "src/comm/optimizer.h"
#include "src/exec/sweep.h"
#include "src/parser/parser.h"
#include "src/sim/engine.h"
#include "src/support/io.h"
#include "src/support/json.h"
#include "src/tseries/tseries.h"

namespace {

using namespace zc;

/// CPU seconds consumed by the calling thread so far.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct RepSeconds {
  double off = 0.0;  ///< mean thread-CPU seconds per run, timeline detached
  double on = 0.0;   ///< same, timeline attached
};

/// One rep: `iters` runs of each arm, interleaved run by run (`on_first`
/// picks which arm leads each pair) so that slow drift in the host's speed
/// lands on both arms alike. The series is constructed once per rep (its
/// windows fold across runs — the realistic long-lived-sink shape;
/// construction is off the clock anyway).
RepSeconds rep_seconds(const zir::Program& program, const comm::CommPlan& plan,
                       const sim::RunConfig& base, int iters, bool on_first) {
  tseries::SimSeries series(base.procs);
  sim::RunConfig attached = base;
  attached.timeline = &series;
  RepSeconds total;
  for (int i = 0; i < 2 * iters; ++i) {
    const bool on = (i % 2 == 0) == on_first;
    const double t0 = thread_cpu_seconds();
    {
      const sim::RunResult result = sim::run_program(program, plan, on ? attached : base);
      if (result.total_messages == 0) std::abort();  // not a real run
    }
    (on ? total.on : total.off) += thread_cpu_seconds() - t0;
  }
  return {total.off / iters, total.on / iters};
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options options = bench::parse_options(argc, argv);
  const int procs = options.procs;

  const zir::Program program =
      parser::parse_program(programs::kernel_source("jacobi"));
  const comm::CommPlan plan = comm::plan_communication(
      program, comm::OptOptions::for_level(comm::OptLevel::kPL));
  sim::RunConfig base;
  base.procs = procs;
  base.config_overrides = {{"n", 64}, {"iters", 4}};

  std::cout << "== Timeline sink overhead: engine runs, timeline off vs on ==\n"
            << "jacobi/pl, procs=" << procs << ", timed in thread CPU time\n\n";

  // Bit-identity first: attaching the sink must not change the simulation.
  tseries::SimSeries probe(procs);
  sim::RunConfig observed = base;
  observed.timeline = &probe;
  const bool identical = exec::result_checksum(sim::run_program(program, plan, base)) ==
                         exec::result_checksum(sim::run_program(program, plan, observed));
  std::cout << (identical ? "determinism: results bit-identical with the sink attached\n"
                          : "determinism: FAILED — sink changed the results\n");

  constexpr int kReps = 7;
  constexpr int kIters = 30;
  constexpr int kAttempts = 3;
  double off_us = 0.0;
  double on_us = 0.0;
  double overhead_pct = 0.0;
  bool within = false;
  std::vector<double> off_samples;
  std::vector<double> on_samples;
  for (int attempt = 0; attempt < kAttempts && !within; ++attempt) {
    if (attempt > 0) {
      std::cout << "above 5% — re-measuring (attempt " << attempt + 1 << "/" << kAttempts
                << ")\n";
    }
    for (int r = 0; r < kReps; ++r) {
      const RepSeconds rep = rep_seconds(program, plan, base, kIters, r % 2 == 1);
      std::cout << "rep " << r << ": off " << rep.off * 1e6 << " us/run, on "
                << rep.on * 1e6 << " us/run\n";
      off_samples.push_back(rep.off);
      on_samples.push_back(rep.on);
    }
    const auto minimum = [](const std::vector<double>& v) {
      return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
    };
    off_us = minimum(off_samples) * 1e6;
    on_us = minimum(on_samples) * 1e6;
    const double ratio = off_us > 0.0 ? on_us / off_us : 0.0;
    overhead_pct = (ratio - 1.0) * 100.0;
    within = ratio > 0.0 && ratio <= 1.05;
  }
  std::cout << "min-of-means: off " << off_us << " us/run, on " << on_us
            << " us/run, overhead " << overhead_pct << "%\n"
            << (within ? "acceptance: timeline sink overhead within 5% on the engine path\n"
                       : "acceptance: FAILED — timeline sink overhead above 5% on the "
                         "engine path\n");

  if (options.bench_json_path.has_value()) {
    json::Value doc = json::Value::make_object();
    doc["schema"] = json::Value::make_str("zcomm-bench-tseries-overhead");
    doc["bench"] = json::Value::make_str(options.bench_name);
    doc["procs"] = json::Value::make_int(procs);
    doc["reps"] = json::Value::make_int(static_cast<long long>(off_samples.size()));
    doc["iters_per_rep"] = json::Value::make_int(kIters);
    doc["off_us_per_run"] = json::Value::make_num(off_us);
    doc["on_us_per_run"] = json::Value::make_num(on_us);
    doc["overhead_pct"] = json::Value::make_num(overhead_pct);
    doc["within_5pct"] = json::Value::make_bool(within);
    doc["bit_identical"] = json::Value::make_bool(identical);
    bench::write_bench_json(doc, options);
    std::cout << "(wrote " << *options.bench_json_path << ")\n";
  }
  return identical && within ? 0 : 1;
}
