// Ablation for the paper's future-work item implemented as an extension:
// redundant-communication removal across basic-block boundaries (forward
// dataflow with context-sensitive single-call-site procedures). Compares
// counts and times against the paper's intra-block pl configuration.
#include <iostream>

#include "bench/common.h"
#include "src/comm/optimizer.h"
#include "src/parser/parser.h"
#include "src/support/table.h"

int main(int argc, char** argv) {
  using namespace zc;
  const bench::Options options = bench::parse_options(argc, argv, /*accept_jobs=*/false);
  bench::print_header("Ablation: cross-block dataflow",
                      "redundancy removal across basic blocks (paper §4 future work)",
                      options);

  Table t({"program", "configuration", "static", "dynamic", "time (s)", "scaled"});
  t.set_align(1, Align::kLeft);
  for (const auto& info : programs::benchmark_suite()) {
    const zir::Program p = parser::parse_program(info.source);
    const auto cfg_overrides = bench::scale_for(info, options);

    auto run = [&](const comm::OptOptions& o) {
      const comm::CommPlan plan = comm::plan_communication(p, o);
      sim::RunConfig cfg;
      cfg.procs = options.procs;
      cfg.config_overrides = cfg_overrides;
      auto r = sim::run_program(p, plan, cfg);
      return std::make_pair(plan.static_count(), r);
    };

    const auto [base_static, base_run] =
        run(comm::OptOptions::for_level(comm::OptLevel::kBaseline));
    const auto [pl_static, pl_run] = run(comm::OptOptions::for_level(comm::OptLevel::kPL));
    comm::OptOptions inter = comm::OptOptions::for_level(comm::OptLevel::kPL);
    inter.inter_block = true;
    const auto [inter_static, inter_run] = run(inter);

    auto add = [&](const char* label, int st, const sim::RunResult& r) {
      RowBuilder rb;
      rb.cell(info.name)
          .cell(label)
          .cell(static_cast<long long>(st))
          .cell(r.dynamic_count)
          .cell(r.elapsed_seconds, 6)
          .percent_cell(r.elapsed_seconds, base_run.elapsed_seconds);
      t.add_row(std::move(rb).build());
    };
    add("baseline", base_static, base_run);
    add("pl (intra-block, the paper)", pl_static, pl_run);
    add("pl + cross-block rr (ext.)", inter_static, inter_run);
    t.add_separator();
  }
  std::cout << t.to_string() << "\n";
  std::cout << "Reading: the phase-structured programs (SIMPLE especially) re-communicate\n"
               "slices across their phase blocks; carrying the cached-slice state across\n"
               "block boundaries removes those transfers, which intra-block analysis —\n"
               "the paper's scope — cannot see. Loops and multiply-called procedures\n"
               "stay conservative, so TOMCATV's sweep communication is untouched.\n";
  return 0;
}
