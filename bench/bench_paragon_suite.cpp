// Backs the paper's §3.2 claim that is stated but not tabulated: "when we
// performed our full battery of tests using the benchmark suite on the
// Paragon, the asynchronous primitives saw little performance improvement
// or, in most cases, performance degradation. Consequently, we will not
// present the Paragon results of experiments to follow." This harness IS
// those unpresented runs: the four benchmarks on the simulated Paragon
// under all three NX bindings, fully optimized.
#include <iostream>

#include "bench/common.h"
#include "src/comm/optimizer.h"
#include "src/parser/parser.h"
#include "src/support/table.h"

int main(int argc, char** argv) {
  using namespace zc;
  const bench::Options options = bench::parse_options(argc, argv, /*accept_jobs=*/false);
  bench::print_header("Paragon suite (§3.2, unpresented in the paper)",
                      "NX sync vs. asynchronous vs. callback bindings, fully optimized",
                      options);

  Table t({"program", "binding", "time (s)", "vs csend/crecv"});
  t.set_align(1, Align::kLeft);
  for (const auto& info : programs::benchmark_suite()) {
    const zir::Program p = parser::parse_program(info.source);
    const comm::CommPlan plan =
        comm::plan_communication(p, comm::OptOptions::for_level(comm::OptLevel::kPL));
    double sync_time = 0.0;
    for (const auto& [label, lib] :
         std::vector<std::pair<const char*, ironman::CommLibrary>>{
             {"csend/crecv", ironman::CommLibrary::kNXSync},
             {"isend/irecv", ironman::CommLibrary::kNXAsync},
             {"hsend/hrecv", ironman::CommLibrary::kNXCallback}}) {
      sim::RunConfig cfg;
      cfg.machine = machine::paragon_model();
      cfg.library = lib;
      cfg.procs = options.procs;
      cfg.config_overrides = bench::scale_for(info, options);
      const sim::RunResult r = sim::run_program(p, plan, cfg);
      if (lib == ironman::CommLibrary::kNXSync) sync_time = r.elapsed_seconds;
      RowBuilder rb;
      rb.cell(info.name).cell(label).cell(r.elapsed_seconds, 6).percent_cell(r.elapsed_seconds,
                                                                             sync_time);
      t.add_row(std::move(rb).build());
    }
    t.add_separator();
  }
  std::cout << t.to_string() << "\n";
  std::cout << "Expected per the paper: the asynchronous and callback bindings show\n"
               "little improvement over csend/crecv, and mostly degradation — their\n"
               "posting/completion overheads dwarf what their overlap can recover.\n";
  return 0;
}
