// Reproduces Figure 7: the experimental benchmark programs. The paper
// reports final-output C line counts; we report the mini-ZPL source size
// and the compiled statement/communication structure instead (our compiler
// interprets ZIR directly rather than emitting C).
#include <iostream>
#include <memory>

#include "bench/common.h"
#include "src/comm/optimizer.h"
#include "src/support/str.h"
#include "src/support/table.h"

int main(int argc, char** argv) {
  using namespace zc;
  const bench::Options options = bench::parse_options(argc, argv, /*accept_jobs=*/false);
  bench::print_header("Figure 7", "experimental benchmark programs", options);

  Table t({"program", "description", "source lines", "statements", "arrays",
           "procedures", "baseline comms"});
  t.set_align(1, Align::kLeft);

  for (const programs::BenchmarkInfo& info : programs::benchmark_suite()) {
    const std::shared_ptr<const zir::Program> parsed = bench::parsed_program(info);
    const zir::Program& p = *parsed;
    const comm::CommPlan plan =
        comm::plan_communication(p, comm::OptOptions::for_level(comm::OptLevel::kBaseline));
    long long lines = 0;
    for (char ch : info.source) lines += ch == '\n' ? 1 : 0;
    RowBuilder rb;
    rb.cell(info.name)
        .cell(info.description)
        .cell(lines)
        .cell(static_cast<long long>(p.stmt_count()))
        .cell(static_cast<long long>(p.array_count()))
        .cell(static_cast<long long>(p.proc_count()))
        .cell(static_cast<long long>(plan.static_count()));
    t.add_row(std::move(rb).build());
  }
  std::cout << t.to_string() << "\n";
  std::cout << "Paper Figure 7 line counts (final output C, excluding communication):\n"
               "  tomcatv 598, swm 1570, simple 2293, sp 7866.\n";
  return 0;
}
