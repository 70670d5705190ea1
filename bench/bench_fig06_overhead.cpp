// Reproduces Figure 6: exposed communication costs for the five
// communication primitives on the Cray T3D and Intel Paragon — the §3.2
// two-node synthetic ping (10000 repetitions, busy loops hiding the
// transmission time). Also prints the Figure 3 machine-parameter table and
// the measured knee (paper: "about 512 doubles / 4K bytes").
#include <iostream>

#include "bench/common.h"
#include "src/sim/ping.h"
#include "src/support/chart.h"
#include "src/support/str.h"
#include "src/support/table.h"

int main(int argc, char** argv) {
  using namespace zc;
  const bench::Options options = bench::parse_options(argc, argv, /*accept_jobs=*/false);
  bench::print_header("Figure 6 (and Figure 3)",
                      "exposed communication costs vs. message size", options);

  // Figure 3: machine parameters.
  {
    Table t({"machine", "communication library", "timer granularity"});
    t.set_align(1, Align::kLeft);
    t.add_row({"Intel Paragon 50 MHz", "NX (message passing)", "~100 ns"});
    t.add_row({"Cray T3D 150 MHz", "PVM (message passing), SHMEM (shared memory)", "~150 ns"});
    std::cout << t.to_string() << "\n";
  }

  const auto sizes = sim::default_ping_sizes();
  const int reps = options.paper_scale ? 10000 : 2000;

  struct Config {
    const char* name;
    machine::MachineModel model;
    ironman::CommLibrary library;
  };
  const Config configs[] = {
      {"t3d pvm", machine::t3d_model(), ironman::CommLibrary::kPVM},
      {"t3d shmem", machine::t3d_model(), ironman::CommLibrary::kSHMEM},
      {"paragon csend/crecv", machine::paragon_model(), ironman::CommLibrary::kNXSync},
      {"paragon isend/irecv", machine::paragon_model(), ironman::CommLibrary::kNXAsync},
      {"paragon hsend/hrecv", machine::paragon_model(), ironman::CommLibrary::kNXCallback},
  };

  SeriesChart chart("Exposed communication cost (two-node ping, busy loops hide transmission)",
                    "message size (doubles)", "exposed cost per message (us)");
  Table t({"size (doubles)", "t3d pvm", "t3d shmem", "paragon csend", "paragon isend",
           "paragon hsend"});

  std::vector<sim::PingResult> results;
  for (const Config& c : configs) {
    results.push_back(sim::run_ping(c.model, c.library, sizes, reps));
    std::vector<double> xs;
    std::vector<double> ys;
    for (const sim::PingPoint& pt : results.back().points) {
      xs.push_back(static_cast<double>(pt.doubles));
      ys.push_back(pt.exposed * 1e6);
    }
    chart.add_series(c.name, xs, ys);
  }

  for (std::size_t i = 0; i < sizes.size(); ++i) {
    RowBuilder rb;
    rb.cell(static_cast<long long>(sizes[i]));
    for (const sim::PingResult& r : results) rb.cell(r.points[i].exposed * 1e6, 2);
    t.add_row(std::move(rb).build());
  }
  std::cout << t.to_string() << "\n(all costs in microseconds per message)\n\n";
  std::cout << chart.to_string() << "\n";

  std::cout << "Knee (overhead doubles from its small-message floor):\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::cout << "  " << str::pad_right(configs[i].name, 22) << " "
              << results[i].knee_doubles() << " doubles ("
              << results[i].knee_doubles() * 8 << " bytes)\n";
  }
  std::cout << "\nPaper §3.2: the knee is at about 512 doubles (4K bytes) on both machines;\n"
               "SHMEM overhead ~10% below PVM; the Paragon asynchronous primitives do not\n"
               "reduce the exposed overhead (isend/irecv) or increase it (hsend/hrecv).\n";
  return 0;
}
