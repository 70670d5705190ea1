// Ablation supporting §3.2: the Figure 6 knee is produced by the ratio of
// per-call overhead to per-byte cost plus the per-packet charge. Sweeping
// the packet size (and zeroing the per-packet overhead) moves/removes the
// knee, demonstrating the mechanism rather than asserting it.
#include <iostream>

#include "bench/common.h"
#include "src/sim/ping.h"
#include "src/support/table.h"

int main(int argc, char** argv) {
  using namespace zc;
  const bench::Options options = bench::parse_options(argc, argv, /*accept_jobs=*/false);
  bench::print_header("Ablation: knee vs. packetization",
                      "where does the 512-double knee come from?", options);

  Table t({"packet bytes", "packet overhead (us)", "knee (doubles)",
           "overhead @64 dbl (us)", "overhead @4096 dbl (us)"});
  const auto sizes = sim::default_ping_sizes();
  for (const long long packet_bytes : {1024LL, 4096LL, 16384LL, 65536LL}) {
    for (const double packet_overhead : {0.0, 4.0e-6, 16.0e-6}) {
      machine::MachineModel m = machine::t3d_model();
      m.packet_bytes = packet_bytes;
      m.packet_overhead = packet_overhead;
      const sim::PingResult r = sim::run_ping(m, ironman::CommLibrary::kPVM, sizes, 500);
      RowBuilder rb;
      rb.cell(packet_bytes)
          .cell(packet_overhead * 1e6, 1)
          .cell(r.knee_doubles())
          .cell(r.points[6].exposed * 1e6, 2)
          .cell(r.points[12].exposed * 1e6, 2);
      t.add_row(std::move(rb).build());
    }
    t.add_separator();
  }
  std::cout << t.to_string() << "\n";
  std::cout << "Reading: with no per-packet charge the knee is set purely by the\n"
               "overhead/per-byte ratio; larger packets with real per-packet overheads\n"
               "push the knee out. The T3D/Paragon 4 KB packets with a few microseconds\n"
               "of per-packet cost land it at ~512 doubles, as the paper measured.\n";
  return 0;
}
