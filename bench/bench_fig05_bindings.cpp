// Reproduces Figure 5: the IRONMAN bindings on the Paragon and the T3D.
#include <iostream>

#include "bench/common.h"
#include "src/ironman/ironman.h"
#include "src/support/table.h"

int main(int argc, char** argv) {
  using namespace zc;
  const bench::Options options = bench::parse_options(argc, argv, /*accept_jobs=*/false);
  bench::print_header("Figure 5", "IRONMAN bindings on the Paragon and T3D", options);

  Table t({"program state", "call", "nx message passing", "nx asynchronous", "nx callback",
           "pvm", "shmem"});
  for (std::size_t c = 1; c < 7; ++c) t.set_align(c, Align::kLeft);

  const std::pair<const char*, ironman::IronmanCall> calls[] = {
      {"destination ready", ironman::IronmanCall::kDR},
      {"source ready", ironman::IronmanCall::kSR},
      {"destination needed", ironman::IronmanCall::kDN},
      {"source volatile", ironman::IronmanCall::kSV},
  };
  for (const auto& [state, call] : calls) {
    t.add_row({state, ironman::to_string(call),
               ironman::to_string(ironman::binding(ironman::CommLibrary::kNXSync, call)),
               ironman::to_string(ironman::binding(ironman::CommLibrary::kNXAsync, call)),
               ironman::to_string(ironman::binding(ironman::CommLibrary::kNXCallback, call)),
               ironman::to_string(ironman::binding(ironman::CommLibrary::kPVM, call)),
               ironman::to_string(ironman::binding(ironman::CommLibrary::kSHMEM, call))});
  }
  std::cout << t.to_string() << "\n";
  std::cout << "Paper Figure 5 for comparison: DR/SR/DN/SV -> no-op/csend/crecv/no-op (NX),\n"
               "irecv/isend/msgwait/msgwait (async), hprobe/hsend/hrecv/msgwait (callback),\n"
               "no-op/pvm_send/pvm_recv/no-op (PVM), synch/shmem_put/synch/no-op (SHMEM).\n";
  return 0;
}
