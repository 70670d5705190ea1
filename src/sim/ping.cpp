#include "src/sim/ping.h"

#include <algorithm>

#include "src/sim/transport.h"
#include "src/support/check.h"

namespace zc::sim {

long long PingResult::knee_doubles() const {
  ZC_ASSERT(!points.empty());
  const double floor = points.front().exposed;
  for (const PingPoint& pt : points) {
    if (pt.exposed >= 2.0 * floor) return pt.doubles;
  }
  return points.back().doubles;
}

PingResult run_ping(const machine::MachineModel& machine, ironman::CommLibrary library,
                    const std::vector<long long>& sizes, int reps,
                    trace::Recorder* recorder) {
  PingResult result;
  result.machine = machine.kind;
  result.library = library;

  for (const long long doubles : sizes) {
    const long long bytes = doubles * static_cast<long long>(sizeof(double));
    Transport tx(machine, library);
    tx.set_observers({recorder, nullptr});
    // A dedicated two-node partition (paper §3.1). clocks[0] sends to
    // clocks[1] on channel 0.
    std::vector<double> clocks(2, 0.0);
    // Busy work long enough to hide the transmission: it must cover the
    // peer's CPU-side costs plus the wire time of this size.
    const double busy = tx.exposed_overhead(bytes) + tx.wire_time(bytes) + 25e-6;

    auto busy_loop = [&] {
      clocks[0] += busy;
      clocks[1] += busy;
    };

    double exposed_total = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      const double start0 = clocks[0];
      const double start1 = clocks[1];
      busy_loop();
      if (tx.dr_is_global_synch()) {
        tx.global_synch(clocks);
        tx.post_readiness(0, 0, 1, clocks[1]);
      } else {
        tx.dr(0, 0, 1, bytes, clocks[1]);
      }
      busy_loop();
      tx.sr(0, 0, 1, bytes, clocks[0]);
      busy_loop();
      tx.dn(0, 0, 1, bytes, clocks[1]);
      busy_loop();
      tx.sv(0, 0, 1, bytes, clocks[0]);

      // The paper subtracts the busy-loop time; the remainder on each
      // endpoint is that endpoint's exposed software overhead. Clocks are
      // re-aligned between repetitions (outside the measurement) so
      // endpoint cost asymmetry cannot accumulate into artificial waits.
      exposed_total += (clocks[0] - start0 - 4.0 * busy) + (clocks[1] - start1 - 4.0 * busy);
      clocks[0] = clocks[1] = std::max(clocks[0], clocks[1]);
    }
    result.points.push_back({doubles, exposed_total / reps});
  }
  return result;
}

std::vector<long long> default_ping_sizes() {
  std::vector<long long> sizes;
  for (long long s = 1; s <= 4096; s *= 2) sizes.push_back(s);
  return sizes;
}

}  // namespace zc::sim
