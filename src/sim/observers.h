// The simulator's one observer seam: its two optional sinks (trace::Recorder
// for events and exact totals, tseries::SimSeries for windowed totals) as
// one value. Each hook site makes one call, and each method is the only
// place that maps a hook's arguments onto record_* / add_*. A null sink
// costs one inlined pointer test; observing never changes timing or
// numerics. Non-virtual: both sinks are known and sit on the per-event path.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/ironman/ironman.h"
#include "src/runtime/layout.h"
#include "src/support/check.h"
#include "src/trace/recorder.h"
#include "src/tseries/tseries.h"

namespace zc::sim {

struct Observers {
  trace::Recorder* recorder = nullptr;
  tseries::SimSeries* timeline = nullptr;

  [[nodiscard]] bool any() const { return recorder != nullptr || timeline != nullptr; }

  /// One IRONMAN call span on `proc`: waited over [begin, unblocked), ran
  /// the primitive over [unblocked, end).
  void call(int proc, ironman::IronmanCall call, ironman::Primitive prim, std::int64_t chan,
            std::int64_t transfer, int src, int dst, std::int64_t bytes, double begin,
            double unblocked, double end) const {
    if (recorder != nullptr) {
      recorder->record_call(proc, call, prim, chan, transfer, src, dst, bytes, begin, unblocked,
                            end);
    }
    if (timeline != nullptr) timeline->add_call(proc, begin, unblocked, end);
  }

  /// One statement's compute span over `local`, `proc`'s part of its region
  /// (counted only when recorded: Box::count is out of line).
  void compute(int proc, const rt::Box& local, double begin, double end) const {
    if (recorder != nullptr) recorder->record_compute(proc, local.count(), begin, end);
    if (timeline != nullptr) timeline->add_compute(proc, begin, end);
  }

  /// Every processor's barrier span, from its clock in `clocks` to `t`.
  void barrier(const std::vector<double>& clocks, double t) const {
    for (std::size_t p = 0; p < clocks.size(); ++p) {
      if (recorder != nullptr) recorder->record_barrier(static_cast<int>(p), clocks[p], t);
      if (timeline != nullptr) timeline->add_barrier(static_cast<int>(p), clocks[p], t);
    }
  }

  /// A message put on the wire: the recorder's handle for consumed(), or -1.
  [[nodiscard]] std::int64_t send(std::int64_t chan, std::int64_t transfer, int src, int dst,
                                  std::int64_t bytes, double posted, double on_wire,
                                  double arrived) const {
    return recorder != nullptr ? recorder->record_message(chan, transfer, src, dst, bytes, posted,
                                                          on_wire, arrived)
                               : -1;
  }

  /// The DN on `dst` consumed `message` (on the wire over [on_wire,
  /// arrived)) at `t_consumed`, after waiting `wait` inside the call.
  void consumed(int dst, std::int64_t message, std::int64_t transfer, double t_consumed,
                double wait, double on_wire, double arrived) const {
    if (recorder != nullptr) {
      recorder->record_consumed(message, transfer, t_consumed, wait, arrived - on_wire);
    }
    if (timeline != nullptr) timeline->add_wire(dst, on_wire, arrived, wait);
  }
};

/// The one barrier routine (SHMEM global synch, reduction combines): every
/// clock advances to the latest one plus `cost`, reported to `obs`.
inline void synchronize(std::vector<double>& clocks, double cost, const Observers& obs) {
  ZC_ASSERT(!clocks.empty());
  double t = clocks[0];
  for (const double c : clocks) t = std::max(t, c);
  t += cost;
  obs.barrier(clocks, t);
  std::fill(clocks.begin(), clocks.end(), t);
}

}  // namespace zc::sim
