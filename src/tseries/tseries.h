// Windowed time-series telemetry: streaming, bounded-memory aggregation of
// where time goes, over fixed time windows instead of recorded events.
//
// The trace subsystem (src/trace) answers "what happened" at full fidelity
// but its event buffers are bounded — past RecorderOptions caps, detail is
// dropped. trace::Stats answers "how much, in total" exactly, but collapses
// the whole run to one number per quantity. This layer sits between the
// two: O(rows x windows) memory no matter how many events the run produces,
// with an exact conservation law — the sum over a channel's windows equals
// the same quantity's exact aggregate (trace::Stats / RunResult) to
// floating-point roundoff, even when the event trace itself was capped.
// That is the shape the ROADMAP's 4096-processor engine rewrite needs:
// utilization-over-time at any scale, never an event log.
//
// Two producers feed it:
//   SimSeries   per-simulated-processor CPU / wait / wire / compute /
//               barrier seconds over simulated time, the second field of
//               the simulator's observer seam (sim::Observers, beside
//               trace::Recorder), so it is fed by the very hook calls that
//               feed the recorder (zero overhead when null; never changes
//               timing or numerics — golden-checked).
//   WallSeries  thread-safe wall-clock windows: per-worker sweep telemetry
//               (src/exec/sweep).
//
// Unknown total duration is handled by folding: when a sample lands past
// the last window, the window width doubles and adjacent window pairs merge
// (sums preserved exactly) until the sample fits — the window count never
// grows, the resolution adapts.
#pragma once

#include <chrono>
#include <mutex>
#include <string>
#include <vector>

#include "src/support/json.h"

namespace zc::tseries {

/// The folding accumulator grid shared by both series types: `rows` x
/// `channels` x `window_count` doubles, windows covering
/// [0, window_count * window_width). Not thread-safe (WallSeries adds the
/// lock). Seconds are *spread* across windows proportionally to overlap, so
/// channel totals are conserved under both spreading and folding.
class Windows {
 public:
  Windows(int rows, int channels, int window_count, double initial_width = 1e-6);

  /// Spreads `t1 - t0` seconds of `channel` activity on `row` across the
  /// windows the span [t0, t1) overlaps. Empty/negative spans only advance
  /// duration(). Non-finite endpoints are ignored.
  void add_span(int row, int channel, double t0, double t1);

  /// Adds `value` to the window containing `t` (a point sample: counts,
  /// latency sums, queue-depth samples).
  void add_at(int row, int channel, double t, double value);

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int channels() const { return channels_; }
  [[nodiscard]] int window_count() const { return window_count_; }
  /// Current width of one window; doubles on every fold.
  [[nodiscard]] double window_width() const { return width_; }
  /// Largest time seen by any add (>= the end of the last nonzero window).
  [[nodiscard]] double duration() const { return duration_; }
  /// Windows actually covered by [0, duration()]: what renderers show.
  [[nodiscard]] int used_windows() const;

  [[nodiscard]] double value(int row, int channel, int window) const;
  /// Sum over all windows of one (row, channel) — the conserved total.
  [[nodiscard]] double row_total(int row, int channel) const;
  /// Sum over all rows and windows of one channel.
  [[nodiscard]] double channel_total(int channel) const;

 private:
  void fold_until(double t);
  [[nodiscard]] std::size_t index(int row, int channel, int window) const;

  int rows_;
  int channels_;
  int window_count_;
  double width_;
  double duration_ = 0.0;
  std::vector<double> data_;  // [row][channel][window], dense
};

/// The simulator's producer: one row per simulated processor, fed through
/// sim::Observers by the hook calls that feed trace::Recorder. Attach via
/// sim::RunConfig::timeline (nullptr = off, no per-event work at all).
class SimSeries {
 public:
  /// Channel layout. kCpu/kWait split IRONMAN call spans the way
  /// trace::CallTotals does (cpu_seconds / wait_seconds); kWireExposed /
  /// kWireOverlapped split each consumed message's transmission the way
  /// trace::WireTotals does (exposed = the part of the wire time the
  /// destination actually waited through at DN, clamped to the wire time).
  enum Channel {
    kCpu = 0,         ///< CPU inside IRONMAN calls (software overhead)
    kWait,            ///< blocked inside IRONMAN calls (arrival/readiness/drain)
    kWireExposed,     ///< wire time the destination waited through
    kWireOverlapped,  ///< wire time hidden behind other work
    kCompute,         ///< local statement execution
    kBarrier,         ///< global synch / reduction combine participation
    kChannelCount
  };
  [[nodiscard]] static const char* channel_name(int channel);

  explicit SimSeries(int procs, int window_count = 64);

  // ---- hook points (called by src/sim when a timeline is attached) ----

  /// One IRONMAN call span: [begin, unblocked) was wait, [unblocked, end)
  /// was CPU — the decomposition Recorder::record_call aggregates.
  void add_call(int proc, double begin, double unblocked, double end);
  /// Local compute span of one statement execution on `proc`.
  void add_compute(int proc, double begin, double end);
  /// `proc`'s participation in a global synch / reduction combine.
  void add_barrier(int proc, double begin, double end);
  /// The matching DN consumed a message that was on the wire over
  /// [on_wire, arrived) after the destination waited `wait_seconds` in DN.
  /// The exposed part (clamp(wait, 0, wire), Recorder::record_consumed's
  /// rule) is attributed to the transmission's tail [arrived - exposed,
  /// arrived); the remainder was overlapped over [on_wire, arrived -
  /// exposed). Attributed to the destination's row.
  void add_wire(int dst, double on_wire, double arrived, double wait_seconds);

  // ---- accessors ----

  [[nodiscard]] int procs() const { return windows_.rows(); }
  [[nodiscard]] int window_count() const { return windows_.window_count(); }
  [[nodiscard]] double window_width() const { return windows_.window_width(); }
  [[nodiscard]] double duration() const { return windows_.duration(); }
  [[nodiscard]] int used_windows() const { return windows_.used_windows(); }
  [[nodiscard]] double value(int proc, Channel channel, int window) const {
    return windows_.value(proc, channel, window);
  }
  /// Conserved totals: total(kCpu) + total(kWait) reconciles with
  /// trace::Stats::exposed_overhead_seconds, total(kWireExposed) /
  /// total(kWireOverlapped) with Stats::wire, total(kCompute) /
  /// total(kBarrier) with the compute / barrier aggregates — to 1e-9, even
  /// when the event trace was capped (tests/tseries_test.cpp).
  [[nodiscard]] double total(Channel channel) const {
    return windows_.channel_total(channel);
  }
  [[nodiscard]] double proc_total(int proc, Channel channel) const {
    return windows_.row_total(proc, channel);
  }

  /// {"kind":"zc-sim-timeline", procs, window_count, window_width,
  ///  duration, channels: {name: [proc][window]}} — windows beyond
  /// used_windows() are omitted (they are identically zero).
  [[nodiscard]] json::Value to_json() const;
  /// proc,channel,window,t0,t1,seconds rows (nonzero cells only).
  [[nodiscard]] std::string to_csv() const;

 private:
  Windows windows_;
};

/// Host-side producer: wall-clock windows written concurrently by worker
/// threads (one mutex — producers are task-grained, never hot).
/// Rows are whatever the caller shards by (sweep: worker contexts);
/// channels are named at construction.
class WallSeries {
 public:
  WallSeries(int rows, std::vector<std::string> channel_names, int window_count = 64,
             double initial_width = 0.25);

  /// Seconds since construction on the steady clock — the time base every
  /// add expects.
  [[nodiscard]] double now() const;

  void add_span(int row, int channel, double t0, double t1);
  void add_at(int row, int channel, double t, double value);

  [[nodiscard]] int rows() const;
  [[nodiscard]] const std::vector<std::string>& channel_names() const { return names_; }

  /// Snapshot under the lock: {"kind":"zc-wall-timeline", rows,
  /// window_count, window_width, duration, channels: {name: [row][window]}}.
  [[nodiscard]] json::Value to_json() const;
  /// Conserved total of one channel across all rows and windows.
  [[nodiscard]] double channel_total(int channel) const;
  /// One row's total for one channel.
  [[nodiscard]] double row_total(int row, int channel) const;
  [[nodiscard]] double window_width() const;
  [[nodiscard]] double duration() const;
  [[nodiscard]] int used_windows() const;
  [[nodiscard]] double value(int row, int channel, int window) const;

 private:
  const std::chrono::steady_clock::time_point origin_ = std::chrono::steady_clock::now();
  std::vector<std::string> names_;
  mutable std::mutex mu_;
  Windows windows_;
};

}  // namespace zc::tseries
