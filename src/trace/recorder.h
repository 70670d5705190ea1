// The Recorder: per-processor bounded event buffers plus always-exact
// aggregate counters, filled by the simulator's hook points.
//
// Tracing is opt-in and null by default: the recorder is one field of the
// simulator's observer seam (sim::Observers, src/sim/observers.h), nullptr
// unless the caller attached one, and each hook's single Observers call
// tests it — a run without a recorder performs no event allocation and no
// aggregate arithmetic (the zero-overhead-when-off contract; e2ebench's
// attribution workload reports what attaching one costs).
//
// The detailed Event / MessageRecord buffers are bounded (RecorderOptions);
// once a cap is hit further records are counted in dropped_events() /
// dropped_messages() and discarded. The aggregates (totals, per-call and
// per-primitive CPU/wait, wire exposure, per-channel and histogram counts)
// are updated on EVERY record regardless of the caps, so trace::Stats
// reconciles exactly with the engine's RunResult even on capped traces.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "src/trace/events.h"

namespace zc::trace {

struct RecorderOptions {
  /// Cap on detailed events kept per processor track.
  std::size_t max_events_per_proc = 1 << 16;
  /// Cap on detailed message lifecycle records.
  std::size_t max_messages = 1 << 16;
};

/// CPU/wait totals for one IRONMAN call slot or one bound primitive.
struct CallTotals {
  long long calls = 0;
  double wait_seconds = 0.0;  ///< blocked on arrival / readiness / drain
  double cpu_seconds = 0.0;   ///< software overhead executing the primitive
};

/// Wire-time decomposition over all consumed messages: `exposed` is the
/// part of the transmission the destination actually waited through at DN
/// (capped at the wire time; waiting for a sender that has not sent yet is
/// load imbalance, not wire exposure), `overlapped` is the rest — the
/// paper's Figure 6 distinction, measured per real message.
struct WireTotals {
  double wire_seconds = 0.0;
  double exposed_seconds = 0.0;
  double overlapped_seconds = 0.0;
  double dn_wait_seconds = 0.0;  ///< full DN wait, including sender lag
};

struct ChannelTotals {
  long long messages = 0;
  long long bytes = 0;
};

/// Exact per-transfer aggregates, keyed by the plan's transfer id (the
/// attribution unit of src/analysis). Never capped: updated on every record
/// like the other aggregates, so per-transfer blame reconciles with
/// trace::Stats even on truncated traces. Key -1 collects untagged records
/// (direct Transport use, e.g. the synthetic ping).
struct TransferTotals {
  std::array<CallTotals, 4> per_call{};  ///< indexed by IronmanCall
  WireTotals wire;
  long long messages = 0;
  long long bytes = 0;

  /// Processor time inside this transfer's IRONMAN calls (wait + CPU) —
  /// the transfer's share of Stats::exposed_overhead_seconds.
  [[nodiscard]] double exposed_overhead_seconds() const {
    double total = 0.0;
    for (const CallTotals& c : per_call) total += c.wait_seconds + c.cpu_seconds;
    return total;
  }
};

class Recorder {
 public:
  explicit Recorder(int procs, RecorderOptions options = {});

  // ---- hook points (called by src/sim when a recorder is attached) ----

  /// One IRONMAN call span on `proc`'s timeline. No-op primitives are not
  /// recorded (the simulator never calls this for them). `transfer` is the
  /// plan's transfer id for the communication the call belongs to (-1 when
  /// the caller has no plan, e.g. the synthetic ping).
  void record_call(int proc, ironman::IronmanCall call, ironman::Primitive primitive,
                   std::int64_t chan, std::int64_t transfer, int src, int dst,
                   std::int64_t bytes, double t_begin, double t_unblocked, double t_end);

  /// Local compute span of one statement execution on `proc`.
  void record_compute(int proc, std::int64_t elems, double t_begin, double t_end);

  /// `proc`'s participation in a global synch / reduction combine.
  void record_barrier(int proc, double t_begin, double t_end);

  /// A message put on the wire. Returns a handle for record_consumed, or
  /// -1 if the detailed record was dropped (aggregates still counted).
  std::int64_t record_message(std::int64_t chan, std::int64_t transfer, int src, int dst,
                              std::int64_t bytes, double t_posted, double t_on_wire,
                              double t_arrived);

  /// The matching DN completed. `wait_seconds` is the destination's full
  /// wait inside DN; `wire_seconds` the message's transmission time — both
  /// passed explicitly (along with the transfer id) so the exposure
  /// aggregates stay exact even when the detailed record was dropped
  /// (`message` == -1).
  void record_consumed(std::int64_t message, std::int64_t transfer, double t_consumed,
                       double wait_seconds, double wire_seconds);

  // ---- accessors ----

  [[nodiscard]] int procs() const { return static_cast<int>(events_.size()); }
  [[nodiscard]] const std::vector<Event>& events(int proc) const;
  [[nodiscard]] const std::vector<MessageRecord>& messages() const { return messages_; }
  [[nodiscard]] long long dropped_events() const { return dropped_events_; }
  [[nodiscard]] long long dropped_messages() const { return dropped_messages_; }

  [[nodiscard]] long long total_messages() const { return total_messages_; }
  [[nodiscard]] long long total_bytes() const { return total_bytes_; }
  [[nodiscard]] const std::array<CallTotals, 4>& call_totals() const { return call_totals_; }
  [[nodiscard]] const std::map<ironman::Primitive, CallTotals>& primitive_totals() const {
    return primitive_totals_;
  }
  [[nodiscard]] const WireTotals& wire_totals() const { return wire_totals_; }
  [[nodiscard]] double compute_seconds() const { return compute_seconds_; }
  [[nodiscard]] double barrier_seconds() const { return barrier_seconds_; }
  [[nodiscard]] long long barrier_count() const { return barrier_count_; }

  /// Per-channel traffic, keyed by (chan, src, dst).
  [[nodiscard]] const std::map<std::tuple<std::int64_t, int, int>, ChannelTotals>&
  channel_totals() const {
    return channel_totals_;
  }

  /// Message-size histogram: key is the bucket's inclusive power-of-two
  /// upper bound in bytes (16 B .. 1 MiB, chosen to straddle the paper's
  /// 4 KB packet knee); the overflow bucket uses kOverflowBucket.
  static constexpr std::int64_t kOverflowBucket = INT64_MAX;
  [[nodiscard]] const std::map<std::int64_t, ChannelTotals>& size_histogram() const {
    return size_histogram_;
  }

  /// The histogram bucket a message of `bytes` lands in.
  static std::int64_t size_bucket(std::int64_t bytes);

  /// Exact per-transfer aggregates (see TransferTotals), keyed by transfer id.
  [[nodiscard]] const std::map<std::int64_t, TransferTotals>& transfer_totals() const {
    return transfer_totals_;
  }

  /// Human-readable label for a transfer id (member arrays + direction),
  /// registered by the engine when tracing starts so exporters can name
  /// spans without reaching back into the plan. Unknown ids yield "".
  void set_transfer_label(std::int64_t transfer, std::string label);
  [[nodiscard]] const std::string& transfer_label(std::int64_t transfer) const;

 private:
  void push_event(const Event& event);

  RecorderOptions options_;
  std::vector<std::vector<Event>> events_;  // one track per processor
  std::vector<MessageRecord> messages_;
  long long dropped_events_ = 0;
  long long dropped_messages_ = 0;

  // Exact aggregates (never capped).
  long long total_messages_ = 0;
  long long total_bytes_ = 0;
  std::array<CallTotals, 4> call_totals_{};  // indexed by IronmanCall
  std::map<ironman::Primitive, CallTotals> primitive_totals_;
  WireTotals wire_totals_;
  double compute_seconds_ = 0.0;
  double barrier_seconds_ = 0.0;
  long long barrier_count_ = 0;
  std::map<std::tuple<std::int64_t, int, int>, ChannelTotals> channel_totals_;
  std::map<std::int64_t, ChannelTotals> size_histogram_;
  std::map<std::int64_t, TransferTotals> transfer_totals_;
  std::map<std::int64_t, std::string> transfer_labels_;
};

}  // namespace zc::trace
