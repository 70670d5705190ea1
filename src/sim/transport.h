// Timing simulation of the communication primitives behind the IRONMAN
// bindings. The Transport is pure timing: it advances per-processor virtual
// clocks and tracks in-flight messages per channel; actual payload movement
// is the engine's job (or nobody's, for the synthetic ping benchmark).
//
// Model per primitive (LogGP-flavoured):
//   csend/pvm_send   CPU: o + bytes·g (+ per-packet charge); buffered — the
//                    sender proceeds when the copy completes. Arrival at the
//                    destination after wire latency + bytes/bandwidth.
//   crecv/pvm_recv   waits for arrival, then pays o + bytes·g (copy out).
//   isend/hsend      CPU: o only (co-processor DMA); the source buffer is
//                    busy until the wire drains (msgwait at SV).
//   irecv/hprobe     CPU: o (posting).
//   msgwait          waits for the tracked completion, then o.
//   hrecv            waits for arrival, then o (handler dispatch).
//   shmem_put        one-sided: waits for the destination's readiness flag
//                    (posted by DR = synch), then CPU-stores the data:
//                    o + bytes·g; arrival after wire latency.
//   synch (DR)       destination posts a readiness flag to its source.
//   synch (DN)       destination waits for the put's arrival flag.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <tuple>
#include <vector>

#include "src/ironman/ironman.h"
#include "src/machine/model.h"
#include "src/sim/observers.h"

namespace zc::sim {

class Transport {
 public:
  Transport(const machine::MachineModel& machine, ironman::CommLibrary library);

  /// Attaches the run's observers (observers.h): every IRONMAN call, sent and
  /// consumed message and barrier is reported to them. Both null by default.
  void set_observers(Observers observers) { obs_ = observers; }

  /// Sets the plan transfer id stamped into subsequently recorded calls and
  /// message lifecycles (the engine sets it per CommGroup before issuing the
  /// group's calls). -1 — the default — marks records as untagged; callers
  /// without a plan (ping, direct tests) never need to touch this.
  void set_transfer(std::int64_t transfer) { transfer_ = transfer; }

  /// The four IRONMAN calls for one message of `bytes` on the channel
  /// `(chan, src, dst)`. `t_dst` / `t_src` are the endpoint clocks,
  /// advanced in place. Calls for one message must be issued in DR, SR,
  /// DN, SV order (the engine's statement-ordered execution guarantees
  /// this).
  void dr(int64_t chan, int src, int dst, int64_t bytes, double& t_dst);
  void sr(int64_t chan, int src, int dst, int64_t bytes, double& t_src);
  void dn(int64_t chan, int src, int dst, int64_t bytes, double& t_dst);
  void sv(int64_t chan, int src, int dst, int64_t bytes, double& t_src);

  /// A pre-resolved channel: stable for the life of the Transport (channel
  /// state lives in std::map nodes), so hot callers — the engine's cached
  /// message geometries — skip the map lookup on every call. Handle calls
  /// are bit-identical to the map-keyed forms above.
  class ChannelHandle {
   public:
    ChannelHandle() = default;

   private:
    friend class Transport;
    explicit ChannelHandle(void* ch) : ch_(ch) {}
    void* ch_ = nullptr;
  };
  [[nodiscard]] ChannelHandle channel_handle(int64_t chan, int src, int dst);

  /// Handle forms of the four calls; `chan` is still passed for trace
  /// records, which key on the channel id.
  void dr(ChannelHandle h, int64_t chan, int src, int dst, int64_t bytes, double& t_dst);
  void sr(ChannelHandle h, int64_t chan, int src, int dst, int64_t bytes, double& t_src);
  void dn(ChannelHandle h, int64_t chan, int src, int dst, int64_t bytes, double& t_dst);
  void sv(ChannelHandle h, int64_t chan, int src, int dst, int64_t bytes, double& t_src);

  /// True when the DR binding synchronizes globally: the SHMEM prototype's
  /// heavyweight synch is modeled as a barrier over all processors (the
  /// behaviour behind the paper's TOMCATV/SP degradation under SHMEM).
  [[nodiscard]] bool dr_is_global_synch() const;

  /// Applies the barrier cost model to every clock: all advance to the max
  /// plus the participation overhead and the combine-tree stages.
  void global_synch(std::vector<double>& clocks) const;

  /// Posts a readiness flag on a channel without CPU cost (the cost was
  /// paid by global_synch). Gates the subsequent shmem_put.
  void post_readiness(int64_t chan, int src, int dst, double when);

  /// The exposed (CPU-side) cost of a full DR/SR/DN/SV set for one message
  /// when the transmission itself is fully overlapped by computation —
  /// what the paper's Figure 6 synthetic benchmark measures.
  [[nodiscard]] double exposed_overhead(int64_t bytes) const;

  /// Wire time: latency plus bytes over link bandwidth.
  [[nodiscard]] double wire_time(int64_t bytes) const;

  /// Number of in-flight (sent, not yet received) messages; for tests.
  [[nodiscard]] std::size_t in_flight() const;

 private:
  /// Per-message observer state paralleling `arrivals` (maintained while
  /// an observer is attached).
  struct WireRecord {
    int64_t id = -1;        ///< Observers::send handle (-1 = none kept)
    int64_t transfer = -1;  ///< transfer id at send time (survives the cap)
    double on_wire = 0.0;
    double arrived = 0.0;
  };

  struct Channel {
    std::deque<double> readiness;       ///< DR flags awaiting the source
    std::deque<double> arrivals;        ///< message arrival times for DN
    std::deque<double> send_completes;  ///< for SV = msgwait bindings
    std::deque<WireRecord> wire_records;  ///< FIFO twin of `arrivals` when observed
  };

  Channel& channel(int64_t chan, int src, int dst);

  const machine::MachineModel machine_;
  const ironman::CommLibrary library_;
  const bool sv_waits_;
  std::map<std::tuple<int64_t, int, int>, Channel> channels_;
  Observers obs_;
  int64_t transfer_ = -1;  ///< stamped into trace records (see set_transfer)
};

}  // namespace zc::sim
