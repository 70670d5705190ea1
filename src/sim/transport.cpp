#include "src/sim/transport.h"

#include <algorithm>

#include "src/support/check.h"

namespace zc::sim {

using ironman::CommLibrary;
using ironman::IronmanCall;
using ironman::Primitive;

Transport::Transport(const machine::MachineModel& machine, ironman::CommLibrary library)
    : machine_(machine),
      library_(library),
      sv_waits_(ironman::binding(library, IronmanCall::kSV) == Primitive::kMsgwaitSend) {
  ZC_ASSERT(machine::library_available(machine_.kind, library_));
}

Transport::Channel& Transport::channel(int64_t chan, int src, int dst) {
  return channels_[{chan, src, dst}];
}

Transport::ChannelHandle Transport::channel_handle(int64_t chan, int src, int dst) {
  return ChannelHandle(&channel(chan, src, dst));
}

double Transport::wire_time(int64_t bytes) const {
  return machine_.wire_latency +
         static_cast<double>(bytes) * machine_.channel_per_byte(library_);
}

void Transport::dr(int64_t chan, int src, int dst, int64_t bytes, double& t_dst) {
  dr(channel_handle(chan, src, dst), chan, src, dst, bytes, t_dst);
}

void Transport::dr(ChannelHandle h, int64_t chan, int src, int dst, int64_t bytes,
                   double& t_dst) {
  const Primitive prim = ironman::binding(library_, IronmanCall::kDR);
  const double begin = t_dst;
  switch (prim) {
    case Primitive::kNoOp:
      return;
    case Primitive::kIrecv:
    case Primitive::kHprobe:
      // Posting the receive costs CPU but creates no tracked state in this
      // model (arrival timing is independent of posting time).
      t_dst += machine_.primitive_cpu_cost(prim, bytes);
      break;
    case Primitive::kSynchPost: {
      // Destination announces buffer readiness to its source; the flag
      // crosses the wire and gates the source's shmem_put.
      t_dst += machine_.primitive_cpu_cost(prim, bytes);
      static_cast<Channel*>(h.ch_)->readiness.push_back(t_dst + machine_.wire_latency);
      break;
    }
    default:
      ZC_ASSERT(false);
  }
  obs_.call(dst, IronmanCall::kDR, prim, chan, transfer_, src, dst, bytes, begin, begin, t_dst);
}

void Transport::sr(int64_t chan, int src, int dst, int64_t bytes, double& t_src) {
  sr(channel_handle(chan, src, dst), chan, src, dst, bytes, t_src);
}

void Transport::sr(ChannelHandle h, int64_t chan, int src, int dst, int64_t bytes,
                   double& t_src) {
  const Primitive prim = ironman::binding(library_, IronmanCall::kSR);
  Channel& ch = *static_cast<Channel*>(h.ch_);
  const double begin = t_src;
  double unblocked = begin;  // when the call stopped waiting (gated sends)
  double on_wire = 0.0;      // when the first byte leaves the source
  double arrival = 0.0;
  switch (prim) {
    case Primitive::kCsend:
    case Primitive::kPvmSend: {
      // Blocking buffered send: the CPU copies/packs, then the message is
      // on the wire; the source may proceed immediately after the copy.
      t_src += machine_.primitive_cpu_cost(prim, bytes);
      on_wire = t_src;
      arrival = t_src + wire_time(bytes);
      ch.arrivals.push_back(arrival);
      if (sv_waits_) ch.send_completes.push_back(t_src);
      break;
    }
    case Primitive::kIsend:
    case Primitive::kHsend: {
      // Asynchronous: heavy posting overhead, then the co-processor drains
      // the user buffer onto the wire; buffer reusable once drained.
      t_src += machine_.primitive_cpu_cost(prim, bytes);
      const double drained = t_src + static_cast<double>(bytes) * machine_.wire_per_byte;
      on_wire = t_src;
      arrival = t_src + wire_time(bytes);
      ch.arrivals.push_back(arrival);
      if (sv_waits_) ch.send_completes.push_back(drained);
      break;
    }
    case Primitive::kShmemPut: {
      // One-sided put, gated on the destination's readiness flag.
      ZC_ASSERT(!ch.readiness.empty());
      const double ready = ch.readiness.front();
      ch.readiness.pop_front();
      unblocked = std::max(t_src, ready);
      t_src = unblocked + machine_.primitive_cpu_cost(prim, bytes);
      on_wire = unblocked;  // the CPU store streams straight onto the wire
      arrival = t_src + machine_.wire_latency;
      ch.arrivals.push_back(arrival);
      if (sv_waits_) ch.send_completes.push_back(t_src);
      break;
    }
    default:
      ZC_ASSERT(false);
  }
  obs_.call(src, IronmanCall::kSR, prim, chan, transfer_, src, dst, bytes, begin, unblocked,
            t_src);
  if (obs_.any()) {
    const int64_t id = obs_.send(chan, transfer_, src, dst, bytes, begin, on_wire, arrival);
    ch.wire_records.push_back({id, transfer_, on_wire, arrival});
  }
}

void Transport::dn(int64_t chan, int src, int dst, int64_t bytes, double& t_dst) {
  dn(channel_handle(chan, src, dst), chan, src, dst, bytes, t_dst);
}

void Transport::dn(ChannelHandle h, int64_t chan, int src, int dst, int64_t bytes,
                   double& t_dst) {
  const Primitive prim = ironman::binding(library_, IronmanCall::kDN);
  Channel& ch = *static_cast<Channel*>(h.ch_);
  ZC_ASSERT(!ch.arrivals.empty());
  const double arrival = ch.arrivals.front();
  ch.arrivals.pop_front();
  const double begin = t_dst;
  const double unblocked = std::max(begin, arrival);
  switch (prim) {
    case Primitive::kCrecv:
    case Primitive::kPvmRecv:
      // Wait for arrival, then copy/unpack out of the system buffer.
      t_dst = unblocked + machine_.primitive_cpu_cost(prim, bytes);
      break;
    case Primitive::kMsgwaitRecv:
    case Primitive::kHrecv:
    case Primitive::kSynchWait:
      // Completion wait; data was deposited directly (DMA / put).
      t_dst = unblocked + machine_.primitive_cpu_cost(prim, bytes);
      break;
    default:
      ZC_ASSERT(false);
  }
  obs_.call(dst, IronmanCall::kDN, prim, chan, transfer_, src, dst, bytes, begin, unblocked,
            t_dst);
  // The wire-record FIFO twins `arrivals`; it can be short only if the
  // observers were attached after traffic was already in flight. The
  // transfer id comes from the wire record (stamped at send time), not
  // from transfer_: the consuming DN may belong to a different group's
  // call slot only in hand-driven tests, never in engine runs.
  if (obs_.any() && !ch.wire_records.empty()) {
    const WireRecord wr = ch.wire_records.front();
    ch.wire_records.pop_front();
    obs_.consumed(dst, wr.id, wr.transfer, t_dst, unblocked - begin, wr.on_wire, wr.arrived);
  }
}

void Transport::sv(int64_t chan, int src, int dst, int64_t bytes, double& t_src) {
  sv(channel_handle(chan, src, dst), chan, src, dst, bytes, t_src);
}

void Transport::sv(ChannelHandle h, int64_t chan, int src, int dst, int64_t bytes,
                   double& t_src) {
  const Primitive prim = ironman::binding(library_, IronmanCall::kSV);
  switch (prim) {
    case Primitive::kNoOp:
      return;
    case Primitive::kMsgwaitSend: {
      Channel& ch = *static_cast<Channel*>(h.ch_);
      ZC_ASSERT(!ch.send_completes.empty());
      const double complete = ch.send_completes.front();
      ch.send_completes.pop_front();
      const double begin = t_src;
      const double unblocked = std::max(begin, complete);
      t_src = unblocked + machine_.primitive_cpu_cost(prim, bytes);
      obs_.call(src, IronmanCall::kSV, prim, chan, transfer_, src, dst, bytes, begin, unblocked,
                t_src);
      return;
    }
    default:
      ZC_ASSERT(false);
  }
}

bool Transport::dr_is_global_synch() const {
  return ironman::binding(library_, IronmanCall::kDR) == Primitive::kSynchPost;
}

void Transport::global_synch(std::vector<double>& clocks) const {
  const int stages = machine::barrier_stages(static_cast<int>(clocks.size()));
  synchronize(clocks, machine_.synch_post.overhead + stages * machine_.synch_stage, obs_);
}

void Transport::post_readiness(int64_t chan, int src, int dst, double when) {
  channel(chan, src, dst).readiness.push_back(when + machine_.wire_latency);
}

double Transport::exposed_overhead(int64_t bytes) const {
  double total = 0.0;
  for (const IronmanCall call :
       {IronmanCall::kDR, IronmanCall::kSR, IronmanCall::kDN, IronmanCall::kSV}) {
    total += machine_.primitive_cpu_cost(ironman::binding(library_, call), bytes);
  }
  // The SHMEM prototype's DR synch is a barrier: BOTH endpoints pay the
  // participation overhead, not just the destination.
  if (dr_is_global_synch()) total += machine_.synch_post.overhead;
  return total;
}

std::size_t Transport::in_flight() const {
  std::size_t n = 0;
  for (const auto& [key, ch] : channels_) n += ch.arrivals.size();
  return n;
}

}  // namespace zc::sim
