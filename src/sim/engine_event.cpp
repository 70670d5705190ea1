// The event-driven engine core: executes the compiled bytecode
// (src/sim/bytecode.h) over per-processor virtual clocks.
//
// Why one walker is exact. Mini-ZPL has no processor-divergent control
// flow, so every processor executes the same instruction sequence; the only
// per-processor divergence is in clock values and array contents. A single
// walker stepping the flat instruction stream in program order therefore
// reproduces the lockstep core's global order of every observable call —
// transport DR/SR/DN/SV, recorder events, timeline events, compute hooks —
// exactly, not merely its aggregates. Per instruction it touches only the
// processors the instruction concerns (the statement's active set, a
// message's endpoints), which is what drops the per-statement cost from
// O(procs) to O(active).
//
// Why the clocks stay bit-identical. Uniform all-processor bumps (scalar
// statements, branches, loop bookkeeping) go through the deferred bump log
// in EventState, replayed per processor in the original order — float
// addition is not associative, so the amounts are never coalesced. Barriers
// (reductions, the SHMEM global synch) leave every clock equal, which both
// empties and compacts the log. DESIGN.md §13 states the full argument.
#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "src/prof/prof.h"
#include "src/sim/bytecode.h"
#include "src/sim/engine.h"
#include "src/support/check.h"
#include "src/support/diag.h"

namespace zc::sim {

namespace {

/// Exact (bitwise) clock comparison: the pristine fast path must never
/// conflate 0.0 with -0.0 or otherwise round.
bool bits_equal(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

/// Compact the bump log once it holds this many deferred entries (replaying
/// everyone is O(procs + entries); the threshold just bounds memory and the
/// worst-case single replay).
constexpr std::size_t kBumpCompactThreshold = 1u << 16;

}  // namespace

// ---------------------------------------------------------------------------
// Deferred clock bumps.

void Engine::ev_bump(double amount) {
  ev_->bump_log.push_back(amount);
  if (ev_->bump_log.size() >= kBumpCompactThreshold) ev_compact_bumps();
}

void Engine::ev_advance_pristine() {
  EventState& ev = *ev_;
  for (; ev.pristine_len < ev.bump_log.size(); ++ev.pristine_len) {
    ev.pristine_value += ev.bump_log[ev.pristine_len];
  }
}

void Engine::ev_touch(int proc) {
  EventState& ev = *ev_;
  const std::size_t n = ev.bump_log.size();
  std::size_t& cur = ev.bump_cursor[static_cast<std::size_t>(proc)];
  if (cur == n) return;
  double& c = clock_[static_cast<std::size_t>(proc)];
  if (cur == 0 && bits_equal(c, ev.pristine_base)) {
    // Untouched since the last barrier/compaction: every such processor
    // replays the identical prefix, memoized in pristine_value.
    ev_advance_pristine();
    c = ev.pristine_value;
    cur = n;
    return;
  }
  for (; cur < n; ++cur) c += ev.bump_log[cur];
}

void Engine::ev_materialize_all() {
  for (int proc = 0; proc < mesh_.procs(); ++proc) ev_touch(proc);
}

void Engine::ev_compact_bumps() {
  EventState& ev = *ev_;
  ev_materialize_all();
  ev.bump_log.clear();
  std::fill(ev.bump_cursor.begin(), ev.bump_cursor.end(), 0);
  // Processors that were pristine materialized to pristine_value; rebasing
  // keeps them on the fast path.
  ev.pristine_base = ev.pristine_value;
  ev.pristine_len = 0;
}

void Engine::ev_barrier_reset(double t) {
  EventState& ev = *ev_;
  ev.bump_log.clear();
  std::fill(ev.bump_cursor.begin(), ev.bump_cursor.end(), 0);
  ev.pristine_base = t;
  ev.pristine_value = t;
  ev.pristine_len = 0;
}

// ---------------------------------------------------------------------------
// Statements.

void Engine::ev_exec_assign(CompiledAssign& ca) {
  const zir::Stmt& stmt = *ca.stmt;
  const rt::Box region = ca.region_static ? ca.static_box : rt::eval_region(*stmt.region, env_);
  if (region.empty()) return;
  if (!declared_[stmt.lhs_array.index()].contains(region)) {
    throw Error("statement region " + region.to_string() + " exceeds the declared region of '" +
                p_.array(stmt.lhs_array).name + "'");
  }
  EventState& ev = *ev_;
  const std::size_t a = static_cast<std::size_t>(ca.lhs_array);

  const auto run_one = [&](int proc, const rt::Box& local, double cost) {
    const std::vector<double>& buf =
        eval_expr_prog(ca.rhs, p_, arrays_[proc], scalars_, env_, local, ev.scratch);
    arrays_[proc][a].write_box(local, buf.data());
    ev_touch(proc);
    const double t0 = clock_[proc];
    clock_[proc] += cost;
    obs_.compute(proc, local, t0, clock_[proc]);
  };

  if (ca.region_static) {
    if (!ca.actives_ready) {
      for (int proc = 0; proc < mesh_.procs(); ++proc) {
        const rt::Box& owned = arrays_[proc][a].owned();
        if (owned.empty()) continue;
        const rt::Box local = region.intersect(owned);
        if (local.empty()) continue;
        const double cost = cfg_.machine.stmt_overhead +
                            static_cast<double>(local.count()) * ca.per_elem_cost;
        ca.actives.push_back({proc, local, cost});
      }
      ca.actives_ready = true;
    }
    for (const CompiledAssign::Active& act : ca.actives) run_one(act.proc, act.local, act.cost);
    return;
  }
  // A loop-variable region is evaluated afresh each time. dist_.owners is
  // an ascending superset of the processors whose owned block meets it (as
  // in ev_build_geometry), so the same filter visits the same processors in
  // the same order as a 0..P-1 scan.
  for (const int proc : dist_.owners(region)) {
    const rt::Box& owned = arrays_[proc][a].owned();
    if (owned.empty()) continue;
    const rt::Box local = region.intersect(owned);
    if (local.empty()) continue;
    const double cost =
        cfg_.machine.stmt_overhead + static_cast<double>(local.count()) * ca.per_elem_cost;
    run_one(proc, local, cost);
  }
}

void Engine::ev_exec_reduce(CompiledReduce& cr) {
  const zir::Stmt& stmt = *cr.stmt;
  const rt::Box region = cr.region_static ? cr.static_box : rt::eval_region(*stmt.region, env_);
  EventState& ev = *ev_;
  std::vector<double>& global = ev.reduce_global;
  global.clear();
  for (const zir::ReduceOp op : cr.ops) global.push_back(rt::reduce_identity(op));

  // Lockstep combines every processor's partial in rank order, the
  // identity for each processor without a part of the region. Combining
  // the identity is not always a bitwise no-op (-0.0 + 0.0 = +0.0), but it
  // is idempotent after the first application, so one combine stands in
  // for each run of inactive processors and only active ones are visited.
  const auto combine_identity = [&] {
    for (std::size_t k = 0; k < cr.ops.size(); ++k) {
      global[k] = rt::reduce_combine(cr.ops[k], global[k], rt::reduce_identity(cr.ops[k]));
    }
  };
  // dist_.owners is an ascending superset of the active processors; dims
  // past the distribution's rank are whole on every processor.
  rt::Box probe = region;
  probe.rank = std::min(region.rank, dist_.space().rank);
  const std::vector<int> candidates =
      region.empty() ? std::vector<int>{} : dist_.owners(probe);
  int next = 0;  // the first processor not yet combined
  for (const int proc : candidates) {
    // Crop the owned box to the region's rank (a rank-2 reduction in a
    // rank-3 program reduces over dims 0 and 1 only) — as in lockstep.
    rt::Box owned = dist_.owned(proc);
    owned.rank = region.rank;
    for (int d = dist_.space().rank; d < region.rank; ++d) {
      owned.lo[d] = region.lo[d];
      owned.hi[d] = region.hi[d];
    }
    const rt::Box local = region.intersect(owned);
    if (local.empty()) continue;
    if (proc > next) combine_identity();
    next = proc + 1;
    for (std::size_t k = 0; k < cr.ops.size(); ++k) {
      const std::vector<double>& buf =
          eval_expr_prog(cr.operands[k], p_, arrays_[proc], scalars_, env_, local, ev.scratch);
      double acc = rt::reduce_identity(cr.ops[k]);
      for (const double x : buf) acc = rt::reduce_combine(cr.ops[k], acc, x);
      global[k] = rt::reduce_combine(cr.ops[k], global[k], acc);
    }
    ev_touch(proc);
    const double t0 = clock_[proc];
    clock_[proc] += cfg_.machine.stmt_overhead +
                    static_cast<double>(local.count()) * cr.per_elem_cost;
    obs_.compute(proc, local, t0, clock_[proc]);
  }
  if (next < mesh_.procs()) combine_identity();

  ev_materialize_all();
  allreduce_clocks(cfg_.machine.reduce_stage_overhead);
  ev_barrier_reset(clock_[0]);
  ++reduction_count_;

  const rt::EvalContext ctx = context_for(0);
  scalars_[stmt.lhs_scalar.index()] = evaluator_.eval_scalar(ctx, stmt.rhs, global);
}

// ---------------------------------------------------------------------------
// Communication.

void Engine::ev_build_geometry(const CompiledGroup& cg,
                               const std::vector<rt::Box>& member_boxes, CommGeometry& geom) {
  const std::vector<int>& offsets = p_.direction(cg.group->direction).offsets;

  // Messages stay in first-seen (src, dst) order; the index only finds a
  // pair's slot without scanning every message built so far.
  std::unordered_map<long long, std::size_t> slot_index;
  const auto slot_for = [&](int src, int dst) -> CommGeometry::Msg& {
    const long long key = static_cast<long long>(src) * mesh_.procs() + dst;
    const auto [it, inserted] = slot_index.try_emplace(key, geom.msgs.size());
    if (inserted) {
      geom.msgs.emplace_back();
      geom.msgs.back().src = src;
      geom.msgs.back().dst = dst;
    }
    return geom.msgs[it->second];
  };

  for (std::size_t i = 0; i < cg.members.size(); ++i) {
    const std::size_t a = static_cast<std::size_t>(cg.members[i].array);
    const rt::Box& region = member_boxes[i];
    const rt::Box& declared = declared_[a];
    if (region.empty()) continue;

    // dist_.owners(region) is a superset of the processors whose clamped
    // owned block meets the region (clamping only shrinks within the
    // distributed dims), ascending — so filtering by the same emptiness
    // checks as lockstep's 0..P-1 scan visits the same dsts in the same
    // order without touching idle processors.
    for (const int dst : dist_.owners(region)) {
      const rt::Box& owned_dst = arrays_[dst][a].owned();
      if (owned_dst.empty()) continue;
      const rt::Box use_local = region.intersect(owned_dst);
      if (use_local.empty()) continue;
      const rt::Box needed = use_local.shifted(offsets).intersect(declared);
      for (const rt::Box& piece : needed.subtract(owned_dst)) {
        for (const int src : dist_.owners(piece)) {
          if (src == dst) continue;
          const rt::Box slice = piece.intersect(arrays_[src][a].owned());
          if (slice.empty()) continue;
          CommGeometry::Msg& msg = slot_for(src, dst);
          msg.parts.push_back({cg.members[i].array, slice});
          msg.bytes += slice.count() * static_cast<long long>(sizeof(double));
        }
      }
    }
  }

  for (CommGeometry::Msg& msg : geom.msgs) {
    msg.channel = transport_.channel_handle(cg.group->id, msg.src, msg.dst);
    geom.participants.push_back(msg.src);
    geom.participants.push_back(msg.dst);
  }
  std::sort(geom.participants.begin(), geom.participants.end());
  geom.participants.erase(std::unique(geom.participants.begin(), geom.participants.end()),
                          geom.participants.end());
}

CommGeometry& Engine::ev_resolve_geometry(CompiledGroup& cg) {
  ZC_ASSERT(cg.outstanding == nullptr);  // at most one outstanding execution
  if (cg.all_static) {
    if (!cg.static_ready) {
      ev_->member_boxes.clear();
      for (const CompiledGroup::MemberSpec& m : cg.members) {
        ev_->member_boxes.push_back(m.static_box);
      }
      ev_build_geometry(cg, ev_->member_boxes, cg.static_geom);
      cg.static_ready = true;
    }
    cg.outstanding = &cg.static_geom;
    return cg.static_geom;
  }

  std::vector<rt::Box>& boxes = ev_->member_boxes;
  boxes.clear();
  std::vector<long long>& key = ev_->geom_key;
  key.clear();
  for (const CompiledGroup::MemberSpec& m : cg.members) {
    boxes.push_back(m.is_static ? m.static_box : rt::eval_region(*m.region, env_));
    const rt::Box& b = boxes.back();
    key.push_back(b.rank);
    for (int d = 0; d < b.rank; ++d) {
      key.push_back(b.lo[d]);
      key.push_back(b.hi[d]);
    }
  }
  const auto [it, inserted] = cg.dynamic_geoms.try_emplace(key);
  if (inserted) ev_build_geometry(cg, boxes, it->second);
  cg.outstanding = &it->second;
  return it->second;
}

void Engine::ev_comm_dr(CompiledGroup& cg) {
  CommGeometry& geom = ev_resolve_geometry(cg);

  // The paper's dynamic count and the per-processor participation counters,
  // exactly as lockstep's build_group_exec tallies them at DR time.
  ++dynamic_comm_count_;
  for (const int proc : geom.participants) ++counters_[proc].communications;

  transport_.set_transfer(cg.group->transfer_id);
  if (transport_.dr_is_global_synch()) {
    // SHMEM prototype: the DR synch is a global barrier executed by every
    // processor, with data to move or not.
    ev_materialize_all();
    transport_.global_synch(clock_);
    ev_barrier_reset(clock_[0]);
    for (const CommGeometry::Msg& msg : geom.msgs) {
      transport_.post_readiness(cg.group->id, msg.src, msg.dst, clock_[msg.dst]);
    }
    return;
  }
  for (CommGeometry::Msg& msg : geom.msgs) {
    ev_touch(msg.dst);
    transport_.dr(msg.channel, cg.group->id, msg.src, msg.dst, msg.bytes, clock_[msg.dst]);
  }
}

void Engine::ev_comm_sr(CompiledGroup& cg) {
  ZC_ASSERT(cg.outstanding != nullptr);
  CommGeometry& geom = *cg.outstanding;
  transport_.set_transfer(cg.group->transfer_id);
  for (CommGeometry::Msg& msg : geom.msgs) {
    // Capture the payload now: pipelining is only correct if the data at SR
    // equals the data at use (the optimizer's legality rules guarantee it).
    msg.payload.clear();
    msg.payload.reserve(static_cast<std::size_t>(msg.bytes / sizeof(double)));
    for (const CommGeometry::Part& part : msg.parts) {
      const std::size_t at = msg.payload.size();
      msg.payload.resize(at + static_cast<std::size_t>(part.box.count()));
      arrays_[msg.src][static_cast<std::size_t>(part.array)].read_box(
          part.box, msg.payload.data() + at);
    }
    ev_touch(msg.src);
    transport_.sr(msg.channel, cg.group->id, msg.src, msg.dst, msg.bytes, clock_[msg.src]);
    ++counters_[msg.src].messages_sent;
    counters_[msg.src].bytes_sent += msg.bytes;
  }
}

void Engine::ev_comm_dn(CompiledGroup& cg) {
  ZC_ASSERT(cg.outstanding != nullptr);
  CommGeometry& geom = *cg.outstanding;
  transport_.set_transfer(cg.group->transfer_id);
  for (CommGeometry::Msg& msg : geom.msgs) {
    ev_touch(msg.dst);
    transport_.dn(msg.channel, cg.group->id, msg.src, msg.dst, msg.bytes, clock_[msg.dst]);
    std::size_t at = 0;
    for (const CommGeometry::Part& part : msg.parts) {
      arrays_[msg.dst][static_cast<std::size_t>(part.array)].write_box(
          part.box, msg.payload.data() + at);
      at += static_cast<std::size_t>(part.box.count());
    }
    // Cleared but NOT shrunk: the cached geometry doubles as the payload
    // allocation pool, so steady state moves data without allocating.
    msg.payload.clear();
    ++counters_[msg.dst].messages_received;
    counters_[msg.dst].bytes_received += msg.bytes;
  }
}

void Engine::ev_comm_sv(CompiledGroup& cg) {
  ZC_ASSERT(cg.outstanding != nullptr);
  CommGeometry& geom = *cg.outstanding;
  transport_.set_transfer(cg.group->transfer_id);
  for (const CommGeometry::Msg& msg : geom.msgs) {
    ev_touch(msg.src);
    transport_.sv(msg.channel, cg.group->id, msg.src, msg.dst, msg.bytes, clock_[msg.src]);
  }
  cg.outstanding = nullptr;
}

// ---------------------------------------------------------------------------
// The instruction loop.

void Engine::run_event() {
  {
    ZC_PROF_SPAN("sim/compile");
    ev_ = std::make_unique<EventState>();
    ev_->sim = compile_sim(p_, plan_, env_, cfg_.machine);
    ev_->bump_cursor.assign(static_cast<std::size_t>(mesh_.procs()), 0);
  }
  EventState& ev = *ev_;
  CompiledSim& cs = ev.sim;

  std::int32_t pc = 0;
  for (;;) {
    const Inst in = cs.code[static_cast<std::size_t>(pc)];
    switch (in.op) {
      case Inst::Op::kAssign:
        ev_exec_assign(cs.assigns[static_cast<std::size_t>(in.a)]);
        ++pc;
        break;
      case Inst::Op::kScalar: {
        const zir::Stmt& s = *cs.scalar_stmts[static_cast<std::size_t>(in.a)].stmt;
        const rt::EvalContext ctx = context_for(0);
        scalars_[s.lhs_scalar.index()] = evaluator_.eval_scalar(ctx, s.rhs, {});
        ev_bump(cfg_.machine.scalar_stmt_time);
        ++pc;
        break;
      }
      case Inst::Op::kReduce:
        ev_exec_reduce(cs.reduces[static_cast<std::size_t>(in.a)]);
        ++pc;
        break;
      case Inst::Op::kCommDR:
        ev_comm_dr(cs.groups[static_cast<std::size_t>(in.a)]);
        ++pc;
        break;
      case Inst::Op::kCommSR:
        ev_comm_sr(cs.groups[static_cast<std::size_t>(in.a)]);
        ++pc;
        break;
      case Inst::Op::kCommDN:
        ev_comm_dn(cs.groups[static_cast<std::size_t>(in.a)]);
        ++pc;
        break;
      case Inst::Op::kCommSV:
        ev_comm_sv(cs.groups[static_cast<std::size_t>(in.a)]);
        ++pc;
        break;
      case Inst::Op::kForInit: {
        const zir::Stmt& s = *cs.loops[static_cast<std::size_t>(in.a)].stmt;
        const long long lo = s.lo.eval(env_);
        const long long hi = s.hi.eval(env_);
        if (s.step > 0 ? lo > hi : lo < hi) {
          pc = in.b;  // empty range: no frame, no bookkeeping charge
          break;
        }
        EventState::ForFrame f;
        f.loop = in.a;
        f.i = lo;
        f.hi = hi;
        f.step = s.step;
        const std::size_t v = s.loop_var.index();
        f.was_bound = env_.loop_bound[v];
        f.old_value = env_.loop_values[v];
        env_.loop_bound[v] = true;
        env_.loop_values[v] = lo;
        ev.for_stack.push_back(f);
        ev_bump(cfg_.machine.scalar_stmt_time);  // loop bookkeeping, as lockstep
        ++pc;
        break;
      }
      case Inst::Op::kForNext: {
        EventState::ForFrame& f = ev.for_stack.back();
        const zir::Stmt& s = *cs.loops[static_cast<std::size_t>(f.loop)].stmt;
        const std::size_t v = s.loop_var.index();
        f.i += f.step;
        if (f.step > 0 ? f.i <= f.hi : f.i >= f.hi) {
          env_.loop_values[v] = f.i;
          ev_bump(cfg_.machine.scalar_stmt_time);
          pc = in.b;
        } else {
          env_.loop_bound[v] = f.was_bound;
          env_.loop_values[v] = f.old_value;
          ev.for_stack.pop_back();
          ++pc;
        }
        break;
      }
      case Inst::Op::kIf: {
        const zir::Stmt& s = *cs.ifs[static_cast<std::size_t>(in.a)].stmt;
        const rt::EvalContext ctx = context_for(0);
        const double cond = evaluator_.eval_scalar(ctx, s.cond, {});
        ev_bump(cfg_.machine.scalar_stmt_time);
        pc = cond != 0.0 ? pc + 1 : in.b;
        break;
      }
      case Inst::Op::kJump:
        pc = in.b;
        break;
      case Inst::Op::kHalt: {
        ev_materialize_all();
        for (const CompiledGroup& cg : cs.groups) ZC_ASSERT(cg.outstanding == nullptr);
        ZC_ASSERT(ev.for_stack.empty());
        return;
      }
    }
  }
}

}  // namespace zc::sim
