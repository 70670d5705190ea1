#include "src/sim/engine.h"

#include <algorithm>

#include "src/prof/prof.h"
#include "src/sim/bytecode.h"
#include "src/support/check.h"
#include "src/support/diag.h"

namespace zc::sim {

namespace {

zir::IntEnv make_env(const zir::Program& p, const std::map<std::string, long long>& overrides) {
  zir::IntEnv env = p.default_env();
  for (const auto& [name, value] : overrides) {
    const zir::ConfigId id = p.find_config(name);
    if (!id.valid()) throw Error("config override for unknown config '" + name + "'");
    env.config_values[id.index()] = value;
  }
  return env;
}

rt::Mesh make_mesh(const zir::Program& p, int procs) {
  if (procs < 1) throw Error("processor count must be >= 1");
  if (p.rank() <= 1) return rt::Mesh{procs, 1};
  return rt::Mesh::near_square(procs);
}

}  // namespace

/// One in-progress execution of a CommGroup: the point-to-point messages it
/// decomposes into under the current loop bindings, with captured payloads.
///
/// Pooled (Engine::acquire_exec / recycle_exec): only the first `live`
/// entries of `msgs` are meaningful; slots past that are dormant recycled
/// records whose parts/payload vectors keep their capacity, so steady-state
/// execution builds messages without allocating.
struct Engine::GroupExec {
  struct Part {
    zir::ArrayId array;
    rt::Box box;
  };
  struct Msg {
    int src = 0;
    int dst = 0;
    long long bytes = 0;
    std::vector<Part> parts;
    std::vector<double> payload;
  };
  std::vector<Msg> msgs;
  std::size_t live = 0;

  /// Claims the next message slot (recycled capacity when available).
  Msg& append(int src, int dst) {
    if (live == msgs.size()) msgs.emplace_back();
    Msg& msg = msgs[live++];
    msg.src = src;
    msg.dst = dst;
    msg.bytes = 0;
    msg.parts.clear();
    msg.payload.clear();
    return msg;
  }
};

Engine::~Engine() = default;

Engine::Engine(const zir::Program& program, const comm::CommPlan& plan, RunConfig config)
    : p_(program),
      plan_(plan),
      cfg_(std::move(config)),
      mesh_(make_mesh(program, cfg_.procs)),
      env_(make_env(program, cfg_.config_overrides)),
      dist_(program, env_, mesh_),
      transport_(cfg_.machine, cfg_.library),
      evaluator_(program),
      obs_{cfg_.recorder, cfg_.timeline} {
  transport_.set_observers(obs_);
  if (obs_.recorder != nullptr) {
    ZC_ASSERT(obs_.recorder->procs() >= mesh_.procs());
    // Register human-readable labels for every group's transfer id up front
    // so exporters / analysis can name spans without the plan in hand.
    for (const comm::BlockPlan& block : plan_.blocks) {
      for (const comm::CommGroup& group : block.groups) {
        std::string label;
        for (const comm::Member& m : group.members) {
          if (!label.empty()) label += "+";
          label += p_.array(m.array).name;
        }
        label += "@";
        label += p_.direction(group.direction).name;
        obs_.recorder->set_transfer_label(group.transfer_id, std::move(label));
      }
    }
  }
  ZC_ASSERT(obs_.timeline == nullptr || obs_.timeline->procs() >= mesh_.procs());
  ZC_PROF_SPAN("sim/alloc");
  const int procs = mesh_.procs();
  clock_.assign(procs, 0.0);
  counters_.assign(procs, CommCounters{});
  scalars_.assign(p_.scalar_count(), 0.0);

  declared_.resize(p_.array_count());
  const auto fluff = rt::fluff_widths(p_);
  arrays_.resize(procs);
  for (int proc = 0; proc < procs; ++proc) arrays_[proc].resize(p_.array_count());
  for (std::size_t a = 0; a < p_.array_count(); ++a) {
    const zir::ArrayDecl& decl = p_.array(zir::ArrayId(static_cast<int32_t>(a)));
    declared_[a] = rt::eval_region(p_.region(decl.region).spec, env_);
    for (int proc = 0; proc < procs; ++proc) {
      rt::Box owned = dist_.owned(proc);
      // Clamp ownership to the array's declared region; dim 2 (if any) of
      // the declared region is whole on every processor.
      rt::Box my = owned;
      my.rank = declared_[a].rank;
      for (int d = 0; d < my.rank; ++d) {
        if (d < 2) {
          my.lo[d] = std::max(owned.lo[d], declared_[a].lo[d]);
          my.hi[d] = std::min(owned.hi[d], declared_[a].hi[d]);
        } else {
          my.lo[d] = declared_[a].lo[d];
          my.hi[d] = declared_[a].hi[d];
        }
      }
      arrays_[proc][a] = rt::LocalArray(my, declared_[a], fluff);
    }
  }
  if (prof::enabled()) {
    long long array_bytes = 0;
    for (const std::vector<rt::LocalArray>& per_proc : arrays_) {
      for (const rt::LocalArray& la : per_proc) {
        array_bytes += static_cast<long long>(la.allocation_size() * sizeof(double));
      }
    }
    prof::add_bytes(array_bytes);
  }
}

rt::EvalContext Engine::context_for(int proc) const {
  rt::EvalContext ctx;
  ctx.program = &p_;
  ctx.arrays = &arrays_[proc];
  ctx.scalars = &scalars_;
  ctx.env = &env_;
  return ctx;
}

double Engine::stmt_cost(const zir::Stmt& stmt, long long elems) const {
  auto it = stmt_cost_cache_.find(stmt.rhs.value);
  if (it == stmt_cost_cache_.end()) {
    StmtCost c;
    c.flops = zir::count_flops(p_, stmt.rhs);
    c.arrays_touched = static_cast<int>(zir::collect_arrays_read(p_, stmt.rhs).size()) + 1;
    it = stmt_cost_cache_.emplace(stmt.rhs.value, c).first;
  }
  const StmtCost& c = it->second;
  return cfg_.machine.stmt_overhead +
         static_cast<double>(elems) *
             (c.flops * cfg_.machine.flop_time + c.arrays_touched * cfg_.machine.elem_mem_time);
}

void Engine::allreduce_clocks(double extra_per_stage) {
  const int stages = machine::barrier_stages(mesh_.procs());
  synchronize(clock_, stages * (extra_per_stage + cfg_.machine.wire_latency), obs_);
}

RunResult Engine::run() {
  ZC_PROF_SPAN("sim/run");
  ZC_ASSERT(!ran_);
  ran_ = true;

  if (cfg_.engine == EngineKind::kLockstep) {
    run_lockstep();
  } else {
    run_event();
  }
  return finish();
}

void Engine::run_lockstep() {
  exec_body(p_.proc(p_.entry()).body);
  ZC_ASSERT(outstanding_.empty());
}

RunResult Engine::finish() {
  RunResult r;
  r.mesh = mesh_;
  r.center_proc = mesh_.center_rank();
  r.elapsed_seconds = *std::max_element(clock_.begin(), clock_.end());
  r.per_proc = counters_;
  r.dynamic_count = dynamic_comm_count_;
  for (const CommCounters& c : counters_) {
    r.total_messages += c.messages_sent;
    r.total_bytes += c.bytes_sent;
  }
  r.reduction_count = reduction_count_;
  for (std::size_t s = 0; s < p_.scalar_count(); ++s) {
    r.scalars[p_.scalar(zir::ScalarId(static_cast<int32_t>(s))).name] = scalars_[s];
  }
  // Checksums: sum over each array's declared region (owned parts only, so
  // every element is counted exactly once).
  std::vector<double> buf;
  for (std::size_t a = 0; a < p_.array_count(); ++a) {
    double sum = 0.0;
    for (int proc = 0; proc < mesh_.procs(); ++proc) {
      const rt::LocalArray& la = arrays_[proc][a];
      if (la.owned().empty()) continue;
      buf.resize(static_cast<std::size_t>(la.owned().count()));
      la.read_box(la.owned(), buf.data());
      for (double x : buf) sum += x;
    }
    r.checksums[p_.array(zir::ArrayId(static_cast<int32_t>(a))).name] = sum;
  }
  return r;
}

void Engine::exec_body(const std::vector<zir::StmtId>& body) {
  std::size_t i = 0;
  while (i < body.size()) {
    const zir::Stmt& s = p_.stmt(body[i]);
    if (s.kind == zir::Stmt::Kind::kArrayAssign || s.kind == zir::Stmt::Kind::kScalarAssign) {
      const comm::BlockPlan* bp = plan_.find_block(body[i]);
      ZC_ASSERT(bp != nullptr);  // every assign run starts a planned block
      exec_block(*bp);
      i += bp->stmts.size();
      continue;
    }
    exec_stmt(body[i]);
    ++i;
  }
}

void Engine::exec_block(const comm::BlockPlan& block) {
  // Block-level is the finest span here on purpose: a per-statement span
  // pushed the profiler's attached cost past the 5% budget that
  // bench_observer_overhead gates.
  ZC_PROF_SPAN("sim/block");
  const int n = static_cast<int>(block.stmts.size());
  for (int pos = 0; pos <= n; ++pos) {
    exec_comm_position(block, pos);
    if (pos < n) exec_stmt(block.stmts[pos]);
  }
}

void Engine::exec_comm_position(const comm::BlockPlan& block, int pos) {
  // Call-slot order at one insertion point: DR then SR (receive-side setup
  // and sends), then DN then SV (completions) — matching the paper's
  // DR/SR/DN/SV listing for co-located calls and deadlock-free for
  // pipelined ones (all sends precede all receives at a point).
  for (const comm::CommGroup& g : block.groups) {
    if (g.dr_pos != pos) continue;
    std::unique_ptr<GroupExec> exec = acquire_exec();
    build_group_exec(block, g, *exec);
    auto [it, inserted] = outstanding_.emplace(g.id, std::move(exec));
    ZC_ASSERT(inserted);  // at most one outstanding execution per group
    comm_dr(g, *it->second);
  }
  for (const comm::CommGroup& g : block.groups) {
    if (g.sr_pos == pos) comm_sr(g, *outstanding_.at(g.id));
  }
  for (const comm::CommGroup& g : block.groups) {
    if (g.dn_pos == pos) comm_dn(g, *outstanding_.at(g.id));
  }
  for (const comm::CommGroup& g : block.groups) {
    if (g.sv_pos != pos) continue;
    auto it = outstanding_.find(g.id);
    ZC_ASSERT(it != outstanding_.end());
    comm_sv(g, *it->second);
    recycle_exec(std::move(it->second));
    outstanding_.erase(it);
  }
}

std::unique_ptr<Engine::GroupExec> Engine::acquire_exec() {
  if (exec_pool_.empty()) return std::make_unique<GroupExec>();
  std::unique_ptr<GroupExec> exec = std::move(exec_pool_.back());
  exec_pool_.pop_back();
  exec->live = 0;
  return exec;
}

void Engine::recycle_exec(std::unique_ptr<GroupExec> exec) {
  exec_pool_.push_back(std::move(exec));
}

void Engine::build_group_exec(const comm::BlockPlan& block, const comm::CommGroup& group,
                              GroupExec& exec) {
  const std::vector<int>& offsets = p_.direction(group.direction).offsets;

  // (src, dst) -> slot in exec.msgs. A linear scan: groups decompose into at
  // most a handful of point-to-point messages, and this avoids the per-call
  // node allocations a map would make in the engine's inner loop.
  const auto slot_for = [&exec](int src, int dst) -> GroupExec::Msg& {
    for (std::size_t i = 0; i < exec.live; ++i) {
      if (exec.msgs[i].src == src && exec.msgs[i].dst == dst) return exec.msgs[i];
    }
    return exec.append(src, dst);
  };

  for (const comm::Member& m : group.members) {
    const zir::Stmt& use = p_.stmt(block.stmts[m.use_stmt]);
    ZC_ASSERT(use.region.has_value());
    const rt::Box region = rt::eval_region(*use.region, env_);
    const rt::Box& declared = declared_[m.array.index()];
    if (region.empty()) continue;

    for (int dst = 0; dst < mesh_.procs(); ++dst) {
      const rt::Box& owned_dst = arrays_[dst][m.array.index()].owned();
      if (owned_dst.empty()) continue;
      const rt::Box use_local = region.intersect(owned_dst);
      if (use_local.empty()) continue;
      const rt::Box needed = use_local.shifted(offsets).intersect(declared);
      for (const rt::Box& piece : needed.subtract(owned_dst)) {
        for (int src : dist_.owners(piece)) {
          if (src == dst) continue;
          const rt::Box slice = piece.intersect(arrays_[src][m.array.index()].owned());
          if (slice.empty()) continue;
          GroupExec::Msg& msg = slot_for(src, dst);
          msg.parts.push_back({m.array, slice});
          msg.bytes += slice.count() * static_cast<long long>(sizeof(double));
        }
      }
    }
  }

  // The paper's dynamic count: the number of communications (IRONMAN call
  // sets) the SPMD program executes. Every processor runs the same calls,
  // so the count is a program property; per-processor counters additionally
  // record which executions actually moved data through each processor.
  ++dynamic_comm_count_;
  participated_.assign(static_cast<std::size_t>(mesh_.procs()), 0);
  for (std::size_t i = 0; i < exec.live; ++i) {
    participated_[static_cast<std::size_t>(exec.msgs[i].src)] = 1;
    participated_[static_cast<std::size_t>(exec.msgs[i].dst)] = 1;
  }
  for (int proc = 0; proc < mesh_.procs(); ++proc) {
    if (participated_[static_cast<std::size_t>(proc)] != 0) ++counters_[proc].communications;
  }
}

void Engine::comm_dr(const comm::CommGroup& group, GroupExec& exec) {
  ZC_PROF_SPAN("sim/comm/dr");
  transport_.set_transfer(group.transfer_id);
  if (transport_.dr_is_global_synch()) {
    // SHMEM prototype: the DR synch is a global barrier executed by every
    // processor, with data to move or not — the heavyweight behaviour the
    // paper blames for TOMCATV's and SP's SHMEM slowdowns.
    transport_.global_synch(clock_);
    for (std::size_t i = 0; i < exec.live; ++i) {
      const GroupExec::Msg& msg = exec.msgs[i];
      transport_.post_readiness(group.id, msg.src, msg.dst, clock_[msg.dst]);
    }
    return;
  }
  for (std::size_t i = 0; i < exec.live; ++i) {
    const GroupExec::Msg& msg = exec.msgs[i];
    transport_.dr(group.id, msg.src, msg.dst, msg.bytes, clock_[msg.dst]);
  }
}

void Engine::comm_sr(const comm::CommGroup& group, GroupExec& exec) {
  ZC_PROF_SPAN("sim/comm/sr");
  transport_.set_transfer(group.transfer_id);
  for (std::size_t i = 0; i < exec.live; ++i) {
    GroupExec::Msg& msg = exec.msgs[i];
    // Capture the payload now: pipelining is only correct if the data at SR
    // equals the data at use, which the optimizer's legality rules
    // guarantee — and the golden tests verify.
    msg.payload.clear();
    msg.payload.reserve(static_cast<std::size_t>(msg.bytes / sizeof(double)));
    for (const GroupExec::Part& part : msg.parts) {
      const std::size_t at = msg.payload.size();
      msg.payload.resize(at + static_cast<std::size_t>(part.box.count()));
      arrays_[msg.src][part.array.index()].read_box(part.box, msg.payload.data() + at);
    }
    transport_.sr(group.id, msg.src, msg.dst, msg.bytes, clock_[msg.src]);
    ++counters_[msg.src].messages_sent;
    counters_[msg.src].bytes_sent += msg.bytes;
  }
}

void Engine::comm_dn(const comm::CommGroup& group, GroupExec& exec) {
  ZC_PROF_SPAN("sim/comm/dn");
  transport_.set_transfer(group.transfer_id);
  for (std::size_t i = 0; i < exec.live; ++i) {
    GroupExec::Msg& msg = exec.msgs[i];
    transport_.dn(group.id, msg.src, msg.dst, msg.bytes, clock_[msg.dst]);
    std::size_t at = 0;
    for (const GroupExec::Part& part : msg.parts) {
      arrays_[msg.dst][part.array.index()].write_box(part.box, msg.payload.data() + at);
      at += static_cast<std::size_t>(part.box.count());
    }
    // Cleared but NOT shrunk: the slot recycles through the exec pool and
    // the retained capacity is exactly what kills the per-event allocation.
    msg.payload.clear();
    ++counters_[msg.dst].messages_received;
    counters_[msg.dst].bytes_received += msg.bytes;
  }
}

void Engine::comm_sv(const comm::CommGroup& group, GroupExec& exec) {
  ZC_PROF_SPAN("sim/comm/sv");
  transport_.set_transfer(group.transfer_id);
  for (std::size_t i = 0; i < exec.live; ++i) {
    const GroupExec::Msg& msg = exec.msgs[i];
    transport_.sv(group.id, msg.src, msg.dst, msg.bytes, clock_[msg.src]);
  }
}

void Engine::exec_stmt(zir::StmtId sid) {
  const zir::Stmt& s = p_.stmt(sid);
  switch (s.kind) {
    case zir::Stmt::Kind::kArrayAssign:
      exec_array_assign(s);
      return;
    case zir::Stmt::Kind::kScalarAssign:
      exec_scalar_assign(s);
      return;
    case zir::Stmt::Kind::kFor: {
      const long long lo = s.lo.eval(env_);
      const long long hi = s.hi.eval(env_);
      const std::size_t v = s.loop_var.index();
      const bool was_bound = env_.loop_bound[v];
      const long long old_value = env_.loop_values[v];
      env_.loop_bound[v] = true;
      for (long long i = lo; s.step > 0 ? i <= hi : i >= hi; i += s.step) {
        env_.loop_values[v] = i;
        for (double& c : clock_) c += cfg_.machine.scalar_stmt_time;  // loop bookkeeping
        exec_body(s.body);
      }
      env_.loop_bound[v] = was_bound;
      env_.loop_values[v] = old_value;
      return;
    }
    case zir::Stmt::Kind::kIf: {
      const rt::EvalContext ctx = context_for(0);
      const double cond = evaluator_.eval_scalar(ctx, s.cond, {});
      for (double& c : clock_) c += cfg_.machine.scalar_stmt_time;
      exec_body(cond != 0.0 ? s.body : s.else_body);
      return;
    }
    case zir::Stmt::Kind::kCall:
      exec_body(p_.proc(s.callee).body);
      return;
  }
}

void Engine::exec_array_assign(const zir::Stmt& stmt) {
  const rt::Box region = rt::eval_region(*stmt.region, env_);
  if (region.empty()) return;
  if (!declared_[stmt.lhs_array.index()].contains(region)) {
    throw Error("statement region " + region.to_string() + " exceeds the declared region of '" +
                p_.array(stmt.lhs_array).name + "'");
  }
  std::vector<double>& buf = eval_buf_;  // member scratch: fully rewritten below
  for (int proc = 0; proc < mesh_.procs(); ++proc) {
    rt::LocalArray& lhs = arrays_[proc][stmt.lhs_array.index()];
    if (lhs.owned().empty()) continue;
    const rt::Box local = region.intersect(lhs.owned());
    if (local.empty()) continue;
    rt::EvalContext ctx = context_for(proc);
    ctx.box = local;
    evaluator_.eval_vector(ctx, stmt.rhs, buf);
    lhs.write_box(local, buf.data());
    const double t0 = clock_[proc];
    clock_[proc] += stmt_cost(stmt, local.count());
    obs_.compute(proc, local, t0, clock_[proc]);
  }
}

void Engine::exec_scalar_assign(const zir::Stmt& stmt) {
  const std::vector<zir::ReduceOp> ops = evaluator_.reduce_ops(stmt.rhs);
  if (ops.empty()) {
    const rt::EvalContext ctx = context_for(0);
    scalars_[stmt.lhs_scalar.index()] = evaluator_.eval_scalar(ctx, stmt.rhs, {});
    for (double& c : clock_) c += cfg_.machine.scalar_stmt_time;
    return;
  }

  ZC_ASSERT(stmt.region.has_value());
  const rt::Box region = rt::eval_region(*stmt.region, env_);
  std::vector<double>& global = reduce_global_;  // member scratch: fully rewritten
  global.assign(ops.size(), 0.0);
  for (std::size_t k = 0; k < ops.size(); ++k) global[k] = rt::reduce_identity(ops[k]);

  std::vector<double>& partials = reduce_partials_;  // member scratch: fully rewritten
  for (int proc = 0; proc < mesh_.procs(); ++proc) {
    // Crop the owned box to the region's rank (a rank-2 reduction in a
    // rank-3 program reduces over dims 0 and 1 only).
    rt::Box owned = dist_.owned(proc);
    owned.rank = region.rank;
    for (int d = dist_.space().rank; d < region.rank; ++d) {
      owned.lo[d] = region.lo[d];
      owned.hi[d] = region.hi[d];
    }
    const rt::Box local = region.intersect(owned);
    rt::EvalContext ctx = context_for(proc);
    ctx.box = local;
    evaluator_.eval_reduce_partials(ctx, stmt.rhs, partials);
    for (std::size_t k = 0; k < ops.size(); ++k) {
      global[k] = rt::reduce_combine(ops[k], global[k], partials[k]);
    }
    if (!local.empty()) {
      const double t0 = clock_[proc];
      clock_[proc] += stmt_cost(stmt, local.count());
      obs_.compute(proc, local, t0, clock_[proc]);
    }
  }

  // Combine across processors: a log-tree allreduce that synchronizes all
  // clocks (reductions are ZPL primitives outside the optimized
  // point-to-point communication; counted separately).
  allreduce_clocks(cfg_.machine.reduce_stage_overhead);
  ++reduction_count_;

  const rt::EvalContext ctx = context_for(0);
  scalars_[stmt.lhs_scalar.index()] = evaluator_.eval_scalar(ctx, stmt.rhs, global);
}

RunResult run_program(const zir::Program& program, const comm::CommPlan& plan,
                      RunConfig config) {
  Engine engine(program, plan, std::move(config));
  return engine.run();
}

}  // namespace zc::sim
