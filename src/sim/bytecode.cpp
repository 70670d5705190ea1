#include "src/sim/bytecode.h"

#include <algorithm>

#include "src/support/check.h"
#include "src/support/diag.h"

namespace zc::sim {

namespace {

class ExprCompiler {
 public:
  explicit ExprCompiler(const zir::Program& program) : p_(program) {}

  ExprProg compile(zir::ExprId id) {
    prog_.is_vec = emit(id);
    return std::move(prog_);
  }

 private:
  /// Emits postfix steps for `id`; returns true when the node is
  /// array-valued. Operand order (left subtree fully before right) matches
  /// the recursive evaluator, so side effects — the out-of-bounds shift
  /// throw — fire at the same point.
  bool emit(zir::ExprId id) {
    const zir::Expr& e = p_.expr(id);
    ExprStep st;
    switch (e.kind) {
      case zir::Expr::Kind::kConst:
        st.op = ExprStep::Op::kConstS;
        st.value = e.const_value;
        prog_.steps.push_back(st);
        return false;
      case zir::Expr::Kind::kScalarRef:
        st.op = ExprStep::Op::kScalarS;
        st.a = e.scalar.index();
        prog_.steps.push_back(st);
        return false;
      case zir::Expr::Kind::kLoopVarRef:
        st.op = ExprStep::Op::kLoopVarS;
        st.a = e.loop_var.index();
        prog_.steps.push_back(st);
        return false;
      case zir::Expr::Kind::kConfigRef:
        st.op = ExprStep::Op::kConfigS;
        st.a = e.config.index();
        prog_.steps.push_back(st);
        return false;
      case zir::Expr::Kind::kArrayRef:
        st.op = ExprStep::Op::kLoadArray;
        st.a = e.array.index();
        prog_.steps.push_back(st);
        push_vec();
        return true;
      case zir::Expr::Kind::kShift:
        st.op = ExprStep::Op::kLoadShift;
        st.a = e.array.index();
        st.b = e.direction.index();
        prog_.steps.push_back(st);
        push_vec();
        return true;
      case zir::Expr::Kind::kIndex:
        st.op = ExprStep::Op::kLoadIndex;
        st.a = e.index_dim;
        prog_.steps.push_back(st);
        push_vec();
        return true;
      case zir::Expr::Kind::kBinary: {
        const bool lv = emit(e.lhs);
        const bool rv = emit(e.rhs);
        st.bin_op = e.bin_op;
        if (lv && rv) {
          st.op = ExprStep::Op::kBinVV;
          --vdepth_;
        } else if (lv) {
          st.op = ExprStep::Op::kBinVS;
        } else if (rv) {
          st.op = ExprStep::Op::kBinSV;
        } else {
          st.op = ExprStep::Op::kBinSS;
        }
        prog_.steps.push_back(st);
        return lv || rv;
      }
      case zir::Expr::Kind::kUnary: {
        const bool v = emit(e.lhs);
        st.op = v ? ExprStep::Op::kUnV : ExprStep::Op::kUnS;
        st.un_op = e.un_op;
        prog_.steps.push_back(st);
        return v;
      }
      case zir::Expr::Kind::kReduce:
        throw Error("internal: reduction compiled in vector context");
    }
    ZC_ASSERT(false);
    return false;
  }

  void push_vec() {
    ++vdepth_;
    prog_.max_vdepth = std::max(prog_.max_vdepth, vdepth_);
  }

  const zir::Program& p_;
  ExprProg prog_;
  int vdepth_ = 0;
};

}  // namespace

ExprProg compile_expr(const zir::Program& program, zir::ExprId id) {
  return ExprCompiler(program).compile(id);
}

namespace {

/// Calls `body(f)` with `f` the scalar semantics of `op`: a plain callable
/// for + - * /, so the row loop carries no per-element operator switch, and
/// rt::apply_bin for the rest. Either way each element sees exactly the
/// operation apply_bin performs.
template <typename Body>
void with_bin(zir::BinOp op, Body&& body) {
  switch (op) {
    case zir::BinOp::kAdd: body([](double x, double y) { return x + y; }); return;
    case zir::BinOp::kSub: body([](double x, double y) { return x - y; }); return;
    case zir::BinOp::kMul: body([](double x, double y) { return x * y; }); return;
    case zir::BinOp::kDiv: body([](double x, double y) { return x / y; }); return;
    default: body([op](double x, double y) { return rt::apply_bin(op, x, y); }); return;
  }
}

/// Binds `prog` to `box`: runs the scalar steps, locates every array
/// operand in storage and checks every shift, all in step order, leaving
/// the vector steps in `scratch.bound`. Returns the scalar result of a
/// scalar-valued program.
double bind_expr_prog(const ExprProg& prog, const zir::Program& program,
                      const std::vector<rt::LocalArray>& arrays,
                      const std::vector<double>& scalars, const zir::IntEnv& env,
                      const rt::Box& box, ExprScratch& scratch) {
  std::vector<double>& ss = scratch.sstack;
  std::vector<RowStep>& bound = scratch.bound;
  ss.clear();
  bound.clear();
  // An empty box reads nothing, so its operands are never located.
  const bool nonempty = !box.empty();
  const auto bind_array = [&](RowStep& rs, const rt::LocalArray& a, const rt::Box& src) {
    if (nonempty) {
      rs.src = a.data_at(src.lo[0], src.rank >= 2 ? src.lo[1] : 0, src.rank >= 3 ? src.lo[2] : 0);
      rs.stride0 = src.rank >= 2 ? a.stride(0) : 0;
      rs.stride1 = src.rank >= 3 ? a.stride(1) : 0;
    }
    bound.push_back(rs);
  };
  const auto pop = [&ss] {
    const double v = ss.back();
    ss.pop_back();
    return v;
  };

  for (const ExprStep& st : prog.steps) {
    RowStep rs;
    rs.op = st.op;
    rs.bin_op = st.bin_op;
    rs.un_op = st.un_op;
    switch (st.op) {
      case ExprStep::Op::kConstS:
        ss.push_back(st.value);
        break;
      case ExprStep::Op::kScalarS:
        ss.push_back(scalars[static_cast<std::size_t>(st.a)]);
        break;
      case ExprStep::Op::kLoopVarS:
        ZC_ASSERT(env.loop_bound[static_cast<std::size_t>(st.a)]);
        ss.push_back(static_cast<double>(env.loop_values[static_cast<std::size_t>(st.a)]));
        break;
      case ExprStep::Op::kConfigS:
        ss.push_back(static_cast<double>(env.config_values[static_cast<std::size_t>(st.a)]));
        break;
      case ExprStep::Op::kBinSS: {
        const double b = pop();
        ss.back() = rt::apply_bin(st.bin_op, ss.back(), b);
        break;
      }
      case ExprStep::Op::kUnS:
        ss.back() = rt::apply_un(st.un_op, ss.back());
        break;
      case ExprStep::Op::kLoadArray: {
        const rt::LocalArray& a = arrays[static_cast<std::size_t>(st.a)];
        ZC_ASSERT(a.covers(box));
        bind_array(rs, a, box);
        break;
      }
      case ExprStep::Op::kLoadShift: {
        const rt::LocalArray& a = arrays[static_cast<std::size_t>(st.a)];
        const rt::Box src =
            box.shifted(program.direction(zir::DirectionId(st.b)).offsets);
        if (!a.covers(src)) {
          throw Error("shifted read of '" + program.array(zir::ArrayId(st.a)).name +
                      "' outside its declared region (program reads past its border): need " +
                      src.to_string() + ", have " + a.storage_box().to_string());
        }
        bind_array(rs, a, src);
        break;
      }
      case ExprStep::Op::kLoadIndex:
        rs.dim = st.a - 1;
        ZC_ASSERT(rs.dim >= 0 && rs.dim < box.rank);
        bound.push_back(rs);
        break;
      case ExprStep::Op::kBinVS:
      case ExprStep::Op::kBinSV:
        rs.scalar = pop();
        bound.push_back(rs);
        break;
      case ExprStep::Op::kBinVV:
      case ExprStep::Op::kUnV:
        bound.push_back(rs);
        break;
    }
  }
  ZC_ASSERT(ss.size() == (prog.is_vec ? 0u : 1u));
  return prog.is_vec ? 0.0 : ss.back();
}

}  // namespace

const std::vector<double>& eval_expr_prog(const ExprProg& prog, const zir::Program& program,
                                          const std::vector<rt::LocalArray>& arrays,
                                          const std::vector<double>& scalars,
                                          const zir::IntEnv& env, const rt::Box& box,
                                          ExprScratch& scratch) {
  const double splat = bind_expr_prog(prog, program, arrays, scalars, env, box, scratch);
  std::vector<double>& result = scratch.result;
  const std::size_t n = static_cast<std::size_t>(box.count());
  if (!prog.is_vec || n == 0) {
    result.assign(n, splat);
    return result;
  }
  result.resize(n);

  // Rows are the contiguous last-dimension spans of the box, row-major.
  const int rank = box.rank;
  const std::size_t len = static_cast<std::size_t>(box.hi[rank - 1] - box.lo[rank - 1] + 1);
  const long long rows0 = rank >= 2 ? box.extent(0) : 1;
  const long long rows1 = rank >= 3 ? box.extent(1) : 1;

  // Depth 0 computes straight into the result row; deeper operands that
  // are not read in place get one row buffer per depth.
  const std::size_t depth = static_cast<std::size_t>(prog.max_vdepth);
  if (scratch.rows.size() < depth) scratch.rows.resize(depth);
  for (std::size_t d = 1; d < depth; ++d) {
    if (scratch.rows[d].size() < len) scratch.rows[d].resize(len);
  }
  std::vector<const double*>& vs = scratch.vstack;
  vs.resize(depth);

  double* out = result.data();
  for (long long oi = 0; oi < rows0; ++oi) {
    for (long long oj = 0; oj < rows1; ++oj, out += len) {
      const auto buf = [&](int d) {
        return d == 0 ? out : scratch.rows[static_cast<std::size_t>(d)].data();
      };
      int vd = 0;
      for (const RowStep& rs : scratch.bound) {
        switch (rs.op) {
          case ExprStep::Op::kLoadArray:
          case ExprStep::Op::kLoadShift:
            vs[static_cast<std::size_t>(vd++)] = rs.src + oi * rs.stride0 + oj * rs.stride1;
            break;
          case ExprStep::Op::kLoadIndex: {
            double* w = buf(vd);
            if (rs.dim == rank - 1) {
              const long long lo = box.lo[rank - 1];
              for (std::size_t t = 0; t < len; ++t) {
                w[t] = static_cast<double>(lo + static_cast<long long>(t));
              }
            } else {
              const long long coord = box.lo[rs.dim] + (rs.dim == 0 ? oi : oj);
              std::fill(w, w + len, static_cast<double>(coord));
            }
            vs[static_cast<std::size_t>(vd++)] = w;
            break;
          }
          case ExprStep::Op::kBinVV: {
            double* w = buf(vd - 2);
            const double* l = vs[static_cast<std::size_t>(vd - 2)];
            const double* r = vs[static_cast<std::size_t>(vd - 1)];
            with_bin(rs.bin_op, [&](auto f) {
              for (std::size_t t = 0; t < len; ++t) w[t] = f(l[t], r[t]);
            });
            vs[static_cast<std::size_t>(vd - 2)] = w;
            --vd;
            break;
          }
          case ExprStep::Op::kBinVS: {
            double* w = buf(vd - 1);
            const double* l = vs[static_cast<std::size_t>(vd - 1)];
            const double b = rs.scalar;
            with_bin(rs.bin_op, [&](auto f) {
              for (std::size_t t = 0; t < len; ++t) w[t] = f(l[t], b);
            });
            vs[static_cast<std::size_t>(vd - 1)] = w;
            break;
          }
          case ExprStep::Op::kBinSV: {
            double* w = buf(vd - 1);
            const double a = rs.scalar;
            const double* r = vs[static_cast<std::size_t>(vd - 1)];
            with_bin(rs.bin_op, [&](auto f) {
              for (std::size_t t = 0; t < len; ++t) w[t] = f(a, r[t]);
            });
            vs[static_cast<std::size_t>(vd - 1)] = w;
            break;
          }
          case ExprStep::Op::kUnV: {
            double* w = buf(vd - 1);
            const double* l = vs[static_cast<std::size_t>(vd - 1)];
            for (std::size_t t = 0; t < len; ++t) w[t] = rt::apply_un(rs.un_op, l[t]);
            vs[static_cast<std::size_t>(vd - 1)] = w;
            break;
          }
          default:
            ZC_ASSERT(false);  // scalar steps were folded by the bind
        }
      }
      ZC_ASSERT(vd == 1);
      if (vs[0] != out) std::copy(vs[0], vs[0] + len, out);
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Statement lowering.

namespace {

class Lowerer {
 public:
  Lowerer(const zir::Program& program, const comm::CommPlan& plan, const zir::IntEnv& env,
          const machine::MachineModel& machine)
      : p_(program), plan_(plan), env_(env), machine_(machine) {}

  CompiledSim lower() {
    lower_body(p_.proc(p_.entry()).body);
    emit(Inst::Op::kHalt);
    return std::move(sim_);
  }

 private:
  std::int32_t emit(Inst::Op op, std::int32_t a = 0, std::int32_t b = 0) {
    sim_.code.push_back(Inst{op, a, b});
    return static_cast<std::int32_t>(sim_.code.size()) - 1;
  }

  void lower_body(const std::vector<zir::StmtId>& body) {
    std::size_t i = 0;
    while (i < body.size()) {
      const zir::Stmt& s = p_.stmt(body[i]);
      if (s.kind == zir::Stmt::Kind::kArrayAssign || s.kind == zir::Stmt::Kind::kScalarAssign) {
        const comm::BlockPlan* bp = plan_.find_block(body[i]);
        ZC_ASSERT(bp != nullptr);  // every assign run starts a planned block
        lower_block(*bp);
        i += bp->stmts.size();
        continue;
      }
      lower_stmt(body[i]);
      ++i;
    }
  }

  void lower_block(const comm::BlockPlan& block) {
    // One CompiledGroup per (lowering site, group): caches are per site, but
    // group/transfer ids — all the transport and trace see — are the plan's.
    std::vector<std::int32_t> gidx;
    gidx.reserve(block.groups.size());
    for (const comm::CommGroup& g : block.groups) {
      gidx.push_back(lower_group(block, g));
    }
    // Call-slot order at each insertion point matches the lockstep engine's
    // exec_comm_position: DR then SR, then DN then SV, in group order.
    const int n = static_cast<int>(block.stmts.size());
    for (int pos = 0; pos <= n; ++pos) {
      for (std::size_t k = 0; k < block.groups.size(); ++k) {
        if (block.groups[k].dr_pos == pos) emit(Inst::Op::kCommDR, gidx[k]);
      }
      for (std::size_t k = 0; k < block.groups.size(); ++k) {
        if (block.groups[k].sr_pos == pos) emit(Inst::Op::kCommSR, gidx[k]);
      }
      for (std::size_t k = 0; k < block.groups.size(); ++k) {
        if (block.groups[k].dn_pos == pos) emit(Inst::Op::kCommDN, gidx[k]);
      }
      for (std::size_t k = 0; k < block.groups.size(); ++k) {
        if (block.groups[k].sv_pos == pos) emit(Inst::Op::kCommSV, gidx[k]);
      }
      if (pos < n) lower_stmt(block.stmts[pos]);
    }
  }

  std::int32_t lower_group(const comm::BlockPlan& block, const comm::CommGroup& g) {
    CompiledGroup cg;
    cg.group = &g;
    for (const comm::Member& m : g.members) {
      const zir::Stmt& use = p_.stmt(block.stmts[m.use_stmt]);
      ZC_ASSERT(use.region.has_value());
      CompiledGroup::MemberSpec spec;
      spec.array = m.array.index();
      spec.region = &*use.region;
      spec.is_static = use.region->is_static();
      if (spec.is_static) spec.static_box = rt::eval_region(*use.region, env_);
      cg.all_static = cg.all_static && spec.is_static;
      cg.members.push_back(std::move(spec));
    }
    sim_.groups.push_back(std::move(cg));
    return static_cast<std::int32_t>(sim_.groups.size()) - 1;
  }

  /// The cost-model metadata the lockstep engine caches per statement,
  /// folded with the exact expression shape of Engine::stmt_cost.
  double per_elem_cost(zir::ExprId rhs) const {
    const int flops = zir::count_flops(p_, rhs);
    const int arrays_touched = static_cast<int>(zir::collect_arrays_read(p_, rhs).size()) + 1;
    return flops * machine_.flop_time + arrays_touched * machine_.elem_mem_time;
  }

  void lower_stmt(zir::StmtId sid) {
    const zir::Stmt& s = p_.stmt(sid);
    switch (s.kind) {
      case zir::Stmt::Kind::kArrayAssign: {
        CompiledAssign ca;
        ca.stmt = &s;
        ca.lhs_array = s.lhs_array.index();
        ca.rhs = compile_expr(p_, s.rhs);
        ca.per_elem_cost = per_elem_cost(s.rhs);
        ZC_ASSERT(s.region.has_value());
        ca.region_static = s.region->is_static();
        if (ca.region_static) ca.static_box = rt::eval_region(*s.region, env_);
        sim_.assigns.push_back(std::move(ca));
        emit(Inst::Op::kAssign, static_cast<std::int32_t>(sim_.assigns.size()) - 1);
        return;
      }
      case zir::Stmt::Kind::kScalarAssign: {
        const std::vector<zir::ExprId> reduce_nodes = zir::collect_reduce_exprs(p_, s.rhs);
        if (reduce_nodes.empty()) {
          sim_.scalar_stmts.push_back(CompiledScalarStmt{&s});
          emit(Inst::Op::kScalar, static_cast<std::int32_t>(sim_.scalar_stmts.size()) - 1);
          return;
        }
        CompiledReduce cr;
        cr.stmt = &s;
        for (const zir::ExprId node : reduce_nodes) {
          cr.ops.push_back(p_.expr(node).reduce_op);
          cr.operands.push_back(compile_expr(p_, p_.expr(node).lhs));
        }
        cr.per_elem_cost = per_elem_cost(s.rhs);
        ZC_ASSERT(s.region.has_value());
        cr.region_static = s.region->is_static();
        if (cr.region_static) cr.static_box = rt::eval_region(*s.region, env_);
        sim_.reduces.push_back(std::move(cr));
        emit(Inst::Op::kReduce, static_cast<std::int32_t>(sim_.reduces.size()) - 1);
        return;
      }
      case zir::Stmt::Kind::kFor: {
        sim_.loops.push_back(CompiledLoop{&s});
        const std::int32_t li = static_cast<std::int32_t>(sim_.loops.size()) - 1;
        const std::int32_t init_pc = emit(Inst::Op::kForInit, li);
        const std::int32_t body_pc = static_cast<std::int32_t>(sim_.code.size());
        lower_body(s.body);
        emit(Inst::Op::kForNext, li, body_pc);
        sim_.code[static_cast<std::size_t>(init_pc)].b =
            static_cast<std::int32_t>(sim_.code.size());
        return;
      }
      case zir::Stmt::Kind::kIf: {
        sim_.ifs.push_back(CompiledIf{&s});
        const std::int32_t ii = static_cast<std::int32_t>(sim_.ifs.size()) - 1;
        const std::int32_t if_pc = emit(Inst::Op::kIf, ii);
        lower_body(s.body);
        const std::int32_t jump_pc = emit(Inst::Op::kJump);
        sim_.code[static_cast<std::size_t>(if_pc)].b =
            static_cast<std::int32_t>(sim_.code.size());
        lower_body(s.else_body);
        sim_.code[static_cast<std::size_t>(jump_pc)].b =
            static_cast<std::int32_t>(sim_.code.size());
        return;
      }
      case zir::Stmt::Kind::kCall:
        // Inlined: validation guarantees no recursion, and the lockstep
        // engine executes the callee body in place exactly like this.
        lower_body(p_.proc(s.callee).body);
        return;
    }
  }

  const zir::Program& p_;
  const comm::CommPlan& plan_;
  const zir::IntEnv& env_;
  const machine::MachineModel& machine_;
  CompiledSim sim_;
};

}  // namespace

CompiledSim compile_sim(const zir::Program& program, const comm::CommPlan& plan,
                        const zir::IntEnv& env, const machine::MachineModel& machine) {
  return Lowerer(program, plan, env, machine).lower();
}

}  // namespace zc::sim
