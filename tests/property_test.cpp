// Property-based validation on randomly generated mini-ZPL programs:
//
//  1. Semantics: for any program, any optimization level, any heuristic,
//     any library, and 3, 4 or 7 processors, the multi-processor run
//     produces the same numbers as the single-processor reference
//     (communication correctness), and the event and lockstep cores agree
//     bit for bit, observers included.
//  2. Counts: static counts are monotone (baseline >= rr >= cc), and
//     pipelining never changes them.
//  3. Plan well-formedness: DR <= SR <= DN <= SV, intervals legal.
//  4. Evaluator: the vectorized evaluator agrees with an independent
//     element-at-a-time reference evaluator.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>

#include "src/comm/optimizer.h"
#include "src/exec/sweep.h"
#include "src/sim/engine.h"
#include "src/trace/stats.h"
#include "src/tseries/tseries.h"
#include "src/zir/builder.h"

namespace zc {
namespace {

using zir::ArrayId;
using zir::DirectionId;
using zir::Ex;
using zir::Ix;
using zir::ProgramBuilder;
using zir::RegionId;

/// Generates a random but always-valid stencil program. Expressions are
/// contractive-ish (small coefficients) so numbers stay finite. Besides
/// whole-interior statements it emits row and column sweeps (a `for` loop
/// whose statement region is one line picked by the loop variable, as in
/// tomcatv) and +<< / max<< reductions, some over a corner that only a
/// strict subset of processors owns.
class RandomProgram {
 public:
  explicit RandomProgram(unsigned seed) : rng_(seed) {}

  zir::Program generate() {
    ProgramBuilder b("rand");
    const long long n_val = 6 + static_cast<long long>(rng_() % 6);
    const Ix n = b.config("n", n_val);
    const RegionId R = b.region("R", {{0, n + 1}, {0, n + 1}});
    const RegionId I = b.region("I", {{1, n}, {1, n}});

    static const std::vector<std::pair<const char*, std::vector<int>>> kDirs = {
        {"e", {0, 1}}, {"w", {0, -1}}, {"no", {-1, 0}}, {"so", {1, 0}},
        {"ne", {-1, 1}}, {"nw", {-1, -1}}, {"se", {1, 1}}, {"sw", {1, -1}},
    };
    std::vector<DirectionId> dirs;
    for (const auto& [name, off] : kDirs) dirs.push_back(b.direction(name, off));

    const int n_arrays = 2 + static_cast<int>(rng_() % 3);
    std::vector<ArrayId> arrays;
    for (int a = 0; a < n_arrays; ++a) {
      arrays.push_back(b.array("A" + std::to_string(a), R));
    }
    const zir::ScalarId s = b.scalar("s");
    const zir::ScalarId z = b.scalar("z");
    const zir::ScalarId m = b.scalar("m");
    scalars_ = {s, z, m};

    b.proc("main", [&] {
      // Deterministic initialization.
      for (std::size_t a = 0; a < arrays.size(); ++a) {
        b.assign(R, arrays[a],
                 b.unary(zir::UnOp::kSin,
                         b.index(1) * (0.13 + 0.07 * static_cast<double>(a))) *
                         b.unary(zir::UnOp::kCos, b.index(2) * 0.11) +
                     0.01 * static_cast<double>(a));
      }
      const int n_stmts = 4 + static_cast<int>(rng_() % 10);
      for (int k = 0; k < n_stmts; ++k) {
        emit_random_stmt(b, I, n, arrays, dirs);
      }
      emit_corner_reduce(b, n, arrays, z);
      emit_sweep(b, n, arrays, dirs, m, "i0");
      // A loop with a couple of statements, sometimes row-indexed.
      b.repeat(2, [&] {
        emit_random_stmt(b, I, n, arrays, dirs);
        emit_random_stmt(b, I, n, arrays, dirs);
      });
      emit_sweep(b, n, arrays, dirs, m, "i1");
      b.sassign_over(b.spec_of(I), s,
                     b.reduce(zir::ReduceOp::kSum, b.ref(arrays[0]) + b.ref(arrays.back())));
    });
    return std::move(b).finish();
  }

 private:
  double coef() { return (static_cast<double>(rng_() % 200) - 100.0) / 400.0; }

  Ex random_operand(ProgramBuilder& b, const std::vector<ArrayId>& arrays,
                    const std::vector<DirectionId>& dirs) {
    const ArrayId a = arrays[rng_() % arrays.size()];
    if (rng_() % 2 == 0) return b.ref(a);
    return b.at(a, dirs[rng_() % dirs.size()]);
  }

  /// 0.4 * lhs + a sum of small-coefficient operands, sometimes plus a
  /// scalar the program computed.
  Ex random_rhs(ProgramBuilder& b, ArrayId lhs, const std::vector<ArrayId>& arrays,
                const std::vector<DirectionId>& dirs) {
    Ex rhs = b.ref(lhs) * 0.4;
    const int terms = 1 + static_cast<int>(rng_() % 4);
    for (int t = 0; t < terms; ++t) {
      rhs = rhs + random_operand(b, arrays, dirs) * coef();
    }
    if (rng_() % 8 == 0) rhs = rhs + b.sref(scalars_[rng_() % scalars_.size()]) * 0.05;
    return rhs;
  }

  void emit_random_stmt(ProgramBuilder& b, RegionId I, const Ix& n,
                        const std::vector<ArrayId>& arrays,
                        const std::vector<DirectionId>& dirs) {
    const ArrayId lhs = arrays[rng_() % arrays.size()];
    const Ex rhs = random_rhs(b, lhs, arrays, dirs);

    if (rng_() % 5 == 0) {
      // Row-region statement (shifts from row k±1 stay in [0, n+1]).
      const long long k = 1 + static_cast<long long>(rng_() % 4);
      b.assign(ProgramBuilder::spec({{Ix(k), Ix(k)}, {1, n}}), lhs, rhs);
    } else {
      b.assign(I, lhs, rhs);
    }
  }

  /// A sweep over the interior's rows or columns, forward or backward, each
  /// statement's region the single line the loop variable names; the lines
  /// read their neighbours through shifts, so the regions and the
  /// communication geometry depend on the loop variable. Sometimes the
  /// line is also reduced into `m`.
  void emit_sweep(ProgramBuilder& b, const Ix& n, const std::vector<ArrayId>& arrays,
                  const std::vector<DirectionId>& dirs, zir::ScalarId m, const std::string& var) {
    const bool rows = rng_() % 2 == 0;
    const bool forward = rng_() % 2 == 0;
    const int n_stmts = 1 + static_cast<int>(rng_() % 2);
    const bool reduce = rng_() % 2 == 0;
    const auto body = [&] {
      const Ix i = b.loop_ix();
      const zir::RegionSpec line = rows ? ProgramBuilder::spec({{i, i}, {1, n}})
                                        : ProgramBuilder::spec({{1, n}, {i, i}});
      for (int k = 0; k < n_stmts; ++k) {
        const ArrayId lhs = arrays[rng_() % arrays.size()];
        b.assign(line, lhs, random_rhs(b, lhs, arrays, dirs));
      }
      if (reduce) {
        b.sassign_over(line, m, b.reduce(zir::ReduceOp::kMax, random_operand(b, arrays, dirs)));
      }
    };
    if (forward) {
      b.for_(var, 1, n, body);
    } else {
      b.for_(var, n, 1, body, -1);
    }
  }

  /// A +<< or max<< whose operand is -0.0 (Index1 * -0.0 is -0.0 at every
  /// element; an array times -0.0 mixes both zeros) over a 2x2 corner of
  /// the interior: only a strict subset of processors owns it, so the
  /// inactive ones around it combine identities.
  void emit_corner_reduce(ProgramBuilder& b, const Ix& n, const std::vector<ArrayId>& arrays,
                          zir::ScalarId z) {
    const bool low = rng_() % 2 == 0;
    const zir::RegionSpec corner = low ? ProgramBuilder::spec({{1, 2}, {1, 2}})
                                       : ProgramBuilder::spec({{n - 1, n}, {n - 1, n}});
    const zir::ReduceOp op = rng_() % 2 == 0 ? zir::ReduceOp::kSum : zir::ReduceOp::kMax;
    const Ex operand =
        rng_() % 2 == 0 ? b.index(1) * -0.0 : b.ref(arrays[rng_() % arrays.size()]) * -0.0;
    b.sassign_over(corner, z, b.reduce(op, operand));
  }

  std::mt19937 rng_;
  std::vector<zir::ScalarId> scalars_;
};

sim::RunResult run_with(const zir::Program& p, const comm::OptOptions& opts, int procs,
                        ironman::CommLibrary lib, sim::EngineKind engine = sim::EngineKind::kEvent,
                        trace::Recorder* recorder = nullptr,
                        tseries::SimSeries* timeline = nullptr) {
  const comm::CommPlan plan = comm::plan_communication(p, opts);
  sim::RunConfig cfg;
  cfg.engine = engine;
  cfg.recorder = recorder;
  cfg.timeline = timeline;
  cfg.procs = procs;
  cfg.library = lib;
  return sim::run_program(p, plan, cfg);
}

class RandomPrograms : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomPrograms, AllOptimizationsPreserveSemantics) {
  const zir::Program p = RandomProgram(GetParam()).generate();
  const sim::RunResult ref = run_with(p, comm::OptOptions::for_level(comm::OptLevel::kBaseline),
                                      1, ironman::CommLibrary::kPVM);

  std::vector<comm::OptOptions> variants;
  for (const auto level : {comm::OptLevel::kBaseline, comm::OptLevel::kRR, comm::OptLevel::kCC,
                           comm::OptLevel::kPL}) {
    variants.push_back(comm::OptOptions::for_level(level));
  }
  for (const auto h : {comm::CombineHeuristic::kMaxLatency, comm::CombineHeuristic::kNested,
                       comm::CombineHeuristic::kHybrid}) {
    comm::OptOptions o = comm::OptOptions::for_level(comm::OptLevel::kPL);
    o.heuristic = h;
    variants.push_back(o);
  }
  {
    comm::OptOptions o = comm::OptOptions::for_level(comm::OptLevel::kPL);
    o.inter_block = true;  // cross-block extension
    variants.push_back(o);
  }

  for (const int procs : {3, 4, 7}) {
    for (std::size_t v = 0; v < variants.size(); ++v) {
      for (const auto lib : {ironman::CommLibrary::kPVM, ironman::CommLibrary::kSHMEM}) {
        SCOPED_TRACE("seed " + std::to_string(GetParam()) + " procs " + std::to_string(procs) +
                     " variant " + std::to_string(v) + " lib " + ironman::to_string(lib));
        trace::Recorder event_rec(procs);
        trace::Recorder lock_rec(procs);
        tseries::SimSeries event_series(procs);
        tseries::SimSeries lock_series(procs);
        const sim::RunResult got = run_with(p, variants[v], procs, lib,
                                            sim::EngineKind::kEvent, &event_rec, &event_series);
        for (const auto& [name, value] : ref.checksums) {
          ASSERT_TRUE(std::isfinite(value));
          const double tol = 1e-9 * std::max(1.0, std::fabs(value));
          ASSERT_NEAR(got.checksums.at(name), value, tol) << "array " << name;
        }
        for (const auto& [name, value] : ref.scalars) {
          ASSERT_TRUE(std::isfinite(value));
          ASSERT_NEAR(got.scalars.at(name), value, 1e-9 * std::max(1.0, std::fabs(value)))
              << "scalar " << name;
        }

        // The lockstep core agrees bit for bit, and so do both observers.
        const sim::RunResult lock = run_with(p, variants[v], procs, lib,
                                             sim::EngineKind::kLockstep, &lock_rec, &lock_series);
        ASSERT_EQ(exec::result_checksum(lock), exec::result_checksum(got));
        ASSERT_EQ(trace::compute_stats(lock_rec).to_csv(),
                  trace::compute_stats(event_rec).to_csv());
        ASSERT_EQ(lock_series.to_csv(), event_series.to_csv());
      }
    }
  }
}

TEST_P(RandomPrograms, CountsMonotoneAndPlanWellFormed) {
  const zir::Program p = RandomProgram(GetParam() + 1000).generate();
  const int base =
      comm::plan_communication(p, comm::OptOptions::for_level(comm::OptLevel::kBaseline))
          .static_count();
  const int rr = comm::plan_communication(p, comm::OptOptions::for_level(comm::OptLevel::kRR))
                     .static_count();
  const int cc = comm::plan_communication(p, comm::OptOptions::for_level(comm::OptLevel::kCC))
                     .static_count();
  EXPECT_GE(base, rr);
  EXPECT_GE(rr, cc);

  for (const auto level : {comm::OptLevel::kBaseline, comm::OptLevel::kPL}) {
    const comm::CommPlan plan =
        comm::plan_communication(p, comm::OptOptions::for_level(level));
    for (const comm::BlockPlan& bp : plan.blocks) {
      const int nstmts = static_cast<int>(bp.stmts.size());
      for (const comm::CommGroup& g : bp.groups) {
        EXPECT_LE(g.dr_pos, g.sr_pos);
        EXPECT_LE(g.sr_pos, g.dn_pos);
        EXPECT_LE(g.dn_pos, g.sv_pos);
        EXPECT_GE(g.dr_pos, 0);
        EXPECT_LE(g.sv_pos, nstmts);
        EXPECT_FALSE(g.members.empty());
        // Send point legal for every member: after its earliest, receive
        // before its first use.
        EXPECT_GE(g.sr_pos, g.earliest_send);
        EXPECT_LE(g.dn_pos, g.first_use);
        // No duplicate arrays within a group.
        for (std::size_t i = 0; i < g.members.size(); ++i) {
          for (std::size_t j = i + 1; j < g.members.size(); ++j) {
            EXPECT_NE(g.members[i].array, g.members[j].array);
          }
        }
      }
    }
  }
}

TEST_P(RandomPrograms, VectorEvaluatorMatchesElementwiseReference) {
  const zir::Program p = RandomProgram(GetParam() + 2000).generate();
  // Build a single-processor context covering the whole declared region.
  const zir::IntEnv env = p.default_env();
  const rt::Box declared =
      rt::eval_region(p.region(p.find_region("R")).spec, env);
  std::vector<rt::LocalArray> arrays;
  for (std::size_t a = 0; a < p.array_count(); ++a) {
    arrays.emplace_back(declared, declared, std::array<long long, 3>{1, 1, 0});
    std::mt19937 fill(GetParam() + static_cast<unsigned>(a));
    for (long long i = declared.lo[0]; i <= declared.hi[0]; ++i) {
      for (long long j = declared.lo[1]; j <= declared.hi[1]; ++j) {
        arrays.back().at(i, j) = (static_cast<double>(fill() % 1000) - 500.0) / 250.0;
      }
    }
  }
  std::vector<double> scalars(p.scalar_count(), 0.25);
  rt::EvalContext ctx;
  ctx.program = &p;
  ctx.arrays = &arrays;
  ctx.scalars = &scalars;
  ctx.env = &env;
  const rt::Box inner = rt::eval_region(p.region(p.find_region("I")).spec, env);
  ctx.box = inner;

  // Independent element-at-a-time evaluator.
  struct Ref {
    const zir::Program& p;
    const rt::EvalContext& ctx;
    double at(zir::ExprId id, long long i, long long j) const {
      const zir::Expr& e = p.expr(id);
      switch (e.kind) {
        case zir::Expr::Kind::kConst: return e.const_value;
        case zir::Expr::Kind::kScalarRef: return (*ctx.scalars)[e.scalar.index()];
        case zir::Expr::Kind::kConfigRef:
          return static_cast<double>(ctx.env->config_values[e.config.index()]);
        case zir::Expr::Kind::kArrayRef: return (*ctx.arrays)[e.array.index()].at(i, j);
        case zir::Expr::Kind::kShift: {
          const auto& off = p.direction(e.direction).offsets;
          return (*ctx.arrays)[e.array.index()].at(i + off[0], j + off[1]);
        }
        case zir::Expr::Kind::kIndex:
          return static_cast<double>(e.index_dim == 1 ? i : j);
        case zir::Expr::Kind::kBinary: {
          const double a = at(e.lhs, i, j);
          const double b = at(e.rhs, i, j);
          switch (e.bin_op) {
            case zir::BinOp::kAdd: return a + b;
            case zir::BinOp::kSub: return a - b;
            case zir::BinOp::kMul: return a * b;
            case zir::BinOp::kDiv: return a / b;
            default: return 0.0;  // generator uses arithmetic ops only
          }
        }
        case zir::Expr::Kind::kUnary: {
          const double a = at(e.lhs, i, j);
          switch (e.un_op) {
            case zir::UnOp::kNeg: return -a;
            case zir::UnOp::kSin: return std::sin(a);
            case zir::UnOp::kCos: return std::cos(a);
            case zir::UnOp::kAbs: return std::fabs(a);
            default: return a;
          }
        }
        default:
          ADD_FAILURE() << "unexpected node";
          return 0.0;
      }
    }
  } ref{p, ctx};

  const rt::Evaluator ev(p);
  std::vector<double> out;
  int checked = 0;
  for (std::size_t sid = 0; sid < p.stmt_count() && checked < 6; ++sid) {
    const zir::Stmt& s = p.stmt(zir::StmtId(static_cast<int32_t>(sid)));
    if (s.kind != zir::Stmt::Kind::kArrayAssign || !s.region->is_static()) continue;
    // Only check full-interior statements (row regions have loop vars).
    ev.eval_vector(ctx, s.rhs, out);
    std::size_t k = 0;
    for (long long i = inner.lo[0]; i <= inner.hi[0]; ++i) {
      for (long long j = inner.lo[1]; j <= inner.hi[1]; ++j, ++k) {
        const double want = ref.at(s.rhs, i, j);
        ASSERT_NEAR(out[k], want, 1e-12 * std::max(1.0, std::fabs(want)))
            << "stmt " << sid << " at (" << i << "," << j << ")";
      }
    }
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPrograms, ::testing::Range(0u, 12u));

}  // namespace
}  // namespace zc
