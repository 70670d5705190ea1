// The event core's row-wise expression kernel (sim::eval_expr_prog) against
// the tree-walking rt::Evaluator, bit for bit: every operator in every
// operand shape, IEEE special values, boxes of rank 1-3 (empty and
// single-element rows included), Index reads, and scalar splats. Also pins
// the out-of-region shift error, which the kernel raises before any
// arithmetic, to the lockstep core's message.
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/comm/optimizer.h"
#include "src/runtime/eval.h"
#include "src/sim/bytecode.h"
#include "src/sim/engine.h"
#include "src/support/diag.h"
#include "src/zir/builder.h"

namespace zc {
namespace {

using zir::BinOp;
using zir::Ex;
using zir::ProgramBuilder;
using zir::UnOp;

constexpr std::array<BinOp, 15> kBinOps = {
    BinOp::kAdd, BinOp::kSub, BinOp::kMul, BinOp::kDiv, BinOp::kMin,
    BinOp::kMax, BinOp::kPow, BinOp::kLt,  BinOp::kLe,  BinOp::kGt,
    BinOp::kGe,  BinOp::kEq,  BinOp::kNe,  BinOp::kAnd, BinOp::kOr,
};
constexpr std::array<UnOp, 8> kUnOps = {UnOp::kNeg, UnOp::kNot, UnOp::kAbs, UnOp::kSqrt,
                                        UnOp::kExp, UnOp::kLog, UnOp::kSin, UnOp::kCos};

/// Nine inputs: both zeros, NaN, both infinities, a denormal, and ordinary
/// values of either sign.
const std::array<double, 9> kSpecials = {
    0.0,
    -0.0,
    std::numeric_limits<double>::quiet_NaN(),
    std::numeric_limits<double>::infinity(),
    -std::numeric_limits<double>::infinity(),
    std::numeric_limits<double>::denorm_min(),
    1.5,
    -2.25,
    3.0,
};

/// One program of a single rank: arrays A and B over the declared region
/// D, a scalar s, and a shift direction that reads inward from the margin.
struct Fixture {
  int rank = 0;
  zir::Program program;
  std::vector<zir::ExprId> exprs;  // the rhs of every statement, in order
  std::vector<rt::LocalArray> arrays;
  rt::Box declared;
};

std::vector<std::pair<zir::Ix, zir::Ix>> bounds_for(int rank) {
  switch (rank) {
    case 1: return {{0, 82}};
    case 2: return {{0, 10}, {0, 10}};
    default: return {{0, 4}, {0, 4}, {0, 10}};
  }
}

/// Fills A and B from kSpecials so that, over the rank's test box, every
/// (A, B) pair of specials meets at some element.
double fill(int array, int rank, long long i, long long j, long long k) {
  const long long pos = array == 0 ? (rank == 3 ? k : i)
                                   : (rank == 1 ? i / 9 : rank == 2 ? j : i * 3 + j);
  return kSpecials[static_cast<std::size_t>(pos % 9)];
}

Fixture make_fixture(int rank) {
  ProgramBuilder b("kernel" + std::to_string(rank));
  const zir::RegionId D = b.region("D", bounds_for(rank));
  std::vector<int> off(static_cast<std::size_t>(rank), 0);
  off.back() = 1;
  const zir::DirectionId east = b.direction("east", off);
  off.front() = -1;
  const zir::DirectionId diag = b.direction("diag", off);
  const zir::ArrayId A = b.array("A", D);
  const zir::ArrayId B = b.array("B", D);
  const zir::ScalarId s = b.scalar("s");

  std::vector<Ex> rhs;
  for (const BinOp op : kBinOps) {
    rhs.push_back(b.binary(op, b.ref(A), b.ref(B)));           // VV
    rhs.push_back(b.binary(op, b.ref(A), b.sref(s)));          // VS
    rhs.push_back(b.binary(op, b.sref(s), b.ref(B)));          // SV
    rhs.push_back(b.binary(op, b.sref(s), b.lit(-0.0)));       // SS, splatted
    rhs.push_back(b.binary(op, b.at(A, east), b.at(B, diag)));  // VV over shifts
  }
  for (const UnOp op : kUnOps) {
    rhs.push_back(b.unary(op, b.ref(A)));     // UnV
    rhs.push_back(b.unary(op, b.at(B, east)));
  }
  for (int d = 1; d <= rank; ++d) {
    rhs.push_back(b.index(d));
    rhs.push_back(b.index(d) * b.ref(A) + b.binary(BinOp::kMax, b.sref(s), b.index(d)));
  }
  rhs.push_back(b.at(A, diag));  // a bare in-place read, copied out whole
  rhs.push_back(b.ref(B));
  rhs.push_back(b.sref(s));      // scalar-only program
  // Deep stack: a row buffer at every depth, operands mixed in and out of
  // place. It is last, and the only expression where a generated NaN
  // (inf - inf gives the sign-set default NaN) meets an input NaN.
  rhs.push_back(b.ref(A) -
                (b.at(B, east) * (b.sref(s) + (b.at(A, diag) / (b.ref(B) + b.index(rank))))));

  Fixture f;
  f.rank = rank;
  b.proc("main", [&] {
    for (const Ex& e : rhs) b.assign(D, A, e);
  });
  f.program = std::move(b).finish();
  for (const Ex& e : rhs) f.exprs.push_back(e.id());

  const zir::IntEnv env = f.program.default_env();
  f.declared = rt::eval_region(f.program.region(D).spec, env);
  for (int a = 0; a < 2; ++a) {
    f.arrays.emplace_back(f.declared, f.declared, std::array<long long, 3>{1, 1, 1});
    rt::LocalArray& la = f.arrays.back();
    const rt::Box& box = f.declared;
    const long long j_hi = rank >= 2 ? box.hi[1] : 0;
    const long long k_hi = rank >= 3 ? box.hi[2] : 0;
    for (long long i = box.lo[0]; i <= box.hi[0]; ++i) {
      for (long long j = rank >= 2 ? box.lo[1] : 0; j <= j_hi; ++j) {
        for (long long k = rank >= 3 ? box.lo[2] : 0; k <= k_hi; ++k) {
          la.at(i, j, k) = fill(a, rank, i, j, k);
        }
      }
    }
  }
  return f;
}

/// Boxes inside D shrunk by the shift margin: the pair-covering box, a
/// single-element-row box, and an empty box.
std::vector<rt::Box> boxes_for(int rank) {
  switch (rank) {
    case 1:
      return {rt::Box::make(1, {1, 0, 0}, {81, 0, 0}), rt::Box::make(1, {5, 0, 0}, {5, 0, 0}),
              rt::Box::make(1, {6, 0, 0}, {5, 0, 0})};
    case 2:
      return {rt::Box::make(2, {1, 1, 0}, {9, 9, 0}), rt::Box::make(2, {1, 4, 0}, {9, 4, 0}),
              rt::Box::make(2, {5, 1, 0}, {4, 9, 0})};
    default:
      return {rt::Box::make(3, {1, 1, 1}, {3, 3, 9}), rt::Box::make(3, {1, 2, 7}, {3, 3, 7}),
              rt::Box::make(3, {1, 1, 1}, {3, 3, 0})};
  }
}

/// memcmp per element. With `nan_payload_free`, two NaNs also match: when
/// both operands of an operation are NaNs with different payloads, IEEE 754
/// leaves open which one the result carries, and GCC's choice follows
/// operand order in registers, which differs between the two evaluators'
/// loops.
::testing::AssertionResult bits_equal(const std::vector<double>& want,
                                      const std::vector<double>& got, bool nan_payload_free) {
  if (want.size() != got.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << ", want " << want.size();
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::memcmp(&want[i], &got[i], sizeof(double)) != 0 &&
        !(nan_payload_free && std::isnan(want[i]) && std::isnan(got[i]))) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << got[i] << ", want " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

class KernelByRank : public ::testing::TestWithParam<int> {};

TEST_P(KernelByRank, BitIdenticalToEvaluator) {
  const Fixture f = make_fixture(GetParam());
  const zir::IntEnv env = f.program.default_env();
  const rt::Evaluator evaluator(f.program);
  sim::ExprScratch scratch;  // shared across calls, as in a run
  std::vector<double> want;
  int compared = 0;
  for (const double s : kSpecials) {
    const std::vector<double> scalars = {s};
    for (const rt::Box& box : boxes_for(f.rank)) {
      rt::EvalContext ctx;
      ctx.program = &f.program;
      ctx.arrays = &f.arrays;
      ctx.scalars = &scalars;
      ctx.env = &env;
      ctx.box = box;
      for (std::size_t e = 0; e < f.exprs.size(); ++e) {
        const sim::ExprProg prog = sim::compile_expr(f.program, f.exprs[e]);
        evaluator.eval_vector(ctx, f.exprs[e], want);
        const std::vector<double>& got =
            sim::eval_expr_prog(prog, f.program, f.arrays, scalars, env, box, scratch);
        const bool mixed_nans = e + 1 == f.exprs.size();
        ASSERT_TRUE(bits_equal(want, got, mixed_nans))
            << "rank " << f.rank << " expr " << e << " box " << box.to_string() << " s " << s;
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 0);
}

INSTANTIATE_TEST_SUITE_P(Ranks, KernelByRank, ::testing::Values(1, 2, 3));

/// A statement whose shift reads past the declared region must fail with
/// the same message on both engine cores.
std::string shift_error(sim::EngineKind engine) {
  ProgramBuilder b("overread");
  const zir::Ix n = b.config("n", 8);
  const zir::RegionId R = b.region("R", {{1, n}, {1, n}});
  const zir::DirectionId east = b.direction("east", {0, 1});
  const zir::ArrayId A = b.array("A", R);
  const zir::ArrayId B = b.array("B", R);
  b.proc("main", [&] {
    b.assign(R, A, b.index(1) + b.index(2));
    b.assign(R, B, b.ref(A) * 2.0 + b.at(A, east));
  });
  const zir::Program p = std::move(b).finish();
  const comm::CommPlan plan =
      comm::plan_communication(p, comm::OptOptions::for_level(comm::OptLevel::kPL));
  sim::RunConfig cfg;
  cfg.engine = engine;
  cfg.procs = 4;
  try {
    (void)sim::run_program(p, plan, cfg);
  } catch (const Error& e) {
    return e.what();
  }
  return "no error";
}

TEST(KernelErrors, ShiftedReadPastRegionMatchesLockstep) {
  const std::string event = shift_error(sim::EngineKind::kEvent);
  const std::string lockstep = shift_error(sim::EngineKind::kLockstep);
  EXPECT_NE(event.find("shifted read of 'A' outside its declared region"), std::string::npos)
      << event;
  EXPECT_EQ(event, lockstep);
}

}  // namespace
}  // namespace zc
