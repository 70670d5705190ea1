#include <gtest/gtest.h>

#include "src/support/diag.h"
#include "src/zir/intexpr.h"
#include "src/zir/program.h"

namespace zc::zir {
namespace {

class IntExprTest : public ::testing::Test {
 protected:
  IntExprTest() {
    n_ = program_.add_config({"n", 10});
    i_ = program_.add_loop_var({"i"});
    env_ = program_.default_env();
  }

  Program program_;
  ConfigId n_;
  LoopVarId i_;
  IntEnv env_;
};

TEST_F(IntExprTest, ConstEval) {
  EXPECT_EQ(IntExpr::constant(42).eval(env_), 42);
}

TEST_F(IntExprTest, ConfigEval) {
  EXPECT_EQ(IntExpr::config(n_).eval(env_), 10);
  env_.config_values[n_.index()] = 128;
  EXPECT_EQ(IntExpr::config(n_).eval(env_), 128);
}

TEST_F(IntExprTest, Arithmetic) {
  const IntExpr e = IntExpr::sub(IntExpr::mul(IntExpr::config(n_), IntExpr::constant(3)),
                                 IntExpr::constant(5));
  EXPECT_EQ(e.eval(env_), 25);
  EXPECT_EQ(IntExpr::div(IntExpr::constant(7), IntExpr::constant(2)).eval(env_), 3);
  EXPECT_EQ(IntExpr::neg(IntExpr::constant(4)).eval(env_), -4);
}

TEST_F(IntExprTest, DivisionByZeroThrows) {
  EXPECT_THROW((void)IntExpr::div(IntExpr::constant(1), IntExpr::constant(0)).eval(env_), Error);
}

TEST_F(IntExprTest, UnboundLoopVarThrows) {
  EXPECT_THROW((void)IntExpr::loop_var(i_).eval(env_), Error);
}

TEST_F(IntExprTest, BoundLoopVarEvaluates) {
  env_.loop_bound[i_.index()] = true;
  env_.loop_values[i_.index()] = 7;
  EXPECT_EQ(IntExpr::add(IntExpr::loop_var(i_), IntExpr::constant(1)).eval(env_), 8);
}

TEST_F(IntExprTest, IsStatic) {
  EXPECT_TRUE(IntExpr::constant(1).is_static());
  EXPECT_TRUE(IntExpr::add(IntExpr::config(n_), IntExpr::constant(1)).is_static());
  EXPECT_FALSE(IntExpr::loop_var(i_).is_static());
  EXPECT_FALSE(IntExpr::sub(IntExpr::config(n_), IntExpr::loop_var(i_)).is_static());
}

TEST_F(IntExprTest, UsesLoopVar) {
  const LoopVarId j = program_.add_loop_var({"j"});
  const IntExpr e = IntExpr::add(IntExpr::loop_var(i_), IntExpr::constant(2));
  EXPECT_TRUE(e.uses_loop_var(i_));
  EXPECT_FALSE(e.uses_loop_var(j));
}

TEST_F(IntExprTest, StructuralEquality) {
  const IntExpr a = IntExpr::add(IntExpr::config(n_), IntExpr::constant(1));
  const IntExpr b = IntExpr::add(IntExpr::config(n_), IntExpr::constant(1));
  const IntExpr c = IntExpr::add(IntExpr::config(n_), IntExpr::constant(2));
  EXPECT_TRUE(a.equals(b));
  EXPECT_FALSE(a.equals(c));
  EXPECT_FALSE(a.equals(IntExpr::constant(11)));  // not value equality
  EXPECT_TRUE(IntExpr::loop_var(i_).equals(IntExpr::loop_var(i_)));
}

TEST_F(IntExprTest, ToString) {
  const IntExpr e = IntExpr::sub(IntExpr::config(n_), IntExpr::constant(1));
  EXPECT_EQ(e.to_string(program_), "(n-1)");
  EXPECT_EQ(IntExpr::neg(IntExpr::loop_var(i_)).to_string(program_), "(-i)");
}

}  // namespace
}  // namespace zc::zir
