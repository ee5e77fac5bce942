// SMT-LIB printer tests: golden fragments + well-formedness (declared
// variables, balanced parens, shared nodes let-bound once), and Z3's own
// parser as the independent reader: printed text must mean what the nodes
// mean.
#include <gtest/gtest.h>

#include <algorithm>

#include "smt/smtlib.hpp"
#include "solver_test_util.hpp"
#include "support/bits.hpp"
#include "support/rng.hpp"

namespace binsym::smt {
namespace {

TEST(Smtlib, Constants) {
  Context ctx;
  EXPECT_EQ(to_smtlib(ctx, ctx.constant(0xab, 8)), "#xab");
  EXPECT_EQ(to_smtlib(ctx, ctx.constant(1, 1)), "#b1");
  EXPECT_EQ(to_smtlib(ctx, ctx.constant(5, 12)), "#x005");
  EXPECT_EQ(to_smtlib(ctx, ctx.constant(0b101, 5)), "#b00101");
}

TEST(Smtlib, SimpleExpression) {
  Context ctx;
  ExprRef x = ctx.var("x", 32);
  ExprRef e = ctx.add(x, ctx.constant(1, 32));
  EXPECT_EQ(to_smtlib(ctx, e), "(bvadd x #x00000001)");
}

TEST(Smtlib, ParameterizedOps) {
  Context ctx;
  ExprRef b = ctx.var("b", 8);
  EXPECT_EQ(to_smtlib(ctx, ctx.zext(b, 32)), "((_ zero_extend 24) b)");
  EXPECT_EQ(to_smtlib(ctx, ctx.sext(b, 16)), "((_ sign_extend 8) b)");
  ExprRef w = ctx.var("w", 32);
  EXPECT_EQ(to_smtlib(ctx, ctx.extract(w, 15, 8)), "((_ extract 15 8) w)");
}

TEST(Smtlib, SharedNodesUseLet) {
  Context ctx;
  ExprRef x = ctx.var("x", 32);
  ExprRef sum = ctx.add(x, ctx.var("y", 32));
  ExprRef e = ctx.mul(sum, sum);
  std::string text = to_smtlib(ctx, e);
  EXPECT_NE(text.find("(let (("), std::string::npos);
  // The shared bvadd must be printed exactly once.
  size_t first = text.find("bvadd");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("bvadd", first + 1), std::string::npos);
}

TEST(Smtlib, QueryShape) {
  Context ctx;
  ExprRef x = ctx.var("x", 8);
  std::string query = query_string(
      ctx, {ctx.ult(x, ctx.constant(10, 8)),
            ctx.not_(ctx.eq(x, ctx.constant(3, 8)))});
  EXPECT_NE(query.find("(set-logic QF_BV)"), std::string::npos);
  EXPECT_NE(query.find("(declare-const x (_ BitVec 8))"), std::string::npos);
  EXPECT_NE(query.find("(assert"), std::string::npos);
  EXPECT_NE(query.find("(check-sat)"), std::string::npos);
  // Balanced parentheses.
  EXPECT_EQ(std::count(query.begin(), query.end(), '('),
            std::count(query.begin(), query.end(), ')'));
}

TEST(Smtlib, Fig2StyleDivuBranchQuery) {
  // The shape of the paper's Fig. 2 solver query: DIVU feeding a BLTU
  // branch condition. The printed query must mention bvudiv and bvult.
  Context ctx;
  ExprRef x = ctx.var("a0", 32);
  ExprRef y = ctx.var("a1", 32);
  ExprRef z = ctx.ite(ctx.eq(y, ctx.constant(0, 32)),
                      ctx.constant(0xffffffff, 32), ctx.udiv(x, y));
  std::string query = query_string(ctx, {ctx.ult(x, z)});
  EXPECT_NE(query.find("bvudiv"), std::string::npos);
  EXPECT_NE(query.find("bvult"), std::string::npos);
  EXPECT_NE(query.find("ite"), std::string::npos);
}

TEST(Smtlib, AssertionsBooleanized) {
  // Width-1 bitvectors must be compared against #b1 to become Bool.
  Context ctx;
  ExprRef b = ctx.var("b", 1);
  std::string query = query_string(ctx, {b}, false);
  EXPECT_NE(query.find("(assert (= b #b1))"), std::string::npos);
}

// -- Z3 as the independent reader. ------------------------------------------
//
// Each printed form goes through Z3's SMT-LIB parser with every variable
// pinned to a random model value: Z3 must call `e == v` sat exactly for the
// value v that binsym's evaluator gives e (z3_reads_like_evaluator).

/// For `e` under a few random models: `e == eval(e)` must read as sat and
/// `e == eval(e) + 1` as unsat.
void expect_z3_reads(Context& ctx, ExprRef e, uint64_t seed) {
  Rng rng(seed);
  for (int round = 0; round < 4; ++round) {
    Assignment model;
    for (uint32_t id = 0; id < ctx.num_vars(); ++id)
      model.set(id, rng.next() & mask_bits(ctx.var_info(id).width));
    const uint64_t value = evaluate(e, model);
    for (uint64_t v : {value, value + 1}) {
      EXPECT_TRUE(z3_reads_like_evaluator(
          ctx, {ctx.eq(e, ctx.constant(v, e->width))}, model))
          << to_smtlib(ctx, e) << " == " << v;
    }
  }
}

TEST(SmtlibZ3Read, LetSharedNodes) {
  Context ctx;
  ExprRef x = ctx.var("x", 32);
  ExprRef sum = ctx.add(x, ctx.var("y", 32));
  ExprRef e = ctx.mul(sum, sum);
  ASSERT_NE(to_smtlib(ctx, e).find("(let (("), std::string::npos);
  expect_z3_reads(ctx, e, 1);
}

TEST(SmtlibZ3Read, NoLetSingleUseChain) {
  // Every node used exactly once: no lets at all, just a nested tree.
  Context ctx;
  ExprRef a = ctx.var("a", 8);
  ExprRef b = ctx.var("b", 16);
  ExprRef e = ctx.ite(ctx.ult(ctx.zext(a, 16), b),
                      ctx.extract(b, 7, 0), ctx.not_(a));
  ASSERT_EQ(to_smtlib(ctx, e).find("(let"), std::string::npos);
  expect_z3_reads(ctx, e, 2);
}

TEST(SmtlibZ3Read, IndexedAndLiteralForms) {
  Context ctx;
  ExprRef w = ctx.var("w", 32);
  ExprRef b = ctx.var("b", 1);
  for (ExprRef e :
       {ctx.sext(ctx.extract(w, 15, 8), 32),
        ctx.concat(ctx.extract(w, 31, 16), ctx.constant(5, 16)),
        ctx.ashr(w, ctx.var("s", 32)),
        ctx.eq(ctx.sle(w, ctx.constant(7, 32)),
               ctx.slt(w, ctx.constant(9, 32))),
        ctx.concat(ctx.extract(w, 4, 0), ctx.constant(0b101, 5)),  // #b
        ctx.add(ctx.extract(w, 11, 0), ctx.constant(5, 12)),  // #x005
        ctx.ite(b, ctx.extract(w, 7, 0), ctx.constant(0xab, 8))}) {
    expect_z3_reads(ctx, e, e->id);
  }
}

TEST(SmtlibZ3Read, SharedSubtermsAcrossAssertions) {
  Context ctx;
  ExprRef x = ctx.var("x", 8);
  ExprRef y = ctx.var("y", 8);
  ExprRef shared = ctx.add(x, y);
  const std::vector<ExprRef> assertions = {
      ctx.ult(shared, ctx.constant(10, 8)),
      ctx.not_(ctx.eq(shared, ctx.constant(3, 8)))};
  Rng rng(3);
  for (int round = 0; round < 16; ++round) {
    Assignment model;
    model.set(x->var_id, rng.next() & 0xf);
    model.set(y->var_id, rng.next() & 0xf);
    EXPECT_TRUE(z3_reads_like_evaluator(ctx, assertions, model))
        << "round " << round;
  }
}

}  // namespace
}  // namespace binsym::smt
