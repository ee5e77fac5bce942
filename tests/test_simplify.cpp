// Dedicated pins for the simplifier's extra rewrite rules and the builder
// canonicalization they rely on (commutative constant operands on the
// right), plus a differential property check of every rule pattern against
// concrete evaluation and Z3.
#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "smt/context.hpp"
#include "smt/eval.hpp"
#include "smt/simplify.hpp"
#include "smt/solver.hpp"
#include "support/rng.hpp"

namespace binsym::smt {
namespace {

class SimplifyRules : public ::testing::Test {
 protected:
  Context ctx;
  ExprRef x = ctx.var("x", 8);

  ExprRef c(uint64_t v, unsigned w = 8) { return ctx.constant(v, w); }
};

// -- Builder canonicalization of commutative constant operands. ---------------

TEST_F(SimplifyRules, CommutativeBuildersPutConstantsOnTheRight) {
  EXPECT_EQ(ctx.add(c(3), x), ctx.add(x, c(3)));
  EXPECT_EQ(ctx.mul(c(3), x), ctx.mul(x, c(3)));
  EXPECT_EQ(ctx.and_(c(3), x), ctx.and_(x, c(3)));
  EXPECT_EQ(ctx.or_(c(3), x), ctx.or_(x, c(3)));
  EXPECT_EQ(ctx.xor_(c(3), x), ctx.xor_(x, c(3)));
  for (ExprRef e : {ctx.add(c(3), x), ctx.mul(c(3), x), ctx.and_(c(3), x),
                    ctx.or_(c(3), x), ctx.xor_(c(3), x)}) {
    ASSERT_EQ(e->num_ops, 2u);
    EXPECT_TRUE(e->ops[1]->is_const()) << kind_name(e->kind);
  }
}

TEST_F(SimplifyRules, EqCanonicalizesConstantsAtEveryWidth) {
  // Width 8 (not just the boolean width-1 reduction): c == x interns as
  // x == c, so the constant-chain rules need only one orientation.
  ExprRef ab = ctx.eq(c(7), x);
  EXPECT_EQ(ab, ctx.eq(x, c(7)));
  ASSERT_EQ(ab->kind, Kind::kEq);
  EXPECT_TRUE(ab->ops[1]->is_const());

  ExprRef w32 = ctx.var("w", 32);
  EXPECT_EQ(ctx.eq(ctx.constant(9, 32), w32), ctx.eq(w32, ctx.constant(9, 32)));
}

// -- The extra rewrite rules, pinned one by one. ------------------------------

TEST_F(SimplifyRules, AddConstantEqualsConstant) {
  // (x + 3) == 10  -->  x == 7
  ExprRef root = ctx.eq(ctx.add(x, c(3)), c(10));
  EXPECT_EQ(simplify(ctx, root), ctx.eq(x, c(7)));
}

TEST_F(SimplifyRules, SubFromConstantEqualsConstant) {
  // (3 - x) == 10  -->  x == (3 - 10) == 0xf9 (mod 256)
  ExprRef root = ctx.eq(ctx.sub(c(3), x), c(10));
  EXPECT_EQ(simplify(ctx, root), ctx.eq(x, c(0xf9)));
}

TEST_F(SimplifyRules, SubConstantFoldsThroughTheAddRule) {
  // The builders canonicalize (x - 3) to (x + 0xfd), so the equality is
  // picked up by the add rule: (x - 3) == 10  -->  x == 13.
  ExprRef sub = ctx.sub(x, c(3));
  EXPECT_EQ(sub->kind, Kind::kAdd);  // builder canonicalization, explicit
  ExprRef root = ctx.eq(sub, c(10));
  EXPECT_EQ(simplify(ctx, root), ctx.eq(x, c(13)));
}

TEST_F(SimplifyRules, XorConstantEqualsConstant) {
  // (x ^ 0x0f) == 0xf0  -->  x == 0xff
  ExprRef root = ctx.eq(ctx.xor_(x, c(0x0f)), c(0xf0));
  EXPECT_EQ(simplify(ctx, root), ctx.eq(x, c(0xff)));
}

TEST_F(SimplifyRules, UltOneBecomesEqualsZero) {
  ExprRef root = ctx.ult(ctx.add(x, c(1)), c(1));
  // ult(y, 1) --> y == 0, then the add rule: x == 0xff.
  EXPECT_EQ(simplify(ctx, root), ctx.eq(x, c(0xff)));
}

TEST_F(SimplifyRules, RulesComposeDownChains) {
  // ((x + 2) ^ 5) == 9  -->  (x + 2) == 12  -->  x == 10
  ExprRef root = ctx.eq(ctx.xor_(ctx.add(x, c(2)), c(5)), c(9));
  EXPECT_EQ(simplify(ctx, root), ctx.eq(x, c(10)));
}

// -- The arena-id-keyed memo overload. ----------------------------------------

TEST_F(SimplifyRules, SharedMemoMatchesFreshSimplificationAcrossRoots) {
  // The memo keys on the dense arena node id (source -> simplified). A memo
  // shared across overlapping roots must return exactly what a fresh
  // per-root simplification returns.
  Context c2;
  ExprRef v = c2.var("v", 8);
  ExprRef shared = c2.eq(c2.add(v, c2.constant(3, 8)), c2.constant(10, 8));
  std::vector<ExprRef> roots = {
      shared,
      c2.and_(shared, c2.ult(v, c2.constant(20, 8))),
      c2.or_(shared, c2.eq(c2.xor_(v, c2.constant(0x0f, 8)),
                           c2.constant(0xf0, 8))),
      // A structural clone of `shared`: interning makes it the same node.
      c2.eq(c2.add(v, c2.constant(3, 8)), c2.constant(10, 8)),
  };
  std::unordered_map<uint32_t, ExprRef> memo;
  for (size_t i = 0; i < roots.size(); ++i) {
    ExprRef with_memo = simplify(c2, roots[i], memo);
    // Interning collapses the rebuilt result onto the memoized node.
    EXPECT_EQ(with_memo, simplify(c2, roots[i])) << "root " << i;
    // And repeated queries through the warm memo are stable.
    EXPECT_EQ(simplify(c2, roots[i], memo), with_memo) << "root " << i;
  }
  EXPECT_EQ(roots[0], roots[3]);  // the clone collapsed
}

// -- Differential property: every rule pattern preserves semantics. -----------

TEST_F(SimplifyRules, RulePatternsAgreeWithEvaluatorAndZ3) {
  Rng rng(2025);
  auto solver = make_z3_solver(ctx);
  for (int round = 0; round < 64; ++round) {
    uint64_t c1 = rng.next() & 0xff, c2 = rng.next() & 0xff;
    std::vector<ExprRef> roots = {
        ctx.eq(ctx.add(x, c(c1)), c(c2)),
        ctx.eq(ctx.sub(c(c1), x), c(c2)),
        ctx.eq(ctx.sub(x, c(c1)), c(c2)),
        ctx.eq(ctx.xor_(x, c(c1)), c(c2)),
        ctx.ult(ctx.add(x, c(c1)), c(1)),
    };
    for (ExprRef root : roots) {
      ExprRef simplified = simplify(ctx, root);
      // Concrete agreement on a sweep of inputs.
      for (int i = 0; i < 8; ++i) {
        Assignment a;
        a.set(x->var_id, rng.next() & 0xff);
        EXPECT_EQ(evaluate(root, a), evaluate(simplified, a))
            << "c1=" << c1 << " c2=" << c2;
      }
      // Solver agreement: root != simplified must be unsat.
      std::vector<ExprRef> query = {ctx.ne(root, simplified)};
      EXPECT_EQ(solver->check(query, nullptr), CheckResult::kUnsat)
          << "c1=" << c1 << " c2=" << c2;
    }
  }
}

}  // namespace
}  // namespace binsym::smt
