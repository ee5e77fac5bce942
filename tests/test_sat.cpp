// Tests for the in-tree SAT solver and bit-blasting backend: CDCL unit
// behaviour, hand-built CNF instances, and differential properties against
// both the concrete evaluator and Z3 on random expression queries.
#include <gtest/gtest.h>

#include "smt/eval.hpp"
#include "smt/sat/bitblast.hpp"
#include "smt/sat/cdcl.hpp"
#include "smt/solver.hpp"
#include "support/bits.hpp"
#include "support/rng.hpp"

namespace binsym::smt {
namespace {

using sat::CdclSolver;
using sat::Lit;
using sat::make_lit;
using sat::SatResult;
using sat::Var;

/// True when `model` (bit v = variable v) satisfies every clause.
bool satisfied_by(const std::vector<std::vector<Lit>>& clauses,
                  uint32_t model) {
  for (const auto& clause : clauses) {
    bool any = false;
    for (Lit lit : clause)
      any |= (((model >> sat::lit_var(lit)) & 1) != 0) != sat::lit_negated(lit);
    if (!any) return false;
  }
  return true;
}

TEST(Cdcl, TrivialSat) {
  CdclSolver solver;
  Var a = solver.new_var();
  EXPECT_TRUE(solver.add_clause({make_lit(a, false)}));
  EXPECT_EQ(solver.solve(), SatResult::kSat);
  EXPECT_TRUE(solver.value(a));
}

TEST(Cdcl, TrivialUnsat) {
  CdclSolver solver;
  Var a = solver.new_var();
  solver.add_clause({make_lit(a, false)});
  EXPECT_FALSE(solver.add_clause({make_lit(a, true)}));
  EXPECT_EQ(solver.solve(), SatResult::kUnsat);
}

TEST(Cdcl, PropagationChain) {
  // (a) & (~a | b) & (~b | c)  =>  a, b, c all true.
  CdclSolver solver;
  Var a = solver.new_var(), b = solver.new_var(), c = solver.new_var();
  solver.add_clause({make_lit(a, false)});
  solver.add_clause({make_lit(a, true), make_lit(b, false)});
  solver.add_clause({make_lit(b, true), make_lit(c, false)});
  ASSERT_EQ(solver.solve(), SatResult::kSat);
  EXPECT_TRUE(solver.value(a));
  EXPECT_TRUE(solver.value(b));
  EXPECT_TRUE(solver.value(c));
}

TEST(Cdcl, RequiresConflictAnalysis) {
  // Pigeonhole PHP(3,2): 3 pigeons, 2 holes — classic small unsat that
  // forces learning. Variables p[i][j] = pigeon i in hole j.
  CdclSolver solver;
  Var p[3][2];
  for (auto& row : p)
    for (Var& v : row) v = solver.new_var();
  for (int i = 0; i < 3; ++i)
    solver.add_clause({make_lit(p[i][0], false), make_lit(p[i][1], false)});
  for (int j = 0; j < 2; ++j)
    for (int i1 = 0; i1 < 3; ++i1)
      for (int i2 = i1 + 1; i2 < 3; ++i2)
        solver.add_clause({make_lit(p[i1][j], true), make_lit(p[i2][j], true)});
  EXPECT_EQ(solver.solve(), SatResult::kUnsat);
  EXPECT_GT(solver.stats().conflicts, 0u);
}

TEST(Cdcl, TautologyAndDuplicatesHandled) {
  CdclSolver solver;
  Var a = solver.new_var(), b = solver.new_var();
  EXPECT_TRUE(solver.add_clause(
      {make_lit(a, false), make_lit(a, true)}));  // tautology dropped
  EXPECT_TRUE(solver.add_clause(
      {make_lit(b, false), make_lit(b, false)}));  // dedup -> unit
  EXPECT_EQ(solver.solve(), SatResult::kSat);
  EXPECT_TRUE(solver.value(b));
}

TEST(Cdcl, RandomInstancesAgreeWithBruteForce) {
  // Random 3-CNF over 10 vars; compare against exhaustive enumeration.
  Rng rng(2024);
  for (int round = 0; round < 40; ++round) {
    const int num_vars = 10;
    const int num_clauses = 35 + static_cast<int>(rng.below(20));
    std::vector<std::vector<Lit>> clauses;
    for (int i = 0; i < num_clauses; ++i) {
      std::vector<Lit> clause;
      for (int k = 0; k < 3; ++k)
        clause.push_back(make_lit(static_cast<Var>(rng.below(num_vars)),
                                  rng.flip()));
      clauses.push_back(clause);
    }

    bool brute_sat = false;
    for (uint32_t model = 0; model < (1u << num_vars) && !brute_sat; ++model)
      brute_sat = satisfied_by(clauses, model);

    CdclSolver solver;
    for (int v = 0; v < num_vars; ++v) solver.new_var();
    bool consistent = true;
    for (auto& clause : clauses)
      consistent = solver.add_clause(std::move(clause)) && consistent;
    bool cdcl_sat = consistent && solver.solve() == SatResult::kSat;
    EXPECT_EQ(cdcl_sat, brute_sat) << "round " << round;
  }
}

// -- Incremental solving under assumptions. -------------------------------------

TEST(Cdcl, AssumptionsAgreeWithBruteForceAcrossAddedClauses) {
  // One instance per round: clauses arrive in batches between solves, and
  // every solve runs under a fresh random assumption set. Each answer must
  // match exhaustive enumeration of clauses ∧ assumptions, and each model
  // must satisfy both.
  Rng rng(77);
  const int num_vars = 8;
  for (int round = 0; round < 60; ++round) {
    CdclSolver solver;
    for (int v = 0; v < num_vars; ++v) solver.new_var();
    std::vector<std::vector<Lit>> clauses;
    bool root_unsat = false;
    for (int batch = 0; batch < 6; ++batch) {
      const int added = 2 + static_cast<int>(rng.below(6));
      for (int i = 0; i < added; ++i) {
        std::vector<Lit> clause;
        const int width = 1 + static_cast<int>(rng.below(3));
        for (int k = 0; k < width; ++k)
          clause.push_back(make_lit(static_cast<Var>(rng.below(num_vars)),
                                    rng.flip()));
        clauses.push_back(clause);
        if (!solver.add_clause(clause)) root_unsat = true;
      }
      for (int query = 0; query < 4; ++query) {
        std::vector<Lit> assumptions;
        const uint64_t count = rng.below(5);
        for (uint64_t k = 0; k < count; ++k)
          assumptions.push_back(
              make_lit(static_cast<Var>(rng.below(num_vars)), rng.flip()));
        std::vector<std::vector<Lit>> query_clauses = clauses;
        for (Lit lit : assumptions) query_clauses.push_back({lit});

        bool brute_sat = false;
        for (uint32_t model = 0; model < (1u << num_vars) && !brute_sat; ++model)
          brute_sat = satisfied_by(query_clauses, model);
        if (root_unsat) {
          bool formula_sat = false;
          for (uint32_t model = 0; model < (1u << num_vars) && !formula_sat;
               ++model)
            formula_sat = satisfied_by(clauses, model);
          EXPECT_FALSE(formula_sat) << "round " << round;
        }

        const SatResult result = solver.solve(assumptions);
        ASSERT_NE(result, SatResult::kUnknown);
        ASSERT_EQ(result == SatResult::kSat, brute_sat)
            << "round " << round << " batch " << batch << " query " << query;
        if (result == SatResult::kSat) {
          uint32_t model = 0;
          for (int v = 0; v < num_vars; ++v)
            if (solver.value(v)) model |= 1u << v;
          EXPECT_TRUE(satisfied_by(query_clauses, model))
              << "round " << round << " batch " << batch;
        }
      }
    }
  }
}

TEST(Cdcl, UnsatUnderAssumptionsDoesNotLatch) {
  // (a | b) is refuted by {¬a, ¬b} only; the formula stays satisfiable.
  CdclSolver solver;
  Var a = solver.new_var(), b = solver.new_var();
  ASSERT_TRUE(solver.add_clause({make_lit(a, false), make_lit(b, false)}));
  const std::vector<Lit> both_false = {make_lit(a, true), make_lit(b, true)};
  EXPECT_EQ(solver.solve(both_false), SatResult::kUnsat);
  ASSERT_EQ(solver.solve(), SatResult::kSat);
  EXPECT_TRUE(solver.value(a) || solver.value(b));
  const std::vector<Lit> a_false = {make_lit(a, true)};
  ASSERT_EQ(solver.solve(a_false), SatResult::kSat);
  EXPECT_FALSE(solver.value(a));
  EXPECT_TRUE(solver.value(b));
  // A genuinely unsat formula does latch.
  ASSERT_TRUE(solver.add_clause({make_lit(a, true)}));
  EXPECT_FALSE(solver.add_clause({make_lit(b, true)}));
  EXPECT_EQ(solver.solve(), SatResult::kUnsat);
}

TEST(Cdcl, LearnedClausesStayValidAfterTheirSelectorIsPopped) {
  // PHP(3,2) guarded by selector s: unsat under {s}, which takes conflict
  // analysis, so the instance learns clauses that mention ¬s. Popping s
  // (the unit ¬s) must leave a satisfiable formula, and a second guarded
  // scope over the same pigeon variables, PHP(2,2) on pigeons 0 and 1, must
  // still be satisfiable through those learned clauses.
  CdclSolver solver;
  Var p[3][2];
  for (auto& row : p)
    for (Var& v : row) v = solver.new_var();
  const Var s = solver.new_var();
  const Lit not_s = make_lit(s, true);
  for (int i = 0; i < 3; ++i)
    solver.add_clause({not_s, make_lit(p[i][0], false), make_lit(p[i][1], false)});
  for (int j = 0; j < 2; ++j)
    for (int i1 = 0; i1 < 3; ++i1)
      for (int i2 = i1 + 1; i2 < 3; ++i2)
        solver.add_clause(
            {not_s, make_lit(p[i1][j], true), make_lit(p[i2][j], true)});
  const std::vector<Lit> scope_s = {make_lit(s, false)};
  ASSERT_EQ(solver.solve(scope_s), SatResult::kUnsat);
  EXPECT_GT(solver.stats().conflicts, 0u);
  EXPECT_GT(solver.stats().learned_clauses, 0u);

  ASSERT_TRUE(solver.add_clause({not_s}));  // pop
  ASSERT_EQ(solver.solve(), SatResult::kSat);
  EXPECT_EQ(solver.solve(scope_s), SatResult::kUnsat);  // s is gone for good

  const Var t = solver.new_var();
  const Lit not_t = make_lit(t, true);
  for (int i = 0; i < 2; ++i)
    solver.add_clause({not_t, make_lit(p[i][0], false), make_lit(p[i][1], false)});
  for (int j = 0; j < 2; ++j)
    solver.add_clause({not_t, make_lit(p[0][j], true), make_lit(p[1][j], true)});
  const std::vector<Lit> scope_t = {make_lit(t, false)};
  ASSERT_EQ(solver.solve(scope_t), SatResult::kSat);
  for (int i = 0; i < 2; ++i)
    EXPECT_TRUE(solver.value(p[i][0]) || solver.value(p[i][1])) << i;
  for (int j = 0; j < 2; ++j)
    EXPECT_FALSE(solver.value(p[0][j]) && solver.value(p[1][j])) << j;
  // The popped PHP(3,2) no longer constrains pigeon 2, whatever was learned
  // from it: pigeon 2 may take both holes.
  const std::vector<Lit> crowded = {make_lit(t, false), make_lit(p[2][0], false),
                                    make_lit(p[2][1], false)};
  EXPECT_EQ(solver.solve(crowded), SatResult::kSat);
}

TEST(Cdcl, NonDecisionVariablesAreAssignedByPropagation) {
  // g = a & b as a non-decision gate: the search branches on a and b only,
  // and unit propagation fills g in.
  CdclSolver solver;
  Var a = solver.new_var(), b = solver.new_var();
  Var g = solver.new_var(/*decision=*/false);
  solver.add_clause({make_lit(g, true), make_lit(a, false)});
  solver.add_clause({make_lit(g, true), make_lit(b, false)});
  solver.add_clause({make_lit(g, false), make_lit(a, true), make_lit(b, true)});
  for (Lit goal : {make_lit(g, false), make_lit(g, true)}) {
    const std::vector<Lit> assumption = {goal};
    ASSERT_EQ(solver.solve(assumption), SatResult::kSat);
    EXPECT_EQ(solver.value(g), !sat::lit_negated(goal));
    EXPECT_EQ(solver.value(g), solver.value(a) && solver.value(b));
  }
}

// -- Bit-blasting backend. ------------------------------------------------------

TEST(Bitblast, SimpleArithmetic) {
  Context ctx;
  auto solver = make_bitblast_solver(ctx);
  ExprRef x = ctx.var("x", 8);
  // x + 3 == 10 has the unique solution x == 7.
  std::vector<ExprRef> query = {
      ctx.eq(ctx.add(x, ctx.constant(3, 8)), ctx.constant(10, 8))};
  Assignment model;
  ASSERT_EQ(solver->check(query, &model), CheckResult::kSat);
  EXPECT_EQ(model.get(x->var_id), 7u);
  // ... and x must not also be 8.
  query.push_back(ctx.eq(x, ctx.constant(8, 8)));
  EXPECT_EQ(solver->check(query, nullptr), CheckResult::kUnsat);
}

TEST(Bitblast, MultiplicationInverse) {
  Context ctx;
  auto solver = make_bitblast_solver(ctx);
  ExprRef x = ctx.var("x", 16);
  std::vector<ExprRef> query = {
      ctx.eq(ctx.mul(x, ctx.constant(7, 16)), ctx.constant(49, 16)),
      ctx.ult(x, ctx.constant(100, 16))};
  Assignment model;
  ASSERT_EQ(solver->check(query, &model), CheckResult::kSat);
  EXPECT_EQ(model.get(x->var_id) * 7 % 65536, 49u);
}

TEST(Bitblast, DivisionSemantics) {
  Context ctx;
  auto solver = make_bitblast_solver(ctx);
  ExprRef x = ctx.var("x", 8);
  // x / 0 == 0xff for every x (bvudiv), so asserting != is unsat.
  std::vector<ExprRef> query = {ctx.not_(
      ctx.eq(ctx.udiv(x, ctx.constant(0, 8)), ctx.constant(0xff, 8)))};
  EXPECT_EQ(solver->check(query, nullptr), CheckResult::kUnsat);
  // x % 0 == x.
  query = {ctx.not_(ctx.eq(ctx.urem(x, ctx.constant(0, 8)), x))};
  EXPECT_EQ(solver->check(query, nullptr), CheckResult::kUnsat);
}

TEST(Bitblast, ShiftSaturation) {
  Context ctx;
  auto solver = make_bitblast_solver(ctx);
  ExprRef x = ctx.var("x", 8);
  ExprRef amount = ctx.var("n", 8);
  // n >= 8 -> x << n == 0 (SMT saturation): its negation with n == 9 is
  // unsat.
  std::vector<ExprRef> query = {
      ctx.eq(amount, ctx.constant(9, 8)),
      ctx.not_(ctx.eq(ctx.shl(x, amount), ctx.constant(0, 8)))};
  EXPECT_EQ(solver->check(query, nullptr), CheckResult::kUnsat);
}

class BitblastVsZ3 : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BitblastVsZ3, AgreeOnRandomQueries) {
  // Random small expressions, checked for sat/unsat agreement between the
  // in-tree backend and Z3; sat models are validated by evaluation.
  Rng rng(GetParam());
  Context ctx;
  auto z3 = make_z3_solver(ctx);
  auto bb = make_bitblast_solver(ctx);

  ExprRef x = ctx.var("x", 8);
  ExprRef y = ctx.var("y", 8);
  for (int round = 0; round < 12; ++round) {
    // Build a random constraint pair over x, y.
    auto random_term = [&](ExprRef a, ExprRef b) -> ExprRef {
      switch (rng.below(7)) {
        case 0: return ctx.add(a, b);
        case 1: return ctx.mul(a, b);
        case 2: return ctx.xor_(a, b);
        case 3: return ctx.shl(a, ctx.constant(rng.below(10), 8));
        case 4: return ctx.udiv(a, b);
        case 5: return ctx.srem(a, b);
        default: return ctx.sub(a, b);
      }
    };
    ExprRef t1 = random_term(x, y);
    ExprRef t2 = random_term(y, x);
    std::vector<ExprRef> query = {
        ctx.eq(t1, ctx.constant(rng.next(), 8)),
        ctx.ule(t2, ctx.constant(rng.next(), 8)),
    };
    Assignment z3_model, bb_model;
    CheckResult z3_result = z3->check(query, &z3_model);
    CheckResult bb_result = bb->check(query, &bb_model);
    ASSERT_EQ(z3_result, bb_result) << "round " << round;
    if (bb_result == CheckResult::kSat) {
      for (ExprRef assertion : query)
        EXPECT_EQ(evaluate(assertion, bb_model), 1u) << "round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitblastVsZ3, ::testing::Range<uint64_t>(1, 9));

TEST(Bitblast, SignedDivisionCorners) {
  Context ctx;
  auto solver = make_bitblast_solver(ctx);
  // INT_MIN / -1 wraps to INT_MIN (8-bit: -128 / -1 == -128).
  ExprRef int_min = ctx.constant(0x80, 8);
  ExprRef minus1 = ctx.constant(0xff, 8);
  ExprRef x = ctx.var("x", 8);
  std::vector<ExprRef> query = {ctx.eq(x, ctx.sdiv(int_min, minus1))};
  Assignment model;
  ASSERT_EQ(solver->check(query, &model), CheckResult::kSat);
  EXPECT_EQ(model.get(x->var_id), 0x80u);
  // -7 srem 3 == -1 (sign follows dividend).
  query = {ctx.eq(x, ctx.srem(ctx.constant(0xf9, 8), ctx.constant(3, 8)))};
  ASSERT_EQ(solver->check(query, &model), CheckResult::kSat);
  EXPECT_EQ(model.get(x->var_id), 0xffu);
}

}  // namespace
}  // namespace binsym::smt
