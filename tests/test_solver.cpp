// Tests for the solver stack: Z3 backend, model extraction, query-cache
// keys, the model check and the solver wrappers.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <vector>

#include "smt/cache.hpp"
#include "smt/eval.hpp"
#include "smt/solver.hpp"
#include "solver_test_util.hpp"

namespace binsym::smt {
namespace {

TEST(Z3Solver, TrivialSatUnsat) {
  Context ctx;
  auto solver = make_z3_solver(ctx);
  ExprRef x = ctx.var("x", 32);

  std::vector<ExprRef> sat_query = {ctx.eq(x, ctx.constant(42, 32))};
  EXPECT_EQ(solver->check(sat_query, nullptr), CheckResult::kSat);

  std::vector<ExprRef> unsat_query = {ctx.eq(x, ctx.constant(1, 32)),
                                      ctx.eq(x, ctx.constant(2, 32))};
  EXPECT_EQ(solver->check(unsat_query, nullptr), CheckResult::kUnsat);
  EXPECT_EQ(solver->stats().queries, 2u);
  EXPECT_EQ(solver->stats().sat, 1u);
  EXPECT_EQ(solver->stats().unsat, 1u);
}

TEST(Z3Solver, ModelSatisfiesQuery) {
  Context ctx;
  auto solver = make_z3_solver(ctx);
  ExprRef x = ctx.var("x", 32);
  ExprRef y = ctx.var("y", 32);
  // x * 3 == y + 7 and y > 100
  std::vector<ExprRef> query = {
      ctx.eq(ctx.mul(x, ctx.constant(3, 32)), ctx.add(y, ctx.constant(7, 32))),
      ctx.ugt(y, ctx.constant(100, 32))};
  Assignment model;
  ASSERT_EQ(solver->check(query, &model), CheckResult::kSat);
  for (ExprRef assertion : query)
    EXPECT_EQ(evaluate(assertion, model), 1u);
}

TEST(Z3Solver, DivisionEdgeCases) {
  Context ctx;
  auto solver = make_z3_solver(ctx);
  ExprRef x = ctx.var("x", 32);
  // The Fig. 2 insight: x udiv 0 == all-ones is satisfiable (it's the
  // *definition*), so "z > x" after DIVU is reachable with divisor 0.
  std::vector<ExprRef> query = {
      ctx.eq(ctx.udiv(x, ctx.constant(0, 32)), ctx.constant(0xffffffff, 32))};
  EXPECT_EQ(solver->check(query, nullptr), CheckResult::kSat);
}

TEST(Z3Solver, WideWidths) {
  Context ctx;
  auto solver = make_z3_solver(ctx);
  ExprRef a = ctx.var("a", 64);
  std::vector<ExprRef> query = {
      ctx.eq(ctx.mul(a, a), ctx.constant(0x8e45445c9b6f9b39ull, 64))};
  Assignment model;
  // Some 64-bit square; solver decides — just ensure no crash and a valid
  // model on sat.
  CheckResult result = solver->check(query, &model);
  if (result == CheckResult::kSat) {
    EXPECT_EQ(evaluate(query[0], model), 1u);
  }
}

TEST(QueryCache, KeyIgnoresOrderDuplicatesAndTrueAssertions) {
  Context ctx;
  ExprRef x = ctx.var("x", 8);
  ExprRef a = ctx.ult(x, ctx.constant(10, 8));
  ExprRef b = ctx.ugt(x, ctx.constant(3, 8));

  std::vector<ExprRef> q1 = {a, b};
  std::vector<ExprRef> q2 = {b, a, a, ctx.bool_const(true)};
  EXPECT_EQ(QueryCache::key_for(q1), QueryCache::key_for(q2));
  std::vector<ExprRef> q3 = {a};
  EXPECT_NE(QueryCache::key_for(q1), QueryCache::key_for(q3));
}

TEST(QueryCache, ScopedKeyEqualsStatelessKey) {
  // The canonical key of scoped ∧ assumptions equals the stateless key of
  // the same conjunction, however the assertions are split.
  Context ctx;
  ExprRef x = ctx.var("x", 8);
  ExprRef a = ctx.ult(x, ctx.constant(10, 8));
  ExprRef b = ctx.ugt(x, ctx.constant(3, 8));

  std::vector<ExprRef> scoped = {a};
  std::vector<ExprRef> assumption = {b};
  std::vector<ExprRef> conjunction = {a, b};
  EXPECT_EQ(QueryCache::key_for(scoped, assumption),
            QueryCache::key_for(conjunction));
  EXPECT_EQ(QueryCache::key_for({}, conjunction),
            QueryCache::key_for(conjunction));
}

TEST(ValidatingSolver, PassesThroughCorrectModels) {
  Context ctx;
  ValidatingSolver validating(make_z3_solver(ctx));
  ExprRef x = ctx.var("x", 16);
  std::vector<ExprRef> query = {
      ctx.eq(ctx.add(x, ctx.constant(1, 16)), ctx.constant(0, 16))};
  Assignment model;
  EXPECT_EQ(validating.check(query, &model), CheckResult::kSat);
  EXPECT_EQ(model.get(x->var_id), 0xffffu);
}

TEST(QueryCache, RepeatedPrefixQuerySequenceHits) {
  // The engine's characteristic query stream: growing prefixes re-checked
  // across sibling flips, each miss answered and inserted. Pin the exact
  // hit/miss sequence and that a hit replays the stored entry.
  Context ctx;
  QueryCache cache;
  ExprRef x = ctx.var("x", 8);
  ExprRef a = ctx.ult(x, ctx.constant(100, 8));
  ExprRef b = ctx.ugt(x, ctx.constant(10, 8));
  ExprRef c = ctx.eq(x, ctx.constant(50, 8));

  std::vector<std::vector<ExprRef>> stream = {
      {a}, {a, b}, {a, b, c},  // first descent: three misses
      {a, b},                  // sibling flip re-check: hit
      {a},                     // back at the root: hit
      {a, b, c},               // deepest prefix again: hit
  };
  std::vector<bool> hits;
  for (size_t i = 0; i < stream.size(); ++i) {
    QueryCache::Key key = QueryCache::key_for(stream[i]);
    QueryCache::Entry entry;
    hits.push_back(cache.lookup(key, &entry));
    if (hits.back()) {
      EXPECT_EQ(entry.result, CheckResult::kSat);
      EXPECT_EQ(entry.model.get(x->var_id), stream[i].size());
    } else {
      entry.result = CheckResult::kSat;
      entry.model.set(x->var_id, stream[i].size());
      cache.insert(key, entry);
    }
  }
  EXPECT_EQ(hits, std::vector<bool>({false, false, false, true, true, true}));
}

// -- Scoped (incremental) API: both native backends and the wrappers, all
// -- against the same script. ------------------------------------------------

// A named factory. The name is what gtest prints for the parameter, so the
// test names are stable across builds instead of carrying a code address.
struct Backend {
  const char* name;
  std::unique_ptr<Solver> (*make)(Context&);
};
void PrintTo(const Backend& backend, std::ostream* os) { *os << backend.name; }

class ScopedSolverApi : public ::testing::TestWithParam<Backend> {};

TEST_P(ScopedSolverApi, PrefixAssertedOnceAnswersEveryAssumption) {
  Context ctx;
  auto solver = GetParam().make(ctx);
  ExprRef x = ctx.var("x", 8);
  ExprRef y = ctx.var("y", 8);

  solver->push();
  solver->assert_(ctx.ult(x, ctx.constant(10, 8)));   // x < 10
  solver->assert_(ctx.eq(y, ctx.add(x, ctx.constant(1, 8))));  // y == x + 1
  EXPECT_EQ(solver->scoped_assertions().size(), 2u);

  // Assumption consistent with the prefix.
  Assignment model;
  std::vector<ExprRef> sat_assumption = {ctx.eq(y, ctx.constant(5, 8))};
  ASSERT_EQ(solver->check_assuming(sat_assumption, &model), CheckResult::kSat);
  EXPECT_EQ(model.get(x->var_id), 4u);
  EXPECT_EQ(model.get(y->var_id), 5u);

  // Assumption contradicting the prefix; the prefix itself stays sat.
  std::vector<ExprRef> unsat_assumption = {ctx.eq(x, ctx.constant(200, 8))};
  EXPECT_EQ(solver->check_assuming(unsat_assumption, nullptr),
            CheckResult::kUnsat);
  EXPECT_EQ(solver->check_assuming({}, nullptr), CheckResult::kSat);
  EXPECT_GE(solver->stats().incremental_checks, 3u);
  EXPECT_GE(solver->stats().reused_assertions, 6u);  // 2 live per check

  solver->pop();
  EXPECT_EQ(solver->scoped_assertions().size(), 0u);
  // After the pop the prefix is gone: x == 200 is satisfiable again.
  EXPECT_EQ(solver->check_assuming(unsat_assumption, nullptr),
            CheckResult::kSat);
}

TEST_P(ScopedSolverApi, NestedScopesUnwindIndependently) {
  Context ctx;
  auto solver = GetParam().make(ctx);
  ExprRef x = ctx.var("x", 8);

  solver->push();
  solver->assert_(ctx.ult(x, ctx.constant(100, 8)));
  solver->push();
  solver->assert_(ctx.ugt(x, ctx.constant(50, 8)));
  EXPECT_EQ(solver->num_scopes(), 2u);
  EXPECT_EQ(solver->scoped_assertions().size(), 2u);

  std::vector<ExprRef> probe = {ctx.eq(x, ctx.constant(10, 8))};
  EXPECT_EQ(solver->check_assuming(probe, nullptr), CheckResult::kUnsat);
  solver->pop();  // drops x > 50
  EXPECT_EQ(solver->check_assuming(probe, nullptr), CheckResult::kSat);
  solver->pop();
  EXPECT_EQ(solver->num_scopes(), 0u);
}

TEST_P(ScopedSolverApi, StatelessChecksAroundAScopeStayIsolated) {
  // The stateless contract FailoverSolver::rescue relies on: a check()
  // before a push() or after its pop() sees none of the scope's assertions
  // and leaves nothing behind.
  Context ctx;
  auto solver = GetParam().make(ctx);
  ExprRef x = ctx.var("x", 8);
  std::vector<ExprRef> candidate = {ctx.eq(x, ctx.constant(200, 8))};
  EXPECT_EQ(solver->check(candidate, nullptr), CheckResult::kSat);

  // Had x == 200 stayed asserted, both scoped checks would be unsat.
  std::vector<ExprRef> flip = {ctx.ugt(x, ctx.constant(5, 8))};
  solver->push();
  solver->assert_(ctx.ult(x, ctx.constant(10, 8)));
  Assignment model;
  ASSERT_EQ(solver->check_assuming(flip, &model), CheckResult::kSat);
  EXPECT_GT(model.get(x->var_id), 5u);
  EXPECT_LT(model.get(x->var_id), 10u);
  solver->pop();

  // The popped x < 10 is invisible to the next stateless check ...
  Assignment after;
  ASSERT_EQ(solver->check(candidate, &after), CheckResult::kSat);
  EXPECT_EQ(after.get(x->var_id), 200u);

  // ... and that check leaves nothing behind for the next scope.
  solver->push();
  solver->assert_(ctx.ugt(x, ctx.constant(250, 8)));
  EXPECT_EQ(solver->check_assuming(flip, &model), CheckResult::kSat);
  EXPECT_GT(model.get(x->var_id), 250u);
  solver->pop();
  EXPECT_EQ(solver->num_scopes(), 0u);
}

TEST_P(ScopedSolverApi, PopWithoutPushThrows) {
  Context ctx;
  auto solver = GetParam().make(ctx);
  EXPECT_THROW(solver->pop(), std::logic_error);
}

namespace factories {
std::unique_ptr<Solver> z3(Context& ctx) { return make_z3_solver(ctx); }
std::unique_ptr<Solver> bitblast(Context& ctx) {
  return make_bitblast_solver(ctx);
}
std::unique_ptr<Solver> validating_z3(Context& ctx) {
  return std::make_unique<ValidatingSolver>(make_z3_solver(ctx));
}
std::unique_ptr<Solver> validating_bitblast(Context& ctx) {
  return std::make_unique<ValidatingSolver>(make_bitblast_solver(ctx));
}
}  // namespace factories

INSTANTIATE_TEST_SUITE_P(
    Backends, ScopedSolverApi,
    ::testing::Values(
        Backend{"z3", &factories::z3},
        Backend{"bitblast", &factories::bitblast},
        Backend{"validating_z3", &factories::validating_z3},
        Backend{"validating_bitblast", &factories::validating_bitblast}));

TEST(BitblastRebuild, ScopesSurviveARebuild) {
  // A clause budget of 1 rebuilds the instance before every check, here
  // with two scopes open. Each answer must equal the one a default-budget
  // instance gives, and the rebuild must leave the scoped assertions alone.
  Context ctx;
  auto roomy = make_bitblast_solver(ctx);
  auto rebuilt = make_bitblast_solver(ctx, /*clause_budget=*/1);
  ExprRef x = ctx.var("x", 16);
  ExprRef y = ctx.var("y", 16);
  const std::vector<ExprRef> scopes[] = {
      {ctx.ult(ctx.mul(x, ctx.constant(3, 16)), ctx.constant(900, 16))},
      {ctx.eq(y, ctx.add(x, ctx.constant(7, 16))),
       ctx.ugt(x, ctx.constant(100, 16))}};
  for (const auto& scope : scopes) {
    for (Solver* solver : {roomy.get(), rebuilt.get()}) {
      solver->push();
      for (ExprRef assertion : scope) solver->assert_(assertion);
    }
  }
  const std::vector<ExprRef> scoped(rebuilt->scoped_assertions().begin(),
                                    rebuilt->scoped_assertions().end());
  ASSERT_EQ(scoped.size(), 3u);

  const std::vector<ExprRef> probes[] = {
      {ctx.eq(y, ctx.constant(150, 16))},   // x = 143: sat
      {ctx.eq(y, ctx.constant(50, 16))},    // x = 43 <= 100: unsat
      {ctx.ugt(x, ctx.constant(299, 16))},  // sat once 3x wraps: x >= 21846
      {},
      {ctx.eq(y, ctx.constant(150, 16))}};
  for (size_t i = 0; i < std::size(probes); ++i) {
    Assignment model;
    const CheckResult want = roomy->check_assuming(probes[i], nullptr);
    const CheckResult got = rebuilt->check_assuming(probes[i], &model);
    EXPECT_EQ(got, want) << "probe " << i;
    EXPECT_TRUE(std::equal(scoped.begin(), scoped.end(),
                           rebuilt->scoped_assertions().begin(),
                           rebuilt->scoped_assertions().end()))
        << "probe " << i;
    if (got == CheckResult::kSat) {
      EXPECT_TRUE(satisfies(scoped, model) && satisfies(probes[i], model))
          << "probe " << i;
    }
  }
  rebuilt->pop();
  roomy->pop();
  EXPECT_EQ(rebuilt->scoped_assertions().size(), 1u);
  const std::vector<ExprRef> low = {ctx.eq(x, ctx.constant(5, 16))};
  EXPECT_EQ(rebuilt->check_assuming(low, nullptr), CheckResult::kSat);
  EXPECT_EQ(roomy->check_assuming(low, nullptr), CheckResult::kSat);
}

TEST(ValidatingSolver, ValidatesScopedAssertionsToo) {
  Context ctx;
  ValidatingSolver validating(make_z3_solver(ctx));
  ExprRef x = ctx.var("x", 16);
  validating.push();
  validating.assert_(ctx.ugt(x, ctx.constant(100, 16)));
  Assignment model;
  std::vector<ExprRef> assumption = {ctx.ult(x, ctx.constant(200, 16))};
  EXPECT_EQ(validating.check_assuming(assumption, &model), CheckResult::kSat);
  EXPECT_GT(model.get(x->var_id), 100u);
  EXPECT_LT(model.get(x->var_id), 200u);
  validating.pop();
}

TEST(Satisfies, ChecksEveryAssertionUnderTheModel) {
  Context ctx;
  ExprRef x = ctx.var("x", 8);
  ExprRef y = ctx.var("y", 8);
  std::vector<ExprRef> query = {ctx.ult(x, ctx.constant(10, 8)),
                                ctx.eq(y, ctx.add(x, ctx.constant(1, 8)))};
  Assignment model;
  model.set(x->var_id, 4);
  model.set(y->var_id, 5);
  EXPECT_TRUE(satisfies(query, model));  // sat
  model.set(y->var_id, 6);
  EXPECT_FALSE(satisfies(query, model));  // second assertion fails
  // A missing variable reads 0: x = 0 needs y = 1.
  Assignment only_y;
  only_y.set(y->var_id, 1);
  EXPECT_TRUE(satisfies(query, only_y));
  EXPECT_FALSE(satisfies(query, Assignment{}));
  // The empty conjunction is true under any model.
  EXPECT_TRUE(satisfies({}, Assignment{}));
}

TEST(Satisfies, TellsApartDistinctNodesThatShareAHash) {
  // A content-hash collision: two nodes, one hash. satisfies() is the
  // store's guard against exactly that, so its memo must not merge them.
  Expr one{};
  one.kind = Kind::kConst;
  one.width = 1;
  one.id = 0;
  one.hash = 0x5eed;
  one.constant = 1;
  Expr zero = one;
  zero.id = 1;
  zero.constant = 0;
  const std::vector<ExprRef> query = {&one, &zero};
  EXPECT_FALSE(satisfies(query, Assignment{}));
}

TEST(Assignment, DefaultsToZero) {
  Assignment a;
  EXPECT_EQ(a.get(123), 0u);
  a.set(123, 7);
  EXPECT_EQ(a.get(123), 7u);
}

// -- Robustness: unknown verdicts, deadlines, and backend failover. ----------

// StubSolver (solver_test_util.hpp) stands in for a backend that gives up
// (deadline hit) or crashes outright, on check() and check_assuming()
// alike.

TEST(FailoverSolver, SecondaryRescuesUnknownPrimary) {
  Context ctx;
  FailoverSolver solver(
      std::make_unique<StubSolver>(StubSolver::Mode::kUnknown),
      [&ctx] { return make_z3_solver(ctx); });
  ExprRef x = ctx.var("x", 8);
  std::vector<ExprRef> query = {ctx.eq(x, ctx.constant(42, 8))};
  Assignment model;
  EXPECT_EQ(solver.check(query, &model), CheckResult::kSat);
  EXPECT_EQ(model.get(x->var_id), 42u);
  // One *logical* query, classified by the final (rescued) verdict.
  EXPECT_EQ(solver.stats().queries, 1u);
  EXPECT_EQ(solver.stats().sat, 1u);
  EXPECT_EQ(solver.stats().failover_rescues, 1u);
  EXPECT_EQ(solver.name(), "stub+failover");
}

TEST(FailoverSolver, ThrowingPrimaryIsRescuedToo) {
  Context ctx;
  FailoverSolver solver(std::make_unique<StubSolver>(StubSolver::Mode::kThrow),
                        [&ctx] { return make_z3_solver(ctx); });
  ExprRef x = ctx.var("x", 8);
  std::vector<ExprRef> query = {ctx.eq(x, ctx.constant(1, 8)),
                                ctx.eq(x, ctx.constant(2, 8))};
  EXPECT_EQ(solver.check(query, nullptr), CheckResult::kUnsat);
  EXPECT_EQ(solver.stats().unsat, 1u);
  EXPECT_EQ(solver.stats().failover_rescues, 1u);
}

TEST(FailoverSolver, UnknownWhenBothBackendsGiveUp) {
  Context ctx;
  FailoverSolver solver(
      std::make_unique<StubSolver>(StubSolver::Mode::kUnknown),
      [] {
        return std::unique_ptr<Solver>(
            new StubSolver(StubSolver::Mode::kThrow));
      });
  ExprRef x = ctx.var("x", 8);
  std::vector<ExprRef> query = {ctx.ult(x, ctx.constant(10, 8))};
  EXPECT_EQ(solver.check(query, nullptr), CheckResult::kUnknown);
  EXPECT_EQ(solver.stats().unknown, 1u);
  EXPECT_EQ(solver.stats().failover_rescues, 0u);  // nothing was rescued
}

TEST(FailoverSolver, RescueSeesScopedAssertions) {
  // The secondary has no scope state of its own; the wrapper must hand it
  // the client-side scoped conjunction alongside the assumptions.
  Context ctx;
  FailoverSolver solver(
      std::make_unique<StubSolver>(StubSolver::Mode::kUnknown),
      [&ctx] { return make_z3_solver(ctx); });
  ExprRef x = ctx.var("x", 8);
  solver.push();
  solver.assert_(ctx.ult(x, ctx.constant(10, 8)));
  Assignment model;
  std::vector<ExprRef> assumption = {ctx.ugt(x, ctx.constant(3, 8))};
  ASSERT_EQ(solver.check_assuming(assumption, &model), CheckResult::kSat);
  EXPECT_GT(model.get(x->var_id), 3u);
  EXPECT_LT(model.get(x->var_id), 10u);
  solver.pop();
  EXPECT_EQ(solver.stats().failover_rescues, 1u);
}

TEST(SolverDeadline, BitblastHonorsExpiredDeadline) {
  // A deadline already in the past forces the CDCL loop's periodic probe
  // to give up on the first batch of conflicts — the check must come back
  // kUnknown, never a wrong verdict and never a hang.
  Context ctx;
  auto solver = make_bitblast_solver(ctx);
  solver->set_deadline_ms(1);
  // A multiply chain is hard enough that the search cannot finish within
  // a millisecond-scale budget (and certainly not before the first probe).
  ExprRef x = ctx.var("x", 32);
  ExprRef y = ctx.var("y", 32);
  ExprRef product = ctx.mul(ctx.mul(x, y), ctx.mul(y, x));
  std::vector<ExprRef> query = {
      ctx.eq(product, ctx.constant(0xdeadbeef, 32)),
      ctx.ugt(x, ctx.constant(2, 32)), ctx.ugt(y, ctx.constant(2, 32))};
  CheckResult result = solver->check(query, nullptr);
  if (result == CheckResult::kUnknown) {
    EXPECT_EQ(solver->stats().unknown, 1u);
  }
  // Either verdict must be reached quickly; the deadline machinery makes
  // this test terminate rather than proving which side wins on fast CI.
}

/// Factoring a product of two 32-bit primes: no backend finishes it within
/// a millisecond.
std::vector<ExprRef> factoring_query(Context& ctx) {
  ExprRef x = ctx.var("x", 64);
  ExprRef y = ctx.var("y", 64);
  ExprRef limit = ctx.constant(1ull << 32, 64);
  return {
      ctx.eq(ctx.mul(x, y), ctx.constant(2654435761ull * 3735928579ull, 64)),
      ctx.ugt(x, ctx.constant(1, 64)), ctx.ugt(y, ctx.constant(1, 64)),
      ctx.ult(x, limit), ctx.ult(y, limit)};
}

TEST(SolverDeadline, BitblastDeadlineEndsWithItsCheck) {
  // The bitblast backend keeps one CDCL instance for its whole life. A
  // deadline belongs to the check it was set for: once it is cleared, the
  // same instance must answer again, statelessly and under a scope.
  Context ctx;
  auto solver = make_bitblast_solver(ctx);
  solver->set_deadline_ms(1);
  EXPECT_EQ(solver->check(factoring_query(ctx), nullptr), CheckResult::kUnknown);
  EXPECT_EQ(solver->stats().unknown, 1u);

  solver->set_deadline_ms(0);
  ExprRef x = ctx.var("x", 64);
  ExprRef y = ctx.var("y", 64);
  Assignment model;
  const std::vector<ExprRef> trivial = {ctx.eq(x, ctx.constant(7, 64))};
  ASSERT_EQ(solver->check(trivial, &model), CheckResult::kSat);
  EXPECT_EQ(model.get(x->var_id), 7u);

  solver->push();
  solver->assert_(ctx.eq(y, ctx.add(x, ctx.constant(1, 64))));
  const std::vector<ExprRef> assumption = {ctx.eq(y, ctx.constant(9, 64))};
  ASSERT_EQ(solver->check_assuming(assumption, &model), CheckResult::kSat);
  EXPECT_EQ(model.get(x->var_id), 8u);
  solver->pop();
  EXPECT_EQ(solver->stats().unknown, 1u);
}

TEST(SolverDeadline, Z3AcceptsAndClearsDeadline) {
  Context ctx;
  auto solver = make_z3_solver(ctx);
  solver->set_deadline_ms(10'000);
  EXPECT_EQ(solver->deadline_ms(), 10'000u);
  ExprRef x = ctx.var("x", 8);
  std::vector<ExprRef> query = {ctx.eq(x, ctx.constant(7, 8))};
  EXPECT_EQ(solver->check(query, nullptr), CheckResult::kSat);
  solver->set_deadline_ms(0);  // back to unlimited
  EXPECT_EQ(solver->check(query, nullptr), CheckResult::kSat);
}

TEST(SolverDeadline, Z3HonorsDeadlineSetBeforeFirstQuery) {
  // The deadline is set before the first query, so before the Z3 context
  // exists: it must still reach the solver once the context is built.
  Context ctx;
  auto solver = make_z3_solver(ctx);
  solver->set_deadline_ms(1);
  // Without the deadline, Z3 does not answer this within two minutes.
  EXPECT_EQ(solver->check(factoring_query(ctx), nullptr), CheckResult::kUnknown);
  EXPECT_EQ(solver->stats().unknown, 1u);
  solver->set_deadline_ms(0);
  ExprRef x = ctx.var("x", 64);
  std::vector<ExprRef> trivial = {ctx.eq(x, ctx.constant(7, 64))};
  EXPECT_EQ(solver->check(trivial, nullptr), CheckResult::kSat);
}

TEST(Z3Solver, AnyEntryPointBuildsTheContext) {
  // The Z3 context is built at the first backend call, whichever it is.
  Context ctx;
  ExprRef x = ctx.var("x", 16);
  std::vector<ExprRef> bounds = {ctx.ugt(x, ctx.constant(100, 16)),
                                 ctx.ult(x, ctx.constant(200, 16))};
  {
    auto solver = make_z3_solver(ctx);
    Assignment model;
    ASSERT_EQ(solver->check(bounds, &model), CheckResult::kSat);
    EXPECT_TRUE(satisfies(bounds, model));
  }
  {
    auto solver = make_z3_solver(ctx);
    solver->push();
    solver->assert_(bounds[0]);
    Assignment model;
    std::vector<ExprRef> assumption = {bounds[1]};
    ASSERT_EQ(solver->check_assuming(assumption, &model), CheckResult::kSat);
    EXPECT_TRUE(satisfies(bounds, model));
    std::vector<ExprRef> contradiction = {ctx.ult(x, ctx.constant(50, 16))};
    EXPECT_EQ(solver->check_assuming(contradiction, nullptr),
              CheckResult::kUnsat);
    solver->pop();
  }
  {
    auto solver = make_z3_solver(ctx);
    Assignment model;
    ASSERT_EQ(solver->check_assuming(bounds, &model), CheckResult::kSat);
    EXPECT_TRUE(satisfies(bounds, model));
  }
  {
    // Never asked a query: destroying it must not touch Z3.
    auto solver = make_z3_solver(ctx);
    EXPECT_EQ(solver->name(), "z3");
    solver->set_deadline_ms(5);
    EXPECT_EQ(solver->stats().queries, 0u);
  }
}

}  // namespace
}  // namespace binsym::smt
