// Tests for constraint-independence slicing: the union-find partition
// (single group, disjoint groups, assumption-linked groups), slice contents,
// model restriction and cache-key collapse of sibling flips. The
// engine-level invariant (Table I path sets and counts) is pinned by the
// invariance matrix in test_invariance.cpp.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "smt/cache.hpp"
#include "smt/slice.hpp"
#include "smt/solver.hpp"

namespace binsym {
namespace {

using smt::Context;
using smt::ExprRef;

// -- Union-find partition. ----------------------------------------------------

class SliceTest : public ::testing::Test {
 protected:
  Context ctx;
  ExprRef a = ctx.var("a", 8);
  ExprRef b = ctx.var("b", 8);
  ExprRef c = ctx.var("c", 8);
  ExprRef d = ctx.var("d", 8);

  ExprRef lt(ExprRef x, uint64_t k) { return ctx.ult(x, ctx.constant(k, 8)); }
  ExprRef link(ExprRef x, ExprRef y) { return ctx.eq(x, y); }
};

TEST_F(SliceTest, SingleGroupWhenAllConstraintsShareVariables) {
  // a-b, b-c, c-d: one chain, one group.
  std::vector<ExprRef> constraints = {link(a, b), link(b, c), link(c, d)};
  std::vector<size_t> groups = smt::independence_groups(constraints);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0], groups[1]);
  EXPECT_EQ(groups[1], groups[2]);
}

TEST_F(SliceTest, DisjointConstraintsFormDisjointGroups) {
  std::vector<ExprRef> constraints = {lt(a, 10), lt(b, 20), link(c, d)};
  std::vector<size_t> groups = smt::independence_groups(constraints);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_NE(groups[0], groups[1]);
  EXPECT_NE(groups[0], groups[2]);
  EXPECT_NE(groups[1], groups[2]);
}

TEST_F(SliceTest, AssumptionLinkedGroupsMerge) {
  // {a}, {b} are independent until an assumption-style constraint mentions
  // both (the address-concretization pattern: one expression bridging two
  // otherwise unrelated constraint groups).
  std::vector<ExprRef> constraints = {lt(a, 10), lt(b, 20)};
  EXPECT_NE(smt::independence_groups(constraints)[0],
            smt::independence_groups(constraints)[1]);
  constraints.push_back(ctx.eq(ctx.add(a, b), ctx.constant(5, 8)));
  std::vector<size_t> groups = smt::independence_groups(constraints);
  EXPECT_EQ(groups[0], groups[1]);
  EXPECT_EQ(groups[1], groups[2]);
}

TEST_F(SliceTest, ConstantConstraintsAreSingletons) {
  std::vector<ExprRef> constraints = {lt(a, 10), ctx.bool_const(false),
                                      ctx.bool_const(false)};
  std::vector<size_t> groups = smt::independence_groups(constraints);
  EXPECT_NE(groups[0], groups[1]);
  EXPECT_NE(groups[1], groups[2]);  // each constant is its own group
}

// -- slice(): what is kept, what is dropped. ----------------------------------

TEST_F(SliceTest, SliceKeepsOnlyTheTargetComponent) {
  std::vector<ExprRef> prefix = {lt(a, 10), lt(b, 20), link(b, c), lt(d, 30)};
  ExprRef target = ctx.ugt(c, ctx.constant(1, 8));
  smt::QuerySlicer slicer;
  smt::QuerySlicer::Result result = slicer.slice(prefix, target);

  // Reaches b-c and transitively lt(b, 20); drops the a and d groups.
  EXPECT_EQ(result.dropped, 2u);
  ASSERT_EQ(result.query.size(), 3u);
  EXPECT_EQ(result.query[0], prefix[1]);
  EXPECT_EQ(result.query[1], prefix[2]);
  EXPECT_EQ(result.query.back(), target);
  EXPECT_EQ(result.vars,
            (std::vector<uint32_t>{b->var_id, c->var_id}));
}

TEST_F(SliceTest, SliceIsStableUnderRepeatedCallsAndMemoization) {
  std::vector<ExprRef> prefix = {lt(a, 10), link(a, b), lt(c, 5)};
  ExprRef target = ctx.ugt(b, ctx.constant(2, 8));
  smt::QuerySlicer slicer;
  smt::QuerySlicer::Result first = slicer.slice(prefix, target);
  smt::QuerySlicer::Result second = slicer.slice(prefix, target);
  EXPECT_EQ(first.query, second.query);
  EXPECT_EQ(first.vars, second.vars);
  EXPECT_EQ(first.dropped, second.dropped);
  EXPECT_EQ(first.dropped, 1u);
}

TEST_F(SliceTest, UnsatisfiableConstantSurvivesTheSlice) {
  // Dropping a constant-false constraint would turn unsat into sat.
  std::vector<ExprRef> prefix = {ctx.bool_const(false), lt(a, 10)};
  ExprRef target = ctx.ugt(b, ctx.constant(2, 8));
  smt::QuerySlicer slicer;
  smt::QuerySlicer::Result result = slicer.slice(prefix, target);
  ASSERT_EQ(result.query.size(), 2u);
  EXPECT_TRUE(result.query[0]->is_false());
  EXPECT_EQ(result.dropped, 1u);  // only the unrelated a-constraint
}

TEST_F(SliceTest, TrueConstantIsDropped) {
  std::vector<ExprRef> prefix = {ctx.bool_const(true), lt(a, 10)};
  ExprRef target = ctx.ugt(a, ctx.constant(2, 8));
  smt::QuerySlicer slicer;
  smt::QuerySlicer::Result result = slicer.slice(prefix, target);
  ASSERT_EQ(result.query.size(), 2u);
  EXPECT_EQ(result.query[0], prefix[1]);
}

TEST_F(SliceTest, RestrictToVarsDropsForeignAssignments) {
  smt::Assignment model;
  model.set(a->var_id, 1);
  model.set(b->var_id, 2);
  model.set(c->var_id, 3);
  smt::restrict_to_vars(&model, {a->var_id, c->var_id});
  EXPECT_EQ(model.values.size(), 2u);
  EXPECT_EQ(model.get(a->var_id), 1u);
  EXPECT_EQ(model.get(c->var_id), 3u);
  EXPECT_EQ(model.values.count(b->var_id), 0u);
}

TEST_F(SliceTest, SlicedModelMergedWithParentSeedSatisfiesFullQuery) {
  // The engine's soundness argument, pinned: the parent seed satisfies the
  // sliced-out group, the solver model (restricted to the sliced vars)
  // satisfies the sliced group, and the merge satisfies the conjunction.
  std::vector<ExprRef> prefix = {link(a, b), lt(c, 10)};
  ExprRef target = ctx.eq(ctx.add(c, ctx.constant(1, 8)), ctx.constant(5, 8));
  smt::QuerySlicer slicer;
  smt::QuerySlicer::Result sliced = slicer.slice(prefix, target);
  EXPECT_EQ(sliced.dropped, 1u);  // a == b is not connected to c

  auto solver = smt::make_z3_solver(ctx);
  smt::Assignment model;
  ASSERT_EQ(solver->check(sliced.query, &model), smt::CheckResult::kSat);
  smt::restrict_to_vars(&model, sliced.vars);

  smt::Assignment parent;  // satisfies the full prefix: a == b == 7, c == 3
  parent.set(a->var_id, 7);
  parent.set(b->var_id, 7);
  parent.set(c->var_id, 3);
  smt::Assignment merged = parent;
  for (const auto& [var, value] : model.values) merged.set(var, value);

  for (ExprRef constraint : prefix)
    EXPECT_EQ(smt::evaluate(constraint, merged), 1u);
  EXPECT_EQ(smt::evaluate(target, merged), 1u);
}

TEST_F(SliceTest, FlipQueryReferenceConstructionSlicesLikeTheEngine) {
  // core::flip_query is the reference (stateless) construction of a flip
  // query; the engine builds the same conjunction incrementally. Pin the
  // windowing — branches [0, i) as taken, assumptions with
  // branch_index <= i, negated branch last — and that slicing its prefix
  // drops exactly the variable-disjoint groups.
  core::PathTrace trace;
  trace.branches.push_back({lt(a, 10), true, 0x10});
  trace.branches.push_back({lt(b, 20), false, 0x14});
  trace.branches.push_back({lt(c, 30), true, 0x18});
  trace.assumptions.push_back({1, link(c, d)});  // holds from flip index 1 on
  trace.assumptions.push_back({3, lt(d, 40)});   // beyond the last flip point

  std::vector<ExprRef> query = core::flip_query(ctx, trace, 2);
  // branches 0 (as taken) and 1 (as not-taken), assumption at index 1,
  // negated branch 2.
  ASSERT_EQ(query.size(), 4u);
  EXPECT_EQ(query[0], lt(a, 10));
  EXPECT_EQ(query[1], ctx.not_(lt(b, 20)));
  EXPECT_EQ(query[2], link(c, d));
  EXPECT_EQ(query.back(), ctx.not_(lt(c, 30)));

  smt::QuerySlicer slicer;
  smt::QuerySlicer::Result sliced = slicer.slice(
      std::span<const ExprRef>(query.data(), query.size() - 1), query.back());
  // The negated branch is over c; the assumption links c-d; a and b drop.
  EXPECT_EQ(sliced.dropped, 2u);
  EXPECT_EQ(sliced.query,
            (std::vector<ExprRef>{link(c, d), ctx.not_(lt(c, 30))}));
}

TEST_F(SliceTest, SlicedCacheKeysCollapseSiblingFlips) {
  // Sibling flips whose prefixes differ only in a variable-disjoint group
  // slice down to the same effective query, so their cache keys coincide.
  std::vector<ExprRef> taken = {lt(a, 10), lt(b, 20)};
  std::vector<ExprRef> flipped = {ctx.not_(lt(a, 10)), lt(b, 20)};
  ExprRef target = link(c, b);
  smt::QuerySlicer slicer;
  smt::QuerySlicer::Result r1 = slicer.slice(taken, target);
  smt::QuerySlicer::Result r2 = slicer.slice(flipped, target);
  EXPECT_EQ(r1.dropped, 1u);
  EXPECT_EQ(r2.dropped, 1u);
  EXPECT_EQ(smt::QueryCache::key_for(r1.query),
            smt::QueryCache::key_for(r2.query))
      << "sibling flips did not collapse onto one key";
}

}  // namespace
}  // namespace binsym
