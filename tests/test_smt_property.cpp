// Property tests over random expression DAGs:
//   * the simplifier preserves concrete evaluation,
//   * simplification is idempotent,
//   * builder folding agrees with the evaluator,
//   * Z3 agrees with the concrete evaluator on forced-value queries, both
//     through the native backend and through Z3's reading of the SMT-LIB
//     printer's text,
//   * interning is idempotent and content hashes are context-independent,
//   * persistent-store keys are stable across contexts and simulated
//     restarts.
#include <gtest/gtest.h>

#include <vector>

#include "smt/cache.hpp"
#include "smt/context.hpp"
#include "smt/eval.hpp"
#include "smt/simplify.hpp"
#include "smt/solver.hpp"
#include "smt/store.hpp"
#include "solver_test_util.hpp"
#include "support/bits.hpp"
#include "support/rng.hpp"

namespace binsym::smt {
namespace {

/// Random DAG generator: a pool of nodes, each new node drawing operands
/// from the pool (producing shared sub-DAGs, not just trees).
class DagGen {
 public:
  DagGen(Context& ctx, Rng& rng, unsigned num_vars) : ctx_(ctx), rng_(rng) {
    for (unsigned i = 0; i < num_vars; ++i) {
      unsigned width = pick_width();
      pool_.push_back(ctx_.var("v" + std::to_string(i), width));
    }
    pool_.push_back(ctx_.constant(rng_.next(), pick_width()));
  }

  ExprRef grow(unsigned steps) {
    for (unsigned i = 0; i < steps; ++i) pool_.push_back(random_node());
    return pool_.back();
  }

 private:
  unsigned pick_width() {
    static const unsigned widths[] = {1, 8, 16, 32, 64};
    return widths[rng_.below(5)];
  }

  ExprRef pick() { return pool_[rng_.below(pool_.size())]; }

  /// Choose an operand of a given width, adapting one from the pool.
  ExprRef pick_width_adapted(unsigned width) {
    ExprRef e = pick();
    if (e->width == width) return e;
    if (e->width < width) return rng_.flip() ? ctx_.zext(e, width) : ctx_.sext(e, width);
    return ctx_.extract(e, width - 1, 0);
  }

  ExprRef random_node() {
    switch (rng_.below(8)) {
      case 0: {  // unary
        ExprRef a = pick();
        return rng_.flip() ? ctx_.not_(a) : ctx_.neg(a);
      }
      case 1: {  // extract
        ExprRef a = pick();
        unsigned hi = static_cast<unsigned>(rng_.below(a->width));
        unsigned lo = static_cast<unsigned>(rng_.below(hi + 1));
        return ctx_.extract(a, hi, lo);
      }
      case 2: {  // extension
        ExprRef a = pick();
        unsigned to = a->width + static_cast<unsigned>(rng_.below(65 - a->width));
        return rng_.flip() ? ctx_.zext(a, to) : ctx_.sext(a, to);
      }
      case 3: {  // ite
        ExprRef c = pick_width_adapted(1);
        ExprRef a = pick();
        ExprRef b = pick_width_adapted(a->width);
        return ctx_.ite(c, a, b);
      }
      case 4: {  // concat
        ExprRef a = pick(), b = pick();
        if (a->width + b->width > 64) return ctx_.not_(a);
        return ctx_.concat(a, b);
      }
      default: {  // binary
        ExprRef a = pick();
        ExprRef b = pick_width_adapted(a->width);
        static const Kind kinds[] = {Kind::kAdd, Kind::kSub, Kind::kMul,
                                     Kind::kUDiv, Kind::kURem, Kind::kSDiv,
                                     Kind::kSRem, Kind::kAnd, Kind::kOr,
                                     Kind::kXor, Kind::kShl, Kind::kLShr,
                                     Kind::kAShr, Kind::kEq, Kind::kUlt,
                                     Kind::kUle, Kind::kSlt, Kind::kSle};
        Kind kind = kinds[rng_.below(std::size(kinds))];
        switch (kind) {
          case Kind::kAdd: return ctx_.add(a, b);
          case Kind::kSub: return ctx_.sub(a, b);
          case Kind::kMul: return ctx_.mul(a, b);
          case Kind::kUDiv: return ctx_.udiv(a, b);
          case Kind::kURem: return ctx_.urem(a, b);
          case Kind::kSDiv: return ctx_.sdiv(a, b);
          case Kind::kSRem: return ctx_.srem(a, b);
          case Kind::kAnd: return ctx_.and_(a, b);
          case Kind::kOr: return ctx_.or_(a, b);
          case Kind::kXor: return ctx_.xor_(a, b);
          case Kind::kShl: return ctx_.shl(a, b);
          case Kind::kLShr: return ctx_.lshr(a, b);
          case Kind::kAShr: return ctx_.ashr(a, b);
          case Kind::kEq: return ctx_.eq(a, b);
          case Kind::kUlt: return ctx_.ult(a, b);
          case Kind::kUle: return ctx_.ule(a, b);
          case Kind::kSlt: return ctx_.slt(a, b);
          default: return ctx_.sle(a, b);
        }
      }
    }
  }

  Context& ctx_;
  Rng& rng_;
  std::vector<ExprRef> pool_;
};

Assignment random_assignment(Context& ctx, Rng& rng) {
  Assignment a;
  for (uint32_t id = 0; id < ctx.num_vars(); ++id)
    a.set(id, rng.next() & mask_bits(ctx.var_info(id).width));
  return a;
}

class SmtProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SmtProperty, SimplifyPreservesEvaluation) {
  Rng rng(GetParam());
  Context ctx;
  DagGen gen(ctx, rng, 4);
  ExprRef root = gen.grow(60);
  ExprRef simplified = simplify(ctx, root);
  EXPECT_EQ(simplified->width, root->width);
  for (int i = 0; i < 16; ++i) {
    Assignment a = random_assignment(ctx, rng);
    EXPECT_EQ(evaluate(root, a), evaluate(simplified, a))
        << "assignment " << i << " diverges after simplify";
  }
}

TEST_P(SmtProperty, SimplifyIsIdempotent) {
  Rng rng(GetParam() ^ 0xabcdef);
  Context ctx;
  DagGen gen(ctx, rng, 3);
  ExprRef root = gen.grow(40);
  ExprRef once = simplify(ctx, root);
  EXPECT_EQ(simplify(ctx, once), once);
}

TEST_P(SmtProperty, SimplifyNeverGrows) {
  Rng rng(GetParam() ^ 0x777);
  Context ctx;
  DagGen gen(ctx, rng, 4);
  ExprRef root = gen.grow(50);
  EXPECT_LE(node_count(simplify(ctx, root)), node_count(root));
}

TEST_P(SmtProperty, Z3AgreesWithEvaluator) {
  Rng rng(GetParam() ^ 0x5eed);
  Context ctx;
  DagGen gen(ctx, rng, 3);
  ExprRef root = gen.grow(30);
  auto solver = make_z3_solver(ctx);

  Assignment a = random_assignment(ctx, rng);
  uint64_t value = evaluate(root, a);

  // Pin every variable to the assignment and assert root == value; if the
  // evaluator implements SMT-LIB semantics, Z3 must agree this is sat.
  std::vector<ExprRef> assertions;
  for (uint32_t id = 0; id < ctx.num_vars(); ++id) {
    const VarInfo& info = ctx.var_info(id);
    assertions.push_back(
        ctx.eq(ctx.var(info.name, info.width), ctx.constant(a.get(id), info.width)));
  }
  assertions.push_back(ctx.eq(root, ctx.constant(value, root->width)));
  EXPECT_EQ(solver->check(assertions, nullptr), CheckResult::kSat);

  // ... and that root == value+1 (mod 2^w, always a different value) is
  // unsat under the same pinning.
  assertions.back() = ctx.eq(root, ctx.constant(value + 1, root->width));
  EXPECT_EQ(solver->check(assertions, nullptr), CheckResult::kUnsat);
}

TEST_P(SmtProperty, Z3ReadsPrintedDagsLikeTheEvaluator) {
  // The same forced-value pair, but the question travels as SMT-LIB text
  // (let-shared DAG, indexed ops, literals) through Z3's own parser.
  Rng rng(GetParam() ^ 0x7e47);
  Context ctx;
  DagGen gen(ctx, rng, 3);
  ExprRef root = gen.grow(30);
  Assignment a = random_assignment(ctx, rng);
  uint64_t value = evaluate(root, a);
  for (uint64_t v : {value, value + 1}) {
    EXPECT_TRUE(z3_reads_like_evaluator(
        ctx, {ctx.eq(root, ctx.constant(v, root->width))}, a))
        << to_smtlib(ctx, root) << " == " << v;
  }
}

TEST_P(SmtProperty, InterningIsIdempotent) {
  // Replay the exact same build sequence twice against one interning
  // context: every builder call of the second pass must be answered from
  // the intern table, so the roots (and the whole pools behind them) are
  // pointer-identical and the node count does not move.
  uint64_t seed = GetParam() ^ 0x1d01a;
  Context ctx;
  Rng rng1(seed);
  DagGen gen1(ctx, rng1, 4);
  ExprRef first = gen1.grow(50);
  size_t nodes_after_first = ctx.num_nodes();
  Rng rng2(seed);
  DagGen gen2(ctx, rng2, 4);
  ExprRef second = gen2.grow(50);
  EXPECT_EQ(first, second);
  EXPECT_EQ(ctx.num_nodes(), nodes_after_first);
  EXPECT_GT(ctx.intern_hits(), 0u);
}

TEST_P(SmtProperty, ContentHashStableAcrossContexts) {
  // The same build sequence in a second context whose variable ids are
  // shifted by padding declarations: content hashes key on the variable
  // *name*, so every hash must match — the property that makes the hash
  // usable as a cross-context (and future persistent) cache key.
  uint64_t seed = GetParam() ^ 0xc0ffee;
  Context plain;
  Context padded;
  for (int i = 0; i < 5; ++i) padded.var("pad" + std::to_string(i), 8);
  Rng rng1(seed);
  DagGen gen1(plain, rng1, 4);
  ExprRef a = gen1.grow(40);
  Rng rng2(seed);
  DagGen gen2(padded, rng2, 4);
  ExprRef b = gen2.grow(40);
  ASSERT_EQ(a->width, b->width);
  EXPECT_EQ(a->hash, b->hash);
  EXPECT_NE(a->hash, 0u);
  // The shifted ids prove the hash ignores them.
  EXPECT_NE(plain.num_vars(), padded.num_vars());
}

TEST_P(SmtProperty, StoreKeysStableAcrossContextsAndRestarts) {
  // The persistent store inherits the QueryCache keyspace: the sorted
  // content hashes of a query's assertions. Replaying the same build stream
  // in an id-shifted context must produce the identical key — that is what
  // makes a store entry written by one process answer the same query in the
  // next, whatever declaration order that process used.
  uint64_t seed = GetParam() ^ 0x57072e;
  Context plain;
  Context padded;
  for (int i = 0; i < 7; ++i) padded.var("pad" + std::to_string(i), 16);

  auto build_query = [&](Context& ctx) {
    Rng rng(seed);
    DagGen gen(ctx, rng, 4);
    ExprRef root = gen.grow(40);
    std::vector<ExprRef> assertions;
    assertions.push_back(ctx.eq(root, ctx.constant(0, root->width)));
    assertions.push_back(
        ctx.ult(ctx.zext(root, root->width == 64 ? 64 : root->width + 1),
                ctx.constant(5, root->width == 64 ? 64 : root->width + 1)));
    // Anchor over a fresh variable: whatever the random root folds to
    // (sometimes both assertions above become literal `true` and are
    // dropped from the key), this one always survives.
    assertions.push_back(ctx.ult(ctx.var("anchor", 8), ctx.constant(200, 8)));
    return assertions;
  };

  std::vector<ExprRef> a = build_query(plain);
  std::vector<ExprRef> b = build_query(padded);
  QueryCache::Key key = QueryCache::key_for(a);
  EXPECT_FALSE(key.empty());
  EXPECT_EQ(key, QueryCache::key_for(b));

  // Restart simulation: an entry stored under the plain context's key,
  // flushed and reopened, answers the padded context's key.
  const std::string dir = ::testing::TempDir() + "binsym-keystab-" +
                          std::to_string(GetParam());
  {
    auto store = SolverStore::open(dir);
    SolverStore::Entry entry;
    entry.verdict = CheckResult::kUnsat;
    entry.var_count = 4;
    store->insert(key, entry);
    ASSERT_TRUE(store->flush());
  }
  auto reopened = SolverStore::open(dir);
  SolverStore::Entry entry;
  ASSERT_TRUE(reopened->lookup(QueryCache::key_for(b), &entry));
  EXPECT_EQ(entry.verdict, CheckResult::kUnsat);
  EXPECT_EQ(entry.var_count, 4u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmtProperty,
                         ::testing::Range<uint64_t>(1, 33));

}  // namespace
}  // namespace binsym::smt
