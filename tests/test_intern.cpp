// Differential tests for the hash-cons expression arena (smt/context.hpp).
//
// Two worlds, one random build stream: a plain interning Context and one
// whose variable ids and intern-table slots are shifted by padding
// declarations, driven in lockstep by the same RNG draws. Interning may
// only change representation, never meaning:
//   * widths and concrete evaluation agree at every build step, and every
//     step's node evaluates like the same builder calls made over its
//     operands' values in a fresh context (no intern history), so a false
//     intern hit fails the sweep,
//   * structural equality is pointer equality,
//   * re-interning both worlds into a fresh arena converges to the same
//     node (builder folds re-fire bottom-up), simplify fixpoints included.
// Plus the engine-level stats plumbing of the arena counters.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "asm/assembler.hpp"
#include "core/engine.hpp"
#include "core/stats.hpp"
#include "elf/elf32.hpp"
#include "isa/decoder.hpp"
#include "smt/context.hpp"
#include "smt/eval.hpp"
#include "smt/expr.hpp"
#include "smt/simplify.hpp"
#include "smt/solver.hpp"
#include "spec/registry.hpp"
#include "support/bits.hpp"
#include "support/rng.hpp"

namespace binsym::smt {
namespace {

/// Rebuild expressions from `src` inside `dst` through dst's folding
/// builders, bottom-up. This is the canonicalizer the differential tests
/// compare through: structurally equal inputs (from either world) land on
/// the same node.
class Reintern {
 public:
  Reintern(const Context& src, Context& dst) : src_(src), dst_(dst) {}

  ExprRef clone(ExprRef root) {
    postorder(root, marker_, [&](ExprRef n) { map_[n] = build(n); });
    return map_.at(root);
  }

 private:
  ExprRef build(ExprRef n) {
    auto op = [&](unsigned i) { return map_.at(n->ops[i]); };
    switch (n->kind) {
      case Kind::kConst: return dst_.constant(n->constant, n->width);
      case Kind::kVar: {
        const VarInfo& info = src_.var_info(n->var_id);
        return dst_.var(info.name, info.width);
      }
      case Kind::kNot: return dst_.not_(op(0));
      case Kind::kNeg: return dst_.neg(op(0));
      case Kind::kExtract: return dst_.extract(op(0), n->aux0, n->aux1);
      case Kind::kZExt: return dst_.zext(op(0), n->width);
      case Kind::kSExt: return dst_.sext(op(0), n->width);
      case Kind::kAdd: return dst_.add(op(0), op(1));
      case Kind::kSub: return dst_.sub(op(0), op(1));
      case Kind::kMul: return dst_.mul(op(0), op(1));
      case Kind::kUDiv: return dst_.udiv(op(0), op(1));
      case Kind::kURem: return dst_.urem(op(0), op(1));
      case Kind::kSDiv: return dst_.sdiv(op(0), op(1));
      case Kind::kSRem: return dst_.srem(op(0), op(1));
      case Kind::kAnd: return dst_.and_(op(0), op(1));
      case Kind::kOr: return dst_.or_(op(0), op(1));
      case Kind::kXor: return dst_.xor_(op(0), op(1));
      case Kind::kShl: return dst_.shl(op(0), op(1));
      case Kind::kLShr: return dst_.lshr(op(0), op(1));
      case Kind::kAShr: return dst_.ashr(op(0), op(1));
      case Kind::kEq: return dst_.eq(op(0), op(1));
      case Kind::kUlt: return dst_.ult(op(0), op(1));
      case Kind::kUle: return dst_.ule(op(0), op(1));
      case Kind::kSlt: return dst_.slt(op(0), op(1));
      case Kind::kSle: return dst_.sle(op(0), op(1));
      case Kind::kConcat: return dst_.concat(op(0), op(1));
      case Kind::kIte: return dst_.ite(op(0), op(1), op(2));
    }
    return nullptr;  // unreachable
  }

  const Context& src_;
  Context& dst_;
  NodeMarker marker_;
  std::unordered_map<ExprRef, ExprRef> map_;
};

using Operands = std::vector<ExprRef>;

/// One random build step with every RNG draw already made: indices of its
/// operands in the generator's pool and the builder calls to apply to
/// them, so the step can be replayed over any operands in any context.
struct Step {
  std::vector<size_t> operands;
  std::function<ExprRef(Context&, const Operands&)> build;
};

/// Fit `e` to `width`: zero- or sign-extend a narrower node, keep the low
/// bits of a wider one.
ExprRef adapt(Context& ctx, ExprRef e, unsigned width, bool zero) {
  if (e->width == width) return e;
  if (e->width < width) return zero ? ctx.zext(e, width) : ctx.sext(e, width);
  return ctx.extract(e, width - 1, 0);
}

ExprRef apply(Context& ctx, Kind kind, ExprRef x, ExprRef y) {
  switch (kind) {
    case Kind::kAdd: return ctx.add(x, y);
    case Kind::kSub: return ctx.sub(x, y);
    case Kind::kMul: return ctx.mul(x, y);
    case Kind::kUDiv: return ctx.udiv(x, y);
    case Kind::kURem: return ctx.urem(x, y);
    case Kind::kSDiv: return ctx.sdiv(x, y);
    case Kind::kSRem: return ctx.srem(x, y);
    case Kind::kAnd: return ctx.and_(x, y);
    case Kind::kOr: return ctx.or_(x, y);
    case Kind::kXor: return ctx.xor_(x, y);
    case Kind::kShl: return ctx.shl(x, y);
    case Kind::kLShr: return ctx.lshr(x, y);
    case Kind::kAShr: return ctx.ashr(x, y);
    case Kind::kEq: return ctx.eq(x, y);
    case Kind::kUlt: return ctx.ult(x, y);
    case Kind::kUle: return ctx.ule(x, y);
    case Kind::kSlt: return ctx.slt(x, y);
    default: return ctx.sle(x, y);
  }
}

/// DagGen's op mix (test_smt_property.cpp), mirrored onto two contexts:
/// every RNG draw is made once and applied to both pools, so step i builds
/// the *same* term in both worlds. One step in eight repeats an earlier
/// step with one operand swapped for another of the same width: the
/// builder call a false intern hit would answer with the earlier node.
class DualGen {
 public:
  DualGen(Context& a, Context& b, Rng& rng, unsigned num_vars)
      : a_(a), b_(b), rng_(rng) {
    for (unsigned i = 0; i < num_vars; ++i) {
      unsigned width = pick_width();
      std::string name = "v" + std::to_string(i);
      push(a_.var(name, width), b_.var(name, width));
    }
    uint64_t value = rng_.next();
    unsigned width = pick_width();
    push(a_.constant(value, width), b_.constant(value, width));
  }

  /// Build one random step in both worlds; returns the step's recipe.
  Step step() {
    Step s = history_.empty() || rng_.below(8) ? random_step() : near_repeat();
    Operands xs, ys;
    for (size_t i : s.operands) {
      xs.push_back(pool_[i].first);
      ys.push_back(pool_[i].second);
    }
    push(s.build(a_, xs), s.build(b_, ys));
    history_.push_back(s);
    return s;
  }

  const std::vector<std::pair<ExprRef, ExprRef>>& pool() const {
    return pool_;
  }

 private:
  void push(ExprRef a, ExprRef b) {
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    ASSERT_EQ(a->width, b->width);
    pool_.emplace_back(a, b);
  }

  unsigned pick_width() {
    static const unsigned widths[] = {1, 8, 16, 32, 64};
    return widths[rng_.below(5)];
  }

  size_t pick() { return static_cast<size_t>(rng_.below(pool_.size())); }
  unsigned width_of(size_t i) const { return pool_[i].first->width; }

  Step random_step() {
    switch (rng_.below(8)) {
      case 0: {  // unary
        bool use_not = rng_.flip();
        return {{pick()}, [use_not](Context& c, const Operands& o) {
                  return use_not ? c.not_(o[0]) : c.neg(o[0]);
                }};
      }
      case 1: {  // extract
        size_t i = pick();
        unsigned hi = static_cast<unsigned>(rng_.below(width_of(i)));
        unsigned lo = static_cast<unsigned>(rng_.below(hi + 1));
        return {{i}, [hi, lo](Context& c, const Operands& o) {
                  return c.extract(o[0], hi, lo);
                }};
      }
      case 2: {  // extension
        size_t i = pick();
        unsigned to = width_of(i) +
                      static_cast<unsigned>(rng_.below(65 - width_of(i)));
        bool zero = rng_.flip();
        return {{i}, [to, zero](Context& c, const Operands& o) {
                  return zero ? c.zext(o[0], to) : c.sext(o[0], to);
                }};
      }
      case 3: {  // ite
        size_t ci = pick(), ti = pick(), ei = pick();
        bool cond_zero = rng_.flip(), else_zero = rng_.flip();
        unsigned width = width_of(ti);
        return {{ci, ti, ei},
                [=](Context& c, const Operands& o) {
                  return c.ite(adapt(c, o[0], 1, cond_zero), o[1],
                               adapt(c, o[2], width, else_zero));
                }};
      }
      case 4: {  // concat
        size_t hi = pick(), lo = pick();
        if (width_of(hi) + width_of(lo) > 64)
          return {{hi}, [](Context& c, const Operands& o) {
                    return c.not_(o[0]);
                  }};
        return {{hi, lo}, [](Context& c, const Operands& o) {
                  return c.concat(o[0], o[1]);
                }};
      }
      default: {  // binary
        size_t i = pick(), j = pick();
        bool zero = rng_.flip();
        static const Kind kinds[] = {Kind::kAdd, Kind::kSub, Kind::kMul,
                                     Kind::kUDiv, Kind::kURem, Kind::kSDiv,
                                     Kind::kSRem, Kind::kAnd, Kind::kOr,
                                     Kind::kXor, Kind::kShl, Kind::kLShr,
                                     Kind::kAShr, Kind::kEq, Kind::kUlt,
                                     Kind::kUle, Kind::kSlt, Kind::kSle};
        Kind kind = kinds[rng_.below(std::size(kinds))];
        unsigned width = width_of(i);
        return {{i, j}, [=](Context& c, const Operands& o) {
                  return apply(c, kind, o[0], adapt(c, o[1], width, zero));
                }};
      }
    }
  }

  Step near_repeat() {
    Step s = history_[rng_.below(history_.size())];
    size_t& operand = s.operands[rng_.below(s.operands.size())];
    for (int tries = 0; tries < 16; ++tries) {
      size_t other = pick();
      if (width_of(other) == width_of(operand)) {
        operand = other;
        break;
      }
    }
    return s;
  }

  Context& a_;
  Context& b_;
  Rng& rng_;
  std::vector<std::pair<ExprRef, ExprRef>> pool_;
  std::vector<Step> history_;
};

/// Shift `ctx`'s variable ids and intern-table contents: declarations the
/// build stream never mentions.
constexpr unsigned kPadVars = 7;
void pad(Context& ctx) {
  for (unsigned i = 0; i < kPadVars; ++i)
    ctx.var("pad" + std::to_string(i), 8 << (i % 4));
}

/// One random value per variable name, as an Assignment for each world
/// (the worlds give the same name different ids).
std::pair<Assignment, Assignment> random_models(const Context& a,
                                                const Context& b, Rng& rng) {
  std::pair<Assignment, Assignment> models;
  for (uint32_t id = 0; id < a.num_vars(); ++id) {
    const VarInfo& info = a.var_info(id);
    uint64_t value = rng.next() & mask_bits(info.width);
    models.first.set(id, value);
    if (ExprRef var = b.lookup_var(info.name))
      models.second.set(var->var_id, value);
  }
  return models;
}

/// Deep structural comparison that ignores interning. kVar compares by
/// var_id, so it is only meaningful for nodes of the same Context.
bool structurally_equal(ExprRef a, ExprRef b) {
  std::vector<std::pair<ExprRef, ExprRef>> stack{{a, b}};
  while (!stack.empty()) {
    auto [x, y] = stack.back();
    stack.pop_back();
    if (x == y) continue;  // shared sub-DAG (or both null)
    if (x->kind != y->kind || x->width != y->width ||
        x->num_ops != y->num_ops || x->constant != y->constant ||
        x->var_id != y->var_id || x->aux0 != y->aux0 || x->aux1 != y->aux1)
      return false;
    for (unsigned i = 0; i < x->num_ops; ++i)
      stack.emplace_back(x->ops[i], y->ops[i]);
  }
  return true;
}

constexpr unsigned kStepsPerSeed = 2500;  // 4 seeds x 2500 ~ 10k expressions

class InternDifferential : public ::testing::TestWithParam<uint64_t> {};

// The core lockstep sweep: the plain and the padded world build the same
// random stream; every step must agree on width and on concrete evaluation,
// and must evaluate like its builder calls replayed over constants in a
// fresh context. The worlds intern identically: the padded one allocated
// exactly its padding more.
TEST_P(InternDifferential, EvaluationAgreesAtEveryStep) {
  Rng rng(GetParam());
  Context plain;
  Context padded;
  pad(padded);
  DualGen gen(plain, padded, rng, 5);

  Rng model_rng(GetParam() ^ 0x9e3779b97f4a7c15ull);
  for (unsigned i = 0; i < kStepsPerSeed; ++i) {
    Step step = gen.step();
    auto [a, b] = gen.pool().back();
    ASSERT_EQ(a->width, b->width) << "step " << i;
    auto [ma, mb] = random_models(plain, padded, model_rng);
    uint64_t value = evaluate(a, ma);
    ASSERT_EQ(value, evaluate(b, mb))
        << "step " << i << " diverges between the plain and padded world";

    Context fresh;
    Operands constants;
    for (size_t k : step.operands) {
      ExprRef op = gen.pool()[k].first;
      constants.push_back(fresh.constant(evaluate(op, ma), op->width));
    }
    ASSERT_EQ(value, evaluate(step.build(fresh, constants), Assignment{}))
        << "step " << i << " disagrees with a history-free context";
  }
  // The final expressions, hammered with more models.
  auto [a, b] = gen.pool().back();
  for (int i = 0; i < 32; ++i) {
    auto [ma, mb] = random_models(plain, padded, model_rng);
    EXPECT_EQ(evaluate(a, ma), evaluate(b, mb)) << "model " << i;
  }

  // Sharing must be real, and independent of ids and table layout.
  EXPECT_GT(plain.intern_hits(), 0u);
  EXPECT_EQ(padded.intern_hits(), plain.intern_hits());
  EXPECT_EQ(padded.num_nodes(), plain.num_nodes() + kPadVars);
  EXPECT_GT(plain.arena_bytes(), 0u);
}

// Tentpole invariant: structural equality IS pointer equality. Checked two
// ways — hash groups must be singletons (two distinct nodes sharing a
// content hash would be either a intern-table bug or a 64-bit collision)
// and random pairs must agree with structurally_equal.
TEST_P(InternDifferential, StructuralEqualityIsPointerEquality) {
  Rng rng(GetParam());
  Context plain;
  Context padded;
  pad(padded);
  DualGen gen(plain, padded, rng, 5);
  for (unsigned i = 0; i < kStepsPerSeed / 4; ++i) gen.step();

  std::unordered_map<uint64_t, ExprRef> by_hash;
  for (const auto& [a, b] : gen.pool()) {
    auto [it, inserted] = by_hash.emplace(a->hash, a);
    if (!inserted) {
      EXPECT_EQ(it->second, a)
          << "two distinct interned nodes share content hash " << a->hash;
    }
    EXPECT_EQ(a->hash, b->hash);
  }
  Rng pair_rng(GetParam() ^ 0x517cc1b727220a95ull);
  const auto& pool = gen.pool();
  for (int i = 0; i < 512; ++i) {
    size_t x = pair_rng.below(pool.size()), y = pair_rng.below(pool.size());
    EXPECT_EQ(pool[x].first == pool[y].first,
              structurally_equal(pool[x].first, pool[y].first));
    EXPECT_EQ(pool[x].second == pool[y].second,
              structurally_equal(pool[x].second, pool[y].second));
  }
}

// Canonical forms converge: re-interning both worlds into a fresh arena
// (folds re-fire bottom-up) must land on the same node — for the raw
// expressions and for their simplify fixpoints.
TEST_P(InternDifferential, CanonicalFormsConvergeAcrossContexts) {
  Rng rng(GetParam());
  Context plain;
  Context padded;
  pad(padded);
  DualGen gen(plain, padded, rng, 5);
  for (unsigned i = 0; i < kStepsPerSeed / 4; ++i) gen.step();

  Context fresh;
  Reintern from_plain(plain, fresh);
  Reintern from_padded(padded, fresh);

  Rng model_rng(GetParam() ^ 0x2545f4914f6cdd1dull);
  const auto& pool = gen.pool();
  for (size_t i = 0; i < pool.size(); i += 37) {
    auto [a, b] = pool[i];
    ExprRef ca = from_plain.clone(a);
    ExprRef cb = from_padded.clone(b);
    ASSERT_EQ(ca, cb) << "re-interned forms diverge at pool index " << i;
    // Re-interning an arena's own node through its own builders is the
    // identity: the node already is the canonical form.
    Reintern self(plain, plain);
    EXPECT_EQ(self.clone(a), a) << "pool index " << i;

    // Simplify in each home world, then canonicalize: one fixpoint.
    ExprRef sa = simplify(plain, a);
    ExprRef sb = simplify(padded, b);
    auto [ma, mb] = random_models(plain, padded, model_rng);
    EXPECT_EQ(evaluate(sa, ma), evaluate(a, ma)) << "pool index " << i;
    EXPECT_EQ(evaluate(sb, mb), evaluate(b, mb)) << "pool index " << i;
    ExprRef csa = simplify(fresh, from_plain.clone(sa));
    ExprRef csb = simplify(fresh, from_padded.clone(sb));
    EXPECT_EQ(csa, csb) << "simplify fixpoints diverge at pool index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InternDifferential,
                         ::testing::Range<uint64_t>(1, 5));

}  // namespace
}  // namespace binsym::smt

// -- Engine level: stats plumbing. -------------------------------------------

namespace binsym {
namespace {

class InternEngineTest : public ::testing::Test {
 protected:
  InternEngineTest() { spec::install_rv32im(registry, table); }

  core::EngineStats explore(const core::Program& program) {
    core::DseEngine dse(
        [&](unsigned) {
          core::WorkerResources r;
          r.ctx = std::make_unique<smt::Context>();
          r.executor = std::make_unique<core::BinSymExecutor>(
              *r.ctx, decoder, registry, program, core::MachineConfig{});
          r.solver = smt::make_z3_solver(*r.ctx);
          return r;
        },
        core::EngineOptions{});
    return dse.explore();
  }

  isa::OpcodeTable table;
  isa::Decoder decoder{table};
  spec::Registry registry;
};

constexpr const char* kThreeBranchGuest = R"(
_start:
    la a0, buf
    li a1, 3
    li a7, 2
    ecall
    la s0, buf
    lbu t0, 0(s0)
    lbu t1, 1(s0)
    lbu t2, 2(s0)
    bnez t0, skip1
    nop
skip1:
    bltu t1, t2, skip2
    nop
skip2:
    beqz t2, skip3
    nop
skip3:
    li a0, 0
    li a7, 93
    ecall
.data
buf: .space 3
)";

TEST_F(InternEngineTest, StatsCollectArenaCounters) {
  core::Program program = elf::to_program(
      rvasm::assemble_or_die(table, kThreeBranchGuest).image);
  core::EngineStats stats = explore(program);
  EXPECT_GT(stats.exprs_interned, 0u);
  EXPECT_GT(stats.intern_hits, 0u);
  EXPECT_GT(stats.arena_bytes, 0u);
  std::string report = core::engine_stats_report(stats);
  EXPECT_NE(report.find("intern:"), std::string::npos) << report;
}

}  // namespace
}  // namespace binsym
