// Z3 backend: translates the expression DAG to Z3 ASTs through the C API
// (memoized per query) and extracts integer models. Z3 is the solver used
// by the paper's evaluation; all engines in this repository share this
// backend so comparisons never benchmark the solver (paper, Sect. V).
#include <z3.h>

#include <cassert>
#include <chrono>
#include <stdexcept>
#include <unordered_map>

#include "smt/solver.hpp"
#include "support/bits.hpp"

namespace binsym::smt {

namespace {

/// Z3's default error handler prints and exits the process. Any Z3 API
/// error (an out-of-memory or resource limit hit inside an assert, a
/// push, model evaluation) must instead degrade the query: record instead
/// of exit; the check path inspects Z3_get_error_code and returns kUnknown.
void record_z3_error(Z3_context, Z3_error_code) {}

class Z3Solver final : public Solver {
 public:
  explicit Z3Solver(Context& ctx) : ctx_(ctx) {
    Z3_config cfg = Z3_mk_config();
    Z3_set_param_value(cfg, "model", "true");
    z3_ = Z3_mk_context(cfg);
    Z3_del_config(cfg);
    Z3_set_error_handler(z3_, record_z3_error);
    // One solver reused across all queries (fresh general-purpose solvers
    // pay multi-millisecond setup per check). The simple solver is Z3's SMT
    // kernel: a QF_BV logic solver hands every check made under a pushed
    // scope to its incremental SAT solver, which costs about 0.8 ms per
    // flip check whatever its size; the kernel answers the same checks in
    // about half that. The kernel internalizes each assertion eagerly, so
    // the engine asserts a trace's prefix only once a flip reaches it.
    solver_ = Z3_mk_simple_solver(z3_);
    Z3_solver_inc_ref(z3_, solver_);
  }

  ~Z3Solver() override {
    Z3_solver_dec_ref(z3_, solver_);
    Z3_del_context(z3_);
  }

  Z3Solver(const Z3Solver&) = delete;
  Z3Solver& operator=(const Z3Solver&) = delete;

  CheckResult check(std::span<const ExprRef> assertions,
                    Assignment* model) override {
    auto start = std::chrono::steady_clock::now();
    ++stats_.queries;

    Z3_solver_push(z3_, solver_);
    if (Z3_get_error_code(z3_) != Z3_OK) {
      // A failed push pushed nothing, so nothing may be asserted (a
      // base-level assertion would outlive this check).
      ++stats_.unknown;
      return CheckResult::kUnknown;
    }
    for (ExprRef assertion : assertions)
      Z3_solver_assert(z3_, solver_, boolean(assertion));

    CheckResult out = Z3_get_error_code(z3_) != Z3_OK
                          ? record(Z3_L_UNDEF, nullptr)
                          : record(Z3_solver_check(z3_, solver_), model);

    Z3_solver_pop(z3_, solver_, 1);
    stats_.solve_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return out;
  }

  // -- Native scoped API: the assertion stack lives inside Z3, so prefix
  // constraints are translated and asserted once per scope and the solver's
  // learned state survives across the flips of one trace. The flip condition
  // itself travels as a check-assumption, never polluting the stack.

  void push() override {
    Solver::push();
    Z3_solver_push(z3_, solver_);
  }

  void pop() override {
    Solver::pop();
    Z3_solver_pop(z3_, solver_, 1);
  }

  void assert_(ExprRef assertion) override {
    Solver::assert_(assertion);
    Z3_solver_assert(z3_, solver_, boolean(assertion));
  }

  CheckResult check_assuming(std::span<const ExprRef> assumptions,
                             Assignment* model) override {
    auto start = std::chrono::steady_clock::now();
    ++stats_.queries;
    ++stats_.incremental_checks;
    stats_.reused_assertions += scoped_.size();

    assumption_lits_.clear();
    for (ExprRef assumption : assumptions)
      assumption_lits_.push_back(boolean(assumption));
    CheckResult out = record(
        Z3_solver_check_assumptions(
            z3_, solver_, static_cast<unsigned>(assumption_lits_.size()),
            assumption_lits_.data()),
        model);

    stats_.solve_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return out;
  }

  std::string name() const override { return "z3"; }

  void set_deadline_ms(uint32_t ms) override {
    Solver::set_deadline_ms(ms);
    // Native per-query timeout: Z3 interrupts the active check and returns
    // Z3_L_UNDEF, which record() maps to kUnknown. 0 restores "no limit"
    // (Z3's own default is UINT_MAX milliseconds).
    Z3_params params = Z3_mk_params(z3_);
    Z3_params_inc_ref(z3_, params);
    Z3_params_set_uint(z3_, params, Z3_mk_string_symbol(z3_, "timeout"),
                       ms == 0 ? 0xFFFFFFFFu : ms);
    Z3_solver_set_params(z3_, solver_, params);
    Z3_params_dec_ref(z3_, params);
  }

 private:
  Z3_ast bv_const(uint64_t value, unsigned width) {
    Z3_sort sort = Z3_mk_bv_sort(z3_, width);
    return Z3_mk_unsigned_int64(z3_, value, sort);
  }

  /// Width-1 assertion as a Z3 Boolean (the shape both the assertion stack
  /// and check-assumption literals require).
  Z3_ast boolean(ExprRef assertion) {
    assert(assertion->width == 1);
    return Z3_mk_eq(z3_, translate(assertion), bv_const(1, 1));
  }

  /// Fold a Z3 verdict into the stats and extract the model on sat.
  CheckResult record(Z3_lbool result, Assignment* model) {
    switch (result) {
      case Z3_L_TRUE:
        ++stats_.sat;
        if (model) extract_model(solver_, model);
        return CheckResult::kSat;
      case Z3_L_FALSE:
        ++stats_.unsat;
        return CheckResult::kUnsat;
      default:
        ++stats_.unknown;
        return CheckResult::kUnknown;
    }
  }

  Z3_ast translate(ExprRef root) {
    if (auto it = translation_.find(root->id); it != translation_.end())
      return it->second;
    postorder(root, [&](ExprRef node) {
      if (translation_.count(node->id)) return;
      Z3_ast ast = translate_node(node);
      // Never memoize a null AST (a constructor that raised a Z3 error): a
      // poisoned memo entry would outlive the failed check.
      if (ast != nullptr) translation_.emplace(node->id, ast);
    });
    return translation_.at(root->id);
  }

  Z3_ast translate_node(ExprRef node) {
    auto op = [&](unsigned i) { return translation_.at(node->ops[i]->id); };
    auto to_bit = [&](Z3_ast boolean) {
      // Comparisons return Bool in Z3; our algebra is width-1 bitvectors.
      return Z3_mk_ite(z3_, boolean, bv_const(1, 1), bv_const(0, 1));
    };
    switch (node->kind) {
      case Kind::kConst:
        return bv_const(node->constant, node->width);
      case Kind::kVar: {
        const VarInfo& info = ctx_.var_info(node->var_id);
        Z3_symbol symbol =
            Z3_mk_string_symbol(z3_, info.name.c_str());
        Z3_ast ast = Z3_mk_const(z3_, symbol, Z3_mk_bv_sort(z3_, info.width));
        var_consts_.emplace_back(node->var_id, ast);
        return ast;
      }
      case Kind::kNot:     return Z3_mk_bvnot(z3_, op(0));
      case Kind::kNeg:     return Z3_mk_bvneg(z3_, op(0));
      case Kind::kExtract: return Z3_mk_extract(z3_, node->aux0, node->aux1, op(0));
      case Kind::kZExt:
        return Z3_mk_zero_ext(z3_, node->width - node->ops[0]->width, op(0));
      case Kind::kSExt:
        return Z3_mk_sign_ext(z3_, node->width - node->ops[0]->width, op(0));
      case Kind::kAdd:     return Z3_mk_bvadd(z3_, op(0), op(1));
      case Kind::kSub:     return Z3_mk_bvsub(z3_, op(0), op(1));
      case Kind::kMul:     return Z3_mk_bvmul(z3_, op(0), op(1));
      case Kind::kUDiv:    return Z3_mk_bvudiv(z3_, op(0), op(1));
      case Kind::kURem:    return Z3_mk_bvurem(z3_, op(0), op(1));
      case Kind::kSDiv:    return Z3_mk_bvsdiv(z3_, op(0), op(1));
      case Kind::kSRem:    return Z3_mk_bvsrem(z3_, op(0), op(1));
      case Kind::kAnd:     return Z3_mk_bvand(z3_, op(0), op(1));
      case Kind::kOr:      return Z3_mk_bvor(z3_, op(0), op(1));
      case Kind::kXor:     return Z3_mk_bvxor(z3_, op(0), op(1));
      case Kind::kShl:     return Z3_mk_bvshl(z3_, op(0), op(1));
      case Kind::kLShr:    return Z3_mk_bvlshr(z3_, op(0), op(1));
      case Kind::kAShr:    return Z3_mk_bvashr(z3_, op(0), op(1));
      case Kind::kEq:      return to_bit(Z3_mk_eq(z3_, op(0), op(1)));
      case Kind::kUlt:     return to_bit(Z3_mk_bvult(z3_, op(0), op(1)));
      case Kind::kUle:     return to_bit(Z3_mk_bvule(z3_, op(0), op(1)));
      case Kind::kSlt:     return to_bit(Z3_mk_bvslt(z3_, op(0), op(1)));
      case Kind::kSle:     return to_bit(Z3_mk_bvsle(z3_, op(0), op(1)));
      case Kind::kConcat:  return Z3_mk_concat(z3_, op(0), op(1));
      case Kind::kIte: {
        Z3_ast cond = Z3_mk_eq(z3_, op(0), bv_const(1, 1));
        return Z3_mk_ite(z3_, cond, op(1), op(2));
      }
    }
    throw std::logic_error("unhandled expression kind in Z3 translation");
  }

  void extract_model(Z3_solver solver, Assignment* model) {
    Z3_model z3_model = Z3_solver_get_model(z3_, solver);
    if (z3_model == nullptr) return;  // Z3 error during extraction
    Z3_model_inc_ref(z3_, z3_model);
    for (const auto& [var_id, ast] : var_consts_) {
      Z3_ast value_ast = nullptr;
      if (!Z3_model_eval(z3_, z3_model, ast, /*model_completion=*/true,
                         &value_ast)) {
        continue;
      }
      uint64_t value = 0;
      if (Z3_get_numeral_uint64(z3_, value_ast, &value)) {
        model->set(var_id, truncate(value, ctx_.var_info(var_id).width));
      }
    }
    Z3_model_dec_ref(z3_, z3_model);
  }

  Context& ctx_;
  Z3_context z3_;
  Z3_solver solver_ = nullptr;
  // Persistent across queries: the Z3 context outlives every check, so the
  // per-node translation memo and the variable registry never invalidate.
  std::unordered_map<uint32_t, Z3_ast> translation_;
  std::vector<std::pair<uint32_t, Z3_ast>> var_consts_;
  std::vector<Z3_ast> assumption_lits_;  // scratch for check_assuming
};

}  // namespace

std::unique_ptr<Solver> make_z3_solver(Context& ctx) {
  return std::make_unique<Z3Solver>(ctx);
}

}  // namespace binsym::smt
