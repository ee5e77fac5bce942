// Shared solver-side test helpers.
//
// StubSolver stands in for a backend with a known, controllable failure: an
// always-unknown backend (deadline stand-in) or a crashing one. Used by the
// failover tests (test_solver.cpp).
//
// z3_reads_like_evaluator hands the SMT-LIB printer's output to Z3's own
// parser, the independent reader of what binsym prints (test_smtlib.cpp,
// test_smt_property.cpp).
#pragma once

#include <z3.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "smt/eval.hpp"
#include "smt/smtlib.hpp"
#include "smt/solver.hpp"

namespace binsym::smt {

class StubSolver final : public Solver {
 public:
  enum class Mode { kUnknown, kThrow };

  explicit StubSolver(Mode mode) : mode_(mode) {}

  CheckResult check(std::span<const ExprRef>, Assignment*) override {
    ++stats_.queries;
    if (mode_ == Mode::kThrow) throw std::runtime_error("stub backend crash");
    ++stats_.unknown;
    return CheckResult::kUnknown;
  }

  std::string name() const override { return "stub"; }

 private:
  Mode mode_;
};

/// Print `assertions` with query_string, every variable of `ctx` pinned to
/// its value in `model`, and have Z3's SMT-LIB parser read the text back.
/// With every variable pinned the verdict is decided by the model alone, so
/// Z3 must answer sat exactly when binsym's evaluator makes every assertion
/// 1. Returns whether it did (and read one formula per assertion).
inline bool z3_reads_like_evaluator(Context& ctx,
                                    std::vector<ExprRef> assertions,
                                    const Assignment& model) {
  const bool holds = satisfies(assertions, model);
  for (uint32_t id = 0; id < ctx.num_vars(); ++id) {
    const VarInfo& info = ctx.var_info(id);
    assertions.push_back(ctx.eq(ctx.var(info.name, info.width),
                                ctx.constant(model.get(id), info.width)));
  }
  const std::string text = query_string(ctx, assertions);

  Z3_config cfg = Z3_mk_config();
  Z3_context z3 = Z3_mk_context(cfg);
  Z3_del_config(cfg);
  Z3_ast_vector parsed = Z3_parse_smtlib2_string(
      z3, text.c_str(), 0, nullptr, nullptr, 0, nullptr, nullptr);
  Z3_ast_vector_inc_ref(z3, parsed);
  const bool complete = Z3_ast_vector_size(z3, parsed) == assertions.size();
  Z3_solver solver = Z3_mk_solver(z3);
  Z3_solver_inc_ref(z3, solver);
  for (unsigned i = 0; i < Z3_ast_vector_size(z3, parsed); ++i)
    Z3_solver_assert(z3, solver, Z3_ast_vector_get(z3, parsed, i));
  const Z3_lbool verdict = Z3_solver_check(z3, solver);
  Z3_solver_dec_ref(z3, solver);
  Z3_ast_vector_dec_ref(z3, parsed);
  Z3_del_context(z3);
  return complete && verdict == (holds ? Z3_L_TRUE : Z3_L_FALSE);
}

}  // namespace binsym::smt
