// smt::Solver backend over the in-tree bit-blaster + CDCL solver.
//
// Each check() builds a fresh CNF (no native incrementality — the scoped
// push/pop/assert_/check_assuming API is served by the Solver base class's
// client-side adapter, and the engine's query cache absorbs repetition).
// Exists as (a) an ablation subject against Z3 and (b) a differential
// oracle for the SMT layer: the property tests require both backends to
// agree on sat/unsat for engine-generated queries.
#include <chrono>

#include "smt/sat/bitblast.hpp"
#include "smt/solver.hpp"

namespace binsym::smt {

namespace {

class BitblastSolver final : public Solver {
 public:
  explicit BitblastSolver(Context& ctx) : ctx_(ctx) {}

  CheckResult check(std::span<const ExprRef> assertions,
                    Assignment* model) override {
    auto start = std::chrono::steady_clock::now();
    ++stats_.queries;

    sat::CdclSolver solver;
    // The per-query deadline covers the whole check (blasting + search);
    // only the CDCL loop probes it, but blasting is polynomial in the DAG
    // so the search dominates every hard query.
    if (deadline_ms_ > 0) {
      solver.set_deadline(start + std::chrono::milliseconds(deadline_ms_));
    }
    sat::BitBlaster blaster(solver);
    for (ExprRef assertion : assertions) blaster.assert_true(assertion);

    CheckResult result;
    if (blaster.inconsistent()) {
      result = CheckResult::kUnsat;
    } else {
      switch (solver.solve()) {
        case sat::SatResult::kSat:     result = CheckResult::kSat; break;
        case sat::SatResult::kUnsat:   result = CheckResult::kUnsat; break;
        case sat::SatResult::kUnknown: result = CheckResult::kUnknown; break;
        default:                       result = CheckResult::kUnknown; break;
      }
    }

    if (result == CheckResult::kSat) {
      ++stats_.sat;
      if (model) {
        for (const auto& [var_id, bits] : blaster.vars()) {
          (void)bits;
          model->set(var_id,
                     blaster.var_value(var_id, ctx_.var_info(var_id).width));
        }
      }
    } else if (result == CheckResult::kUnsat) {
      ++stats_.unsat;
    } else {
      ++stats_.unknown;
    }

    stats_.solve_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return result;
  }

  std::string name() const override { return "bitblast+cdcl"; }

 private:
  Context& ctx_;
};

}  // namespace

std::unique_ptr<Solver> make_bitblast_solver(Context& ctx) {
  return std::make_unique<BitblastSolver>(ctx);
}

}  // namespace binsym::smt
