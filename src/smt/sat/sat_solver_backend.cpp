// smt::Solver backend over the in-tree bit-blaster + CDCL solver.
//
// Natively incremental, after MiniSat's incremental SAT under assumptions
// (Eén & Sörensson, SAT 2003 and BMC 2003): one CdclSolver and one
// BitBlaster serve every check of the solver's life. The blaster's
// expression → literal memo persists, so a hash-consed prefix constraint is
// blasted once, and its gate clauses stay asserted. Those clauses only
// define literals and constrain no variable, so a scope needs no clause of
// its own: each scoped assertion's literal is its selector. A question is
// one solve() under {live scoped literals, assumption literals}, a pop()
// drops literals from that list, and every learned clause stays valid
// across flips, scopes and stateless checks. check() is the same solve()
// with its assertions as the assumptions.
//
// Memoized nodes and learned clauses only accumulate, so once the clause
// database passes a fixed budget the instance is rebuilt from
// scoped_assertions() before the next check.
#include <chrono>
#include <memory>

#include "smt/sat/bitblast.hpp"
#include "smt/solver.hpp"

namespace binsym::smt {

namespace {

/// Clauses an instance may hold before it is rebuilt: at roughly 70 bytes
/// per clause with its watches, about 10 MB per worker. No whole Table I
/// exploration holds more than about 1,800 (bubble-sort, uri-parser), so
/// Table I never rebuilds.
constexpr size_t kClauseBudget = size_t{1} << 17;

class BitblastSolver final : public Solver {
 public:
  BitblastSolver(Context& ctx, size_t clause_budget)
      : ctx_(ctx), clause_budget_(clause_budget) {
    rebuild();
  }

  CheckResult check(std::span<const ExprRef> assertions,
                    Assignment* model) override {
    return decide(assertions, model);
  }

  void pop() override {
    Solver::pop();
    scoped_lits_.resize(scoped_.size());
  }

  void assert_(ExprRef assertion) override {
    Solver::assert_(assertion);
    scoped_lits_.push_back(blaster_->literal(assertion));
  }

  CheckResult check_assuming(std::span<const ExprRef> assumptions,
                             Assignment* model) override {
    ++stats_.incremental_checks;
    stats_.reused_assertions += scoped_.size();
    return decide(assumptions, model);
  }

  std::string name() const override { return "bitblast+cdcl"; }

 private:
  /// A fresh instance holding only the live scoped assertions' literals.
  void rebuild() {
    blaster_.reset();  // holds a reference to the old instance
    cdcl_ = std::make_unique<sat::CdclSolver>();
    blaster_ = std::make_unique<sat::BitBlaster>(*cdcl_);
    scoped_lits_.clear();
    for (ExprRef assertion : scoped_)
      scoped_lits_.push_back(blaster_->literal(assertion));
  }

  /// Solve scoped ∧ `extra` on the one instance.
  CheckResult decide(std::span<const ExprRef> extra, Assignment* model) {
    auto start = std::chrono::steady_clock::now();
    ++stats_.queries;
    if (cdcl_->num_clauses() > clause_budget_) rebuild();

    // The deadline covers the whole check (blasting + search); only the
    // CDCL loop probes it, but blasting is polynomial in the DAG so the
    // search dominates every hard query. A check without one clears the
    // last check's.
    cdcl_->set_deadline(
        deadline_ms_ == 0
            ? std::nullopt
            : std::optional(start + std::chrono::milliseconds(deadline_ms_)));
    assumptions_ = scoped_lits_;
    for (ExprRef e : extra) assumptions_.push_back(blaster_->literal(e));

    const sat::CdclStats before = cdcl_->stats();
    const sat::SatResult answer = cdcl_->solve(assumptions_);
    const sat::CdclStats& after = cdcl_->stats();
    stats_.sat_decisions += after.decisions - before.decisions;
    stats_.sat_propagations += after.propagations - before.propagations;
    stats_.sat_conflicts += after.conflicts - before.conflicts;

    CheckResult result = CheckResult::kUnknown;
    switch (answer) {
      case sat::SatResult::kSat:
        result = CheckResult::kSat;
        ++stats_.sat;
        if (model) {
          for (const auto& [var_id, bits] : blaster_->vars()) {
            (void)bits;
            model->set(var_id,
                       blaster_->var_value(var_id, ctx_.var_info(var_id).width));
          }
        }
        break;
      case sat::SatResult::kUnsat:
        result = CheckResult::kUnsat;
        ++stats_.unsat;
        break;
      case sat::SatResult::kUnknown:
        ++stats_.unknown;
        break;
    }

    stats_.solve_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return result;
  }

  Context& ctx_;
  const size_t clause_budget_;
  std::unique_ptr<sat::CdclSolver> cdcl_;
  std::unique_ptr<sat::BitBlaster> blaster_;
  std::vector<sat::Lit> scoped_lits_;  // one per scoped_ entry
  std::vector<sat::Lit> assumptions_;  // scratch for decide()
};

}  // namespace

std::unique_ptr<Solver> make_bitblast_solver(Context& ctx,
                                             size_t clause_budget) {
  return std::make_unique<BitblastSolver>(
      ctx, clause_budget == 0 ? kClauseBudget : clause_budget);
}

}  // namespace binsym::smt
