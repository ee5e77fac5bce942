#include "smt/solver.hpp"

#include <stdexcept>

namespace binsym::smt {

const char* check_result_name(CheckResult result) {
  switch (result) {
    case CheckResult::kSat:     return "sat";
    case CheckResult::kUnsat:   return "unsat";
    case CheckResult::kUnknown: return "unknown";
  }
  return "?";
}

// -- Base-class scope bookkeeping: scoped_assertions() for every solver. ------

void Solver::push() { scope_marks_.push_back(scoped_.size()); }

void Solver::pop() {
  if (scope_marks_.empty())
    throw std::logic_error("Solver::pop() without matching push()");
  scoped_.resize(scope_marks_.back());
  scope_marks_.pop_back();
}

void Solver::assert_(ExprRef assertion) { scoped_.push_back(assertion); }

// -- ValidatingSolver. --------------------------------------------------------

CheckResult ValidatingSolver::validate(std::span<const ExprRef> assumptions,
                                       CheckResult result,
                                       const Assignment& model) {
  if (result == CheckResult::kSat &&
      !(satisfies(scoped_, model) && satisfies(assumptions, model)))
    throw std::logic_error("solver '" + inner_->name() +
                           "' returned a model that does not satisfy the "
                           "query");
  return result;
}

CheckResult ValidatingSolver::check(std::span<const ExprRef> assertions,
                                    Assignment* model) {
  Assignment local;
  Assignment* target = model ? model : &local;
  CheckResult result = inner_->check(assertions, target);
  stats_ = inner_->stats();
  return validate(assertions, result, *target);
}

CheckResult ValidatingSolver::check_assuming(
    std::span<const ExprRef> assumptions, Assignment* model) {
  Assignment local;
  Assignment* target = model ? model : &local;
  CheckResult result = inner_->check_assuming(assumptions, target);
  stats_ = inner_->stats();
  return validate(assumptions, result, *target);
}

// -- FailoverSolver. ----------------------------------------------------------

void FailoverSolver::refresh_stats() {
  // Report *logical* queries: a rescued check is still one query to the
  // caller, classified by its final verdict. Wall time, the incremental
  // counters and the CDCL work sum the real backend work.
  SolverStats primary = inner_->stats();
  stats_.solve_seconds = primary.solve_seconds;
  stats_.incremental_checks = primary.incremental_checks;
  stats_.reused_assertions = primary.reused_assertions;
  stats_.sat_decisions = primary.sat_decisions;
  stats_.sat_propagations = primary.sat_propagations;
  stats_.sat_conflicts = primary.sat_conflicts;
  if (secondary_) {
    const SolverStats& rescue = secondary_->stats();
    stats_.solve_seconds += rescue.solve_seconds;
    stats_.sat_decisions += rescue.sat_decisions;
    stats_.sat_propagations += rescue.sat_propagations;
    stats_.sat_conflicts += rescue.sat_conflicts;
  }
  stats_.failover_rescues = rescues_;
  stats_.queries = logical_queries_;
}

CheckResult FailoverSolver::rescue(std::span<const ExprRef> assumptions,
                                   Assignment* model) {
  if (!secondary_ && secondary_factory_) {
    secondary_ = secondary_factory_();
    if (secondary_) secondary_->set_deadline_ms(deadline_ms_);
  }
  if (!secondary_) return CheckResult::kUnknown;
  // One standalone check over the live scoped assertions plus the
  // assumptions — exactly the conjunction the primary was deciding.
  std::vector<ExprRef> all(scoped_.begin(), scoped_.end());
  all.insert(all.end(), assumptions.begin(), assumptions.end());
  CheckResult result = CheckResult::kUnknown;
  try {
    result = secondary_->check(all, model);
  } catch (const std::exception&) {
    result = CheckResult::kUnknown;
  }
  if (result != CheckResult::kUnknown) ++rescues_;
  return result;
}

CheckResult FailoverSolver::check(std::span<const ExprRef> assertions,
                                  Assignment* model) {
  ++logical_queries_;
  CheckResult result = CheckResult::kUnknown;
  try {
    result = inner_->check(assertions, model);
  } catch (const std::exception&) {
    result = CheckResult::kUnknown;
  }
  // check() is only legal with no scopes open, so the rescue conjunction is
  // the assertions themselves (scoped_ is empty).
  if (result == CheckResult::kUnknown) result = rescue(assertions, model);
  switch (result) {
    case CheckResult::kSat:     ++stats_.sat; break;
    case CheckResult::kUnsat:   ++stats_.unsat; break;
    case CheckResult::kUnknown: ++stats_.unknown; break;
  }
  refresh_stats();
  return result;
}

CheckResult FailoverSolver::check_assuming(std::span<const ExprRef> assumptions,
                                           Assignment* model) {
  ++logical_queries_;
  CheckResult result = CheckResult::kUnknown;
  try {
    result = inner_->check_assuming(assumptions, model);
  } catch (const std::exception&) {
    result = CheckResult::kUnknown;
  }
  if (result == CheckResult::kUnknown) result = rescue(assumptions, model);
  switch (result) {
    case CheckResult::kSat:     ++stats_.sat; break;
    case CheckResult::kUnsat:   ++stats_.unsat; break;
    case CheckResult::kUnknown: ++stats_.unknown; break;
  }
  refresh_stats();
  return result;
}

// -- FaultInjectingSolver. ----------------------------------------------------

bool FaultInjectingSolver::inject() {
  if (!plan_) return false;
  if (plan_->fire(support::FaultSite::kSolverThrow))
    throw support::FaultInjected("injected solver backend failure");
  if (plan_->fire(support::FaultSite::kSolverUnknown)) {
    ++injected_unknown_;
    return true;
  }
  return false;
}

CheckResult FaultInjectingSolver::check(std::span<const ExprRef> assertions,
                                        Assignment* model) {
  if (inject()) {
    refresh_stats();
    return CheckResult::kUnknown;
  }
  CheckResult result = inner_->check(assertions, model);
  refresh_stats();
  return result;
}

CheckResult FaultInjectingSolver::check_assuming(
    std::span<const ExprRef> assumptions, Assignment* model) {
  if (inject()) {
    refresh_stats();
    return CheckResult::kUnknown;
  }
  CheckResult result = inner_->check_assuming(assumptions, model);
  refresh_stats();
  return result;
}

void FaultInjectingSolver::refresh_stats() {
  // Injected-unknown checks never reach the backend, so they are layered
  // on top of the inner solver's counters here.
  stats_ = inner_->stats();
  stats_.queries += injected_unknown_;
  stats_.unknown += injected_unknown_;
}

}  // namespace binsym::smt
