// Solver abstraction.
//
// The engine asks one question, many times: "is this conjunction of width-1
// expressions satisfiable, and if so under which variable assignment?". The
// abstraction allows swapping Z3 (the paper's solver) for the built-in
// bit-blasting backend, and lets the validating, failover and
// fault-injecting wrappers interpose transparently.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "smt/context.hpp"
#include "smt/eval.hpp"
#include "smt/expr.hpp"
#include "support/counters.hpp"
#include "support/fault.hpp"

namespace binsym::smt {

/// Outcome of a satisfiability check (kUnknown covers backend resource
/// limits and theories the backend cannot decide).
enum class CheckResult { kSat, kUnsat, kUnknown };

/// Human-readable name for a CheckResult ("sat", "unsat", "unknown").
const char* check_result_name(CheckResult result);

/// Every SolverStats counter, declared once: X(field, merge, section,
/// label), as BINSYM_ENGINE_COUNTERS (core/engine.hpp) describes. `section`
/// names the core::engine_stats_report line it prints on (core/stats.hpp);
/// the engine table marks where on that line.
#define BINSYM_SOLVER_COUNTERS(X)                                             \
  X(queries, sum, kSolver, "queries")                                         \
  X(sat, sum, kSolver, "sat")                                                 \
  X(unsat, sum, kSolver, "unsat")                                             \
  X(unknown, sum, kSolver, "unknown")                                         \
  /* filled in by the engine's worker loop from its per-worker QueryCache */  \
  X(cache_hits, sum, kSolver, "cache-hits")                                   \
  X(cache_misses, sum, kSolver, "cache-misses")                               \
  /* check_assuming() calls reaching a backend */                             \
  X(incremental_checks, sum, kOpts, "incremental-checks")                     \
  /* scoped assertions live per such check, summed (the assumption-reuse      \
     depth) */                                                                \
  X(reused_assertions, sum, kOpts, "reused-assertions")                       \
  /* bitblast: CDCL search work, summed over every solve() and so across      \
     instance rebuilds; z3 leaves them 0 */                                   \
  X(sat_decisions, sum, kSat, "decisions")                                    \
  X(sat_propagations, sum, kSat, "propagations")                              \
  X(sat_conflicts, sum, kSat, "conflicts")                                    \
  /* FailoverSolver: queries the primary backend gave up on (unknown/         \
     timeout/exception) that the secondary decided */                         \
  X(failover_rescues, sum, kRobust, "failover-rescues")

/// Per-solver counters, accumulated across every check*() call.
/// Thread-safety: plain data owned by the (single-threaded) solver; the
/// engine merges per-worker copies after the workers join.
struct SolverStats {
  BINSYM_SOLVER_COUNTERS(BINSYM_COUNTER_FIELD)
  double solve_seconds = 0;  // wall time spent inside check*()

  /// Fold another solver's counters in (per-worker stats aggregation).
  void merge(const SolverStats& other) {
    BINSYM_SOLVER_COUNTERS(BINSYM_COUNTER_MERGE)
    solve_seconds += other.solve_seconds;
  }
};

/// Thread-safety: a Solver (any backend, any wrapper) is single-threaded —
/// it is built over one smt::Context, which is itself confined to one
/// engine worker. Parallel exploration gives every worker its own solver;
/// nothing here locks.
class Solver {
 public:
  virtual ~Solver() = default;

  /// Check satisfiability of the conjunction of `assertions` (each width 1).
  /// On kSat, `*model` (if non-null) receives values for at least every free
  /// variable occurring in the assertions; missing variables may take any
  /// value (the Assignment treats them as zero). Must only be called with no
  /// scopes open (stateless use; the scoped API below is the alternative).
  virtual CheckResult check(std::span<const ExprRef> assertions,
                            Assignment* model) = 0;

  // -- Scoped (incremental) API. --------------------------------------------
  //
  // The engine keeps a trace's prefix constraints asserted, one pushed
  // level each and across sibling traces, and checks each flip as an
  // assumption on top, instead of re-sending the whole conjunction per
  // flip. The base-class push/pop/assert_ keep the scoped assertions
  // client-side as well (scoped_assertions()); overrides call them. Both
  // backends are natively incremental and keep the assertion stack in the
  // solver, where learned clauses survive across flips: Z3 in its own
  // push/pop levels, bitblast as one selector literal per scoped assertion
  // in one persistent CDCL instance.

  /// Open a new assertion scope.
  virtual void push();
  /// Discard every assertion made since the matching push().
  virtual void pop();
  /// Add a width-1 assertion to the current scope.
  virtual void assert_(ExprRef assertion);
  /// Check scoped assertions ∧ assumptions; assumptions are not retained.
  virtual CheckResult check_assuming(std::span<const ExprRef> assumptions,
                                     Assignment* model) = 0;

  /// Per-query wall-clock deadline in milliseconds; 0 disables (the
  /// default). Applies to every subsequent check*() call. A check that
  /// exceeds the deadline returns kUnknown — never a wrong verdict — so
  /// the engine treats it as an explicitly skipped query. Backends honor
  /// it natively (Z3: solver `timeout` param; bitblast: a periodic
  /// deadline probe in the CDCL search loop, set afresh for every check);
  /// wrappers forward it.
  virtual void set_deadline_ms(uint32_t ms) { deadline_ms_ = ms; }
  uint32_t deadline_ms() const { return deadline_ms_; }

  /// Empty; kept only because perfbench/tracing.hpp overrides and calls them.
  virtual void cancel() {}
  virtual void reset_cancel() {}

  /// All currently live scoped assertions, oldest first.
  std::span<const ExprRef> scoped_assertions() const { return scoped_; }
  size_t num_scopes() const { return scope_marks_.size(); }

  /// Human-readable backend name for reports (wrappers append suffixes,
  /// e.g. "z3+validate").
  virtual std::string name() const = 0;

  /// Kept only because perfbench/tracing.hpp overrides it.
  virtual std::string last_backend() const { return name(); }

  /// Counters accumulated so far (see SolverStats).
  const SolverStats& stats() const { return stats_; }

 protected:
  SolverStats stats_;
  std::vector<ExprRef> scoped_;      // live scoped assertions
  std::vector<size_t> scope_marks_;  // scoped_.size() at each push()
  uint32_t deadline_ms_ = 0;         // per-query deadline, 0 = none
};

/// Construct the Z3-backed solver (see z3_solver.cpp).
std::unique_ptr<Solver> make_z3_solver(Context& ctx);

/// Construct the built-in bit-blasting solver, the default backend (see
/// sat/). `clause_budget` replaces the clause count at which its CDCL
/// instance is rebuilt; 0 keeps the built-in one. Tests pass a tiny budget
/// to force rebuilds.
std::unique_ptr<Solver> make_bitblast_solver(Context& ctx,
                                             size_t clause_budget = 0);

/// Base for wrappers over one inner solver: push/pop/assert_ mirror the
/// scope into the base class (so scoped_assertions() stays valid) and
/// forward it, and the deadline forwards to the inner solver. Subclasses
/// implement check() and check_assuming().
class ForwardingSolver : public Solver {
 public:
  explicit ForwardingSolver(std::unique_ptr<Solver> inner)
      : inner_(std::move(inner)) {}

  void push() override {
    Solver::push();
    inner_->push();
  }
  void pop() override {
    Solver::pop();
    inner_->pop();
  }
  void assert_(ExprRef assertion) override {
    Solver::assert_(assertion);
    inner_->assert_(assertion);
  }
  void set_deadline_ms(uint32_t ms) override {
    Solver::set_deadline_ms(ms);
    inner_->set_deadline_ms(ms);
  }

 protected:
  std::unique_ptr<Solver> inner_;
};

/// Validates every kSat model by concrete evaluation (smt::satisfies)
/// before returning it — wraps another solver; used in tests and available
/// as an engine option.
class ValidatingSolver final : public ForwardingSolver {
 public:
  using ForwardingSolver::ForwardingSolver;

  CheckResult check(std::span<const ExprRef> assertions,
                    Assignment* model) override;
  CheckResult check_assuming(std::span<const ExprRef> assumptions,
                             Assignment* model) override;
  std::string name() const override { return inner_->name() + "+validate"; }

 private:
  CheckResult validate(std::span<const ExprRef> assumptions,
                       CheckResult result, const Assignment& model);
};

/// Backend failover: every query goes to the primary backend (the inner
/// solver) first; when the primary gives up — kUnknown (deadline, theory
/// limits) or a thrown backend error — the query is retried once on a
/// lazily built secondary backend before kUnknown is surfaced to the
/// caller. In the CLI's stack the primary is the default bitblast backend
/// and the secondary is Z3 (or the reverse under `--solver z3`). The
/// secondary is stateless from the wrapper's point of view: it answers each
/// rescue as one standalone check over the client-side scoped assertions
/// plus the assumptions (the base class keeps that set for every backend),
/// so it needs no scope replay. A decided rescue counts into
/// SolverStats::failover_rescues.
class FailoverSolver final : public ForwardingSolver {
 public:
  using SecondaryFactory = std::function<std::unique_ptr<Solver>()>;

  /// `secondary` is invoked at most once, on the first rescue attempt; the
  /// built solver inherits the wrapper's current deadline.
  FailoverSolver(std::unique_ptr<Solver> primary, SecondaryFactory secondary)
      : ForwardingSolver(std::move(primary)),
        secondary_factory_(std::move(secondary)) {}

  CheckResult check(std::span<const ExprRef> assertions,
                    Assignment* model) override;
  CheckResult check_assuming(std::span<const ExprRef> assumptions,
                             Assignment* model) override;
  std::string name() const override { return inner_->name() + "+failover"; }
  void set_deadline_ms(uint32_t ms) override {
    ForwardingSolver::set_deadline_ms(ms);
    if (secondary_) secondary_->set_deadline_ms(ms);
  }

 private:
  /// Retry `scoped_ ∧ assumptions` on the secondary backend; kUnknown when
  /// the secondary also fails (then nothing rescued the query).
  CheckResult rescue(std::span<const ExprRef> assumptions, Assignment* model);
  void refresh_stats();

  SecondaryFactory secondary_factory_;
  std::unique_ptr<Solver> secondary_;  // built on first rescue
  uint64_t rescues_ = 0;
  uint64_t logical_queries_ = 0;  // checks as the caller sees them
};

/// Deterministic failure injection at the solver boundary (see
/// support/fault.hpp): before each check the plan's solver sites are
/// consulted — kSolverUnknown degrades the answer to kUnknown without
/// touching the backend, kSolverThrow raises support::FaultInjected as a
/// stand-in for a crashing backend. Both model real failure modes the
/// engine must absorb; the robustness tests drive every one of them.
class FaultInjectingSolver final : public ForwardingSolver {
 public:
  FaultInjectingSolver(std::unique_ptr<Solver> inner,
                       std::shared_ptr<support::FaultPlan> plan)
      : ForwardingSolver(std::move(inner)), plan_(std::move(plan)) {}

  CheckResult check(std::span<const ExprRef> assertions,
                    Assignment* model) override;
  CheckResult check_assuming(std::span<const ExprRef> assumptions,
                             Assignment* model) override;
  std::string name() const override { return inner_->name(); }

 private:
  /// Fires the solver fault sites; returns true when this check must
  /// degrade to kUnknown (throws on an injected backend crash).
  bool inject();
  void refresh_stats();

  std::shared_ptr<support::FaultPlan> plan_;
  uint64_t injected_unknown_ = 0;  // checks degraded without reaching inner_
};

}  // namespace binsym::smt
