// Solver abstraction.
//
// The engine asks one question, many times: "is this conjunction of width-1
// expressions satisfiable, and if so under which variable assignment?". The
// abstraction allows swapping Z3 (the paper's solver) for the built-in
// bit-blasting backend, and lets the validating, failover and
// fault-injecting wrappers interpose transparently.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "smt/context.hpp"
#include "smt/eval.hpp"
#include "smt/expr.hpp"
#include "support/fault.hpp"

namespace binsym::smt {

/// Outcome of a satisfiability check (kUnknown covers backend resource
/// limits and theories the backend cannot decide).
enum class CheckResult { kSat, kUnsat, kUnknown };

/// Human-readable name for a CheckResult ("sat", "unsat", "unknown").
const char* check_result_name(CheckResult result);

/// Per-solver counters, accumulated across every check*() call.
/// Thread-safety: plain data owned by the (single-threaded) solver; the
/// engine merges per-worker copies after the workers join.
struct SolverStats {
  uint64_t queries = 0;
  uint64_t sat = 0;
  uint64_t unsat = 0;
  uint64_t unknown = 0;
  uint64_t cache_hits = 0;          // filled in by the engine's worker loop
  uint64_t cache_misses = 0;        // from its per-worker QueryCache
  uint64_t incremental_checks = 0;  // check_assuming() calls reaching a backend
  uint64_t reused_assertions = 0;   // scoped assertions live per such check,
                                    // summed (the assumption-reuse depth)
  uint64_t failover_rescues = 0;    // FailoverSolver: queries the primary
                                    // backend gave up on (unknown/timeout/
                                    // exception) that the secondary decided
  // -- PortfolioSolver (portfolio.hpp). Zero for every other stack.
  uint64_t portfolio_races = 0;      // checks decided by racing the members
  uint64_t portfolio_routed = 0;     // checks sent to one member by the router
  uint64_t portfolio_cancelled = 0;  // member checks cancelled (or skipped)
                                     // after another member won the race
  std::map<std::string, uint64_t> portfolio_wins;  // decided checks per
                                                   // winning member backend
  double solve_seconds = 0;         // wall time spent inside check*()

  /// Fold another solver's counters in (per-worker stats aggregation).
  void merge(const SolverStats& other) {
    queries += other.queries;
    sat += other.sat;
    unsat += other.unsat;
    unknown += other.unknown;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    incremental_checks += other.incremental_checks;
    reused_assertions += other.reused_assertions;
    failover_rescues += other.failover_rescues;
    portfolio_races += other.portfolio_races;
    portfolio_routed += other.portfolio_routed;
    portfolio_cancelled += other.portfolio_cancelled;
    for (const auto& [backend, wins] : other.portfolio_wins)
      portfolio_wins[backend] += wins;
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
  // The engine asserts a trace's branch-prefix constraints once and checks
  // each flip as an assumption on top, instead of re-sending the whole
  // conjunction per flip. The base-class implementation keeps the scoped
  // assertions client-side and answers check_assuming() via one stateless
  // check() over scoped + assumptions — a correct compatibility adapter for
  // any backend (the bit-blasting one uses it as-is). Backends with native
  // incrementality (Z3) override all four and keep the assertion stack in
  // the solver, where learned clauses survive across flips.

  /// Open a new assertion scope.
  virtual void push();
  /// Discard every assertion made since the matching push().
  virtual void pop();
  /// Add a width-1 assertion to the current scope.
  virtual void assert_(ExprRef assertion);
  /// Check scoped assertions ∧ assumptions; assumptions are not retained.
  virtual CheckResult check_assuming(std::span<const ExprRef> assumptions,
                                     Assignment* model);

  /// Per-query wall-clock deadline in milliseconds; 0 disables (the
  /// default). Applies to every subsequent check*() call. A check that
  /// exceeds the deadline returns kUnknown — never a wrong verdict — so
  /// the engine treats it as an explicitly skipped query. Backends honor
  /// it natively (Z3: solver `timeout` param; bitblast: a periodic
  /// interrupt probe in the CDCL search loop); wrappers forward it.
  virtual void set_deadline_ms(uint32_t ms) { deadline_ms_ = ms; }
  uint32_t deadline_ms() const { return deadline_ms_; }

  // -- Cooperative cancellation (the portfolio's racing substrate). -----------
  //
  // cancel() asks the in-flight — or not-yet-started — check*() call to give
  // up and return kUnknown as soon as possible; like a deadline expiry it may
  // only weaken the verdict, never change it. Unlike every other method it is
  // safe to call from another thread while a check runs: Z3 interrupts the
  // active search, the bit-blaster probes the flag in its CDCL loop next to
  // the deadline, the pipe backend kills its child process. The request is
  // sticky until reset_cancel() so a cancel landing before the loser's check
  // even starts still takes effect (no lost-cancel race).

  /// Request cancellation (thread-safe; wrappers forward to their inner
  /// backend).
  virtual void cancel() { cancel_flag_.store(true, std::memory_order_relaxed); }
  /// Re-arm for the next check (called by the owner thread between checks).
  virtual void reset_cancel() {
    cancel_flag_.store(false, std::memory_order_relaxed);
  }
  bool cancel_requested() const {
    return cancel_flag_.load(std::memory_order_relaxed);
  }

  /// All currently live scoped assertions, oldest first.
  std::span<const ExprRef> scoped_assertions() const { return scoped_; }
  size_t num_scopes() const { return scope_marks_.size(); }

  /// Human-readable backend name for reports (wrappers append suffixes,
  /// e.g. "z3+validate").
  virtual std::string name() const = 0;

  /// Backend that decided the most recent definitive check — the race winner
  /// for a portfolio, name() for a plain backend; wrappers forward. The
  /// persistent store records it per query.
  virtual std::string last_backend() const { return name(); }

  /// Counters accumulated so far (see SolverStats).
  const SolverStats& stats() const { return stats_; }
  /// Zero the counters (benchmark harnesses re-measuring one instance).
  void reset_stats() { stats_ = SolverStats{}; }

 protected:
  SolverStats stats_;
  std::vector<ExprRef> scoped_;      // live scoped assertions
  std::vector<size_t> scope_marks_;  // scoped_.size() at each push()
  uint32_t deadline_ms_ = 0;         // per-query deadline, 0 = none
  std::atomic<bool> cancel_flag_{false};  // sticky cancel request (the one
                                          // cross-thread-written member)
};

/// Construct the Z3-backed solver (see z3_solver.cpp).
std::unique_ptr<Solver> make_z3_solver(Context& ctx);

/// Construct the built-in bit-blasting solver (see sat/).
std::unique_ptr<Solver> make_bitblast_solver(Context& ctx);

/// Base for wrappers over one inner solver: push/pop/assert_ mirror the
/// scope into the base class (so scoped_assertions() stays valid) and
/// forward it, and the deadline, cancellation and last_backend() forward to
/// the inner solver. Subclasses implement check() and check_assuming().
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
  std::string last_backend() const override { return inner_->last_backend(); }
  void set_deadline_ms(uint32_t ms) override {
    Solver::set_deadline_ms(ms);
    inner_->set_deadline_ms(ms);
  }
  void cancel() override {
    Solver::cancel();
    inner_->cancel();
  }
  void reset_cancel() override {
    Solver::reset_cancel();
    inner_->reset_cancel();
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
/// caller. The secondary is stateless from the wrapper's point of view: it
/// answers each rescue as one standalone check over the client-side scoped
/// assertions plus the assumptions (the base class keeps that set for every
/// backend), so it needs no scope replay and no native incrementality. A
/// decided rescue counts into SolverStats::failover_rescues.
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
  /// The backend that actually decided the last check: the secondary when
  /// that check was rescued, the primary otherwise.
  std::string last_backend() const override {
    return last_rescued_ && secondary_ ? secondary_->last_backend()
                                       : inner_->last_backend();
  }
  void set_deadline_ms(uint32_t ms) override {
    ForwardingSolver::set_deadline_ms(ms);
    if (secondary_) secondary_->set_deadline_ms(ms);
  }
  /// A cancelled primary check returns kUnknown like a deadline expiry, but
  /// must not trigger a rescue: rescue() observes the sticky flag and
  /// declines, so cancellation wins over failover.
  void cancel() override {
    ForwardingSolver::cancel();
    if (secondary_) secondary_->cancel();
  }
  void reset_cancel() override {
    ForwardingSolver::reset_cancel();
    if (secondary_) secondary_->reset_cancel();
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
  bool last_rescued_ = false;     // last decided check came from secondary_
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
