// CDCL SAT solver (MiniSat-style core).
//
// Backs the project's own bit-blasting solver backend: two-watched-literal
// propagation, first-UIP conflict analysis with clause learning and
// backjumping, VSIDS-like activity decisions with phase saving, and
// geometric restarts. Small by design, but a real solver — property tests
// cross-check it against Z3 on engine-generated queries.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace binsym::smt::sat {

using Var = int32_t;
/// Literal encoding: 2*var + sign (sign bit set == negated).
using Lit = int32_t;

constexpr Lit make_lit(Var var, bool negated) { return 2 * var + negated; }
constexpr Var lit_var(Lit lit) { return lit >> 1; }
constexpr bool lit_negated(Lit lit) { return lit & 1; }
constexpr Lit lit_not(Lit lit) { return lit ^ 1; }

enum class SatResult : uint8_t { kSat, kUnsat, kUnknown /* deadline hit */ };

struct CdclStats {
  uint64_t decisions = 0;
  uint64_t propagations = 0;
  uint64_t conflicts = 0;
  uint64_t learned_clauses = 0;
  uint64_t restarts = 0;
};

class CdclSolver {
 public:
  Var new_var();
  int num_vars() const { return static_cast<int>(activity_.size()); }

  /// Add a clause; returns false if the formula became trivially unsat
  /// (empty clause after simplification against root-level assignments).
  bool add_clause(std::vector<Lit> lits);

  /// Abandon the search (returning kUnknown) once this instant passes.
  /// Probed every few hundred search-loop iterations, so the overrun is
  /// bounded by one propagation burst, not by total query hardness.
  void set_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
  }

  SatResult solve();

  /// Model access (valid after solve() returned kSat).
  bool value(Var var) const { return assigns_[var] == 1; }

  const CdclStats& stats() const { return stats_; }

 private:
  static constexpr int kUndef = -1;

  struct Clause {
    std::vector<Lit> lits;
    bool learned = false;
  };

  // -1 unassigned, 0 false, 1 true (per variable).
  int8_t lit_value(Lit lit) const {
    int8_t v = assigns_[lit_var(lit)];
    if (v < 0) return -1;
    return lit_negated(lit) ? static_cast<int8_t>(1 - v) : v;
  }

  void enqueue(Lit lit, int reason);
  int propagate();  // returns conflicting clause index or kUndef
  void analyze(int conflict, std::vector<Lit>* learned, int* backjump_level);
  void backtrack(int level);
  Lit pick_branch();
  void bump_var(Var var);
  void decay_activities();
  void attach(int clause_index);

  std::vector<Clause> clauses_;
  std::vector<std::vector<int>> watches_;  // per literal: clause indices
  std::vector<int8_t> assigns_;            // per var
  std::vector<int> reason_;                // per var: clause index or kUndef
  std::vector<int> level_;                 // per var
  std::vector<double> activity_;           // per var
  std::vector<bool> phase_;                // per var: saved polarity
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  size_t propagate_head_ = 0;
  double activity_inc_ = 1.0;
  bool unsat_ = false;
  std::optional<std::chrono::steady_clock::time_point> deadline_;
  CdclStats stats_;
};

}  // namespace binsym::smt::sat
