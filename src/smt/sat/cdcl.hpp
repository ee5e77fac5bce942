// CDCL SAT solver (MiniSat-style core).
//
// Backs the project's own bit-blasting solver backend: two-watched-literal
// propagation, first-UIP conflict analysis with clause learning and
// backjumping, VSIDS activity decisions off a binary heap with phase
// saving, and geometric restarts. Incremental in MiniSat's sense (Eén &
// Sörensson, SAT 2003): clauses may be added between solves, and each
// solve runs under a set of assumption literals, so one instance answers a
// whole sequence of related questions and keeps its learned clauses.
// Small by design, but a real solver — property tests cross-check it
// against brute force and Z3.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
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
  /// A fresh variable. The search branches on decision variables only; a
  /// non-decision variable must be assigned by unit propagation once every
  /// decision variable is (a Tseitin gate output, say), so a solve() that
  /// has assigned every decision variable without conflict answers kSat.
  Var new_var(bool decision = true);
  int num_vars() const { return static_cast<int>(activity_.size()); }
  /// Problem plus learned clauses held (units live on the trail instead).
  size_t num_clauses() const { return clauses_.size(); }

  /// Add a clause; returns false if the formula became unsat at the root
  /// (empty clause after simplification against root-level assignments).
  /// Legal between solves: the assignment a solve() left behind is
  /// backtracked to level 0 first, so read the model before adding.
  bool add_clause(std::vector<Lit> lits);

  /// Abandon each later solve() (returning kUnknown) once this instant
  /// passes; nullopt clears it. Probed every 64 search-loop iterations, so
  /// the overrun is bounded by one propagation burst, not by total query
  /// hardness.
  void set_deadline(
      std::optional<std::chrono::steady_clock::time_point> deadline) {
    deadline_ = deadline;
  }

  /// Decide the clauses under `assumptions`. The assumptions are decided
  /// first, one level each; one that is already false under the clauses
  /// and the assumptions before it makes the answer kUnsat for this call
  /// only. Only a conflict at level 0 makes the formula itself unsat, and
  /// then every later solve() answers kUnsat at once.
  SatResult solve(std::span<const Lit> assumptions = {});

  /// Model access (valid after solve() returned kSat, until the next
  /// add_clause() or solve()).
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
  int decision_level() const { return static_cast<int>(trail_lim_.size()); }

  void enqueue(Lit lit, int reason);
  int propagate();  // returns conflicting clause index or kUndef
  void analyze(int conflict, std::vector<Lit>* learned, int* backjump_level);
  void backtrack(int level);
  Lit pick_branch();
  void bump_var(Var var);
  void decay_activities();
  void attach(int clause_index);

  // VSIDS order: a binary max-heap of variables keyed by activity.
  bool heap_before(Var a, Var b) const { return activity_[a] > activity_[b]; }
  void heap_insert(Var var);
  void heap_up(size_t pos);
  void heap_down(size_t pos);
  Var heap_pop();

  std::vector<Clause> clauses_;
  std::vector<std::vector<int>> watches_;  // per literal: clause indices
  std::vector<int8_t> assigns_;            // per var
  std::vector<int> reason_;                // per var: clause index or kUndef
  std::vector<int> level_;                 // per var
  std::vector<double> activity_;           // per var
  std::vector<bool> phase_;                // per var: saved polarity
  std::vector<uint8_t> seen_;              // per var: analyze() scratch
  std::vector<Var> heap_;                  // decision order
  std::vector<int> heap_pos_;              // per var: index in heap_ or -1
  std::vector<uint8_t> decision_;          // per var: may be branched on
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  std::vector<Lit> last_assumptions_;      // of the last solve()
  size_t propagate_head_ = 0;
  double activity_inc_ = 1.0;
  bool unsat_ = false;
  std::optional<std::chrono::steady_clock::time_point> deadline_;
  CdclStats stats_;
};

}  // namespace binsym::smt::sat
