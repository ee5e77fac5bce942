// Constraint-independence slicing (the KLEE-style optimization).
//
// A branch-flip query is a conjunction `prefix ∧ ¬cond` in which most
// prefix constraints share no variables — transitively — with the negated
// condition. Such constraints cannot affect the satisfiability of the
// group the condition lives in (the parent seed already satisfies them),
// so the solver only needs the variable-connected component(s) reachable
// from the condition's variables. Slicing shrinks the solver query and the
// query-cache key (sibling flips over disjoint groups collapse onto one
// key).
//
// Soundness of the model merge: sliced-out constraints are variable-
// disjoint from the sliced group by construction, so a model of the sliced
// query combined with the parent seed's values for every other variable
// satisfies the full query (the engine's next_seed merge does exactly
// this; the solver model must therefore be restricted to the sliced
// query's variables before merging — see restrict_to_vars).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "smt/eval.hpp"
#include "smt/expr.hpp"

namespace binsym::smt {

/// Union-find partition of `constraints` into variable-connected groups.
/// Returns one group id per constraint, in [0, num constraints); two
/// constraints get the same id iff they are transitively linked by shared
/// variables. Constraints without variables (constants) each form their own
/// singleton group. Exposed primarily for tests; the engine path uses
/// QuerySlicer.
std::vector<size_t> independence_groups(std::span<const ExprRef> constraints);

/// Reusable slicer. Holds the per-constraint variable sets (memoized by
/// node id — expressions are hash-consed, so recurring prefix constraints
/// collect their variables once per worker, not once per flip) and the
/// union-find scratch. The partition itself is rebuilt per slice() call;
/// emitting the sliced query is O(prefix) per flip regardless, and the
/// variable sets dominate the constant factor.
///
/// Thread-safety: none — the memo is keyed by per-context node ids, so a
/// QuerySlicer is confined to one engine worker like the Context itself.
class QuerySlicer {
 public:
  struct Result {
    /// The sliced query: every prefix constraint variable-connected to the
    /// target, followed by the target itself (last element). Order of the
    /// kept prefix constraints is preserved.
    std::vector<ExprRef> query;
    /// Sorted distinct variable ids occurring in `query`.
    std::vector<uint32_t> vars;
    /// Number of prefix constraints sliced out.
    size_t dropped = 0;
  };

  /// Slice `prefix ∧ target` down to the component(s) of `target`.
  /// Constant (variable-free) prefix constraints are conservatively kept
  /// unless trivially true: dropping an unsatisfiable constant would turn
  /// an unsat query sat.
  Result slice(std::span<const ExprRef> prefix, ExprRef target);

 private:
  const std::vector<uint32_t>& vars_of(ExprRef constraint);

  // Per-constraint variable sets memoized by node id (hash-consing makes
  // the id a stable identity for the lifetime of the Context).
  std::vector<std::vector<uint32_t>> var_sets_;
  std::vector<uint8_t> var_sets_ready_;
  NodeMarker traversal_marker_;
  // Union-find over variable ids, rebuilt per slice() call.
  std::vector<uint32_t> parent_;
};

/// Drop every assignment for a variable outside `vars` (sorted ids) —
/// applied to solver models of sliced queries before the next_seed merge.
void restrict_to_vars(Assignment* model, const std::vector<uint32_t>& vars);

}  // namespace binsym::smt
