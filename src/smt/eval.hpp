// Concrete evaluation of expression DAGs under a variable assignment.
//
// Used by (a) the concolic interpreter to keep concrete shadows of symbolic
// values, (b) model validation in tests ("is the model returned by the
// solver actually a solution?") and (c) the differential properties that
// check the simplifier and the bit-blaster against Z3.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>

#include "smt/expr.hpp"

namespace binsym::smt {

/// Variable assignment: var_id -> canonical value. Unassigned variables
/// evaluate to zero (model completion), like Z3's `model_completion=true`.
struct Assignment {
  std::unordered_map<uint32_t, uint64_t> values;

  uint64_t get(uint32_t var_id) const {
    auto it = values.find(var_id);
    return it == values.end() ? 0 : it->second;
  }
  void set(uint32_t var_id, uint64_t value) { values[var_id] = value; }
};

/// Evaluate `root` under `assignment`; the result is canonical for
/// `root->width`. The evaluation semantics are exactly SMT-LIB's (saturating
/// shifts, total division).
uint64_t evaluate(ExprRef root, const Assignment& assignment);

/// True when every (width-1) assertion evaluates to 1 under `model` — the
/// one model check: solver-model validation and persistent-store hits both
/// use it. Subterms shared between assertions are evaluated once.
bool satisfies(std::span<const ExprRef> assertions, const Assignment& model);

/// Evaluator with a persistent memo table, for callers that evaluate many
/// roots over one fixed assignment (e.g. a whole path condition). The memo
/// keys on the arena's structural content hash, so structural clones from a
/// non-interning context share entries; distinct structures never alias
/// (equal hashes imply equal structure, pinned by test_smt_property.cpp).
class CachingEvaluator {
 public:
  explicit CachingEvaluator(const Assignment& assignment)
      : assignment_(assignment) {}

  uint64_t evaluate(ExprRef root);

 private:
  const Assignment& assignment_;
  std::unordered_map<uint64_t, uint64_t> memo_;
};

}  // namespace binsym::smt
