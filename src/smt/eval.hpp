// Concrete evaluation of expression DAGs under a variable assignment.
//
// Used by (a) model validation — ValidatingSolver checks every sat model
// and the engine checks every persistent-store hit with satisfies() — and
// (b) the tests' differential properties that check the simplifier, the
// bit-blaster and Z3 against it.
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
/// use it. Subterms shared between assertions are evaluated once; the memo
/// keys on node identity, so even two nodes with colliding content hashes
/// are evaluated apart.
bool satisfies(std::span<const ExprRef> assertions, const Assignment& model);

}  // namespace binsym::smt
