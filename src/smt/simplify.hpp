// Structural simplification pass.
//
// Context builders already perform local peephole folding at construction
// time; this pass re-runs them bottom-up over an existing DAG and adds a few
// non-local rewrites (constant propagation through compare-of-add chains,
// ite condition sinking). It is idempotent and semantics-preserving, which
// the property tests check by evaluating random DAGs under random
// assignments before and after simplification.
#pragma once

#include "smt/context.hpp"
#include "smt/expr.hpp"

namespace binsym::smt {

/// Rebuild `root` bottom-up through `ctx`'s folding builders and extra rules.
ExprRef simplify(Context& ctx, ExprRef root);

/// Simplify with a caller-provided memo table so that repeated calls over
/// overlapping DAGs (e.g. a whole path condition) share work. The memo keys
/// on the dense arena id (source node -> simplified node within `ctx`).
ExprRef simplify(Context& ctx, ExprRef root,
                 std::unordered_map<uint32_t, ExprRef>& memo);

}  // namespace binsym::smt
