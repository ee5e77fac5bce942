// SMT-LIB v2.6 text emission.
//
// Produces the kind of query shown in Fig. 2 (step 3) of the paper:
// declarations for every free variable, one `assert` per path constraint and
// a final `check-sat`. Shared sub-DAGs are emitted once through `let`
// bindings so the printed query size reflects the DAG size, not the tree
// size. Used for the findings' query files, debugging and golden tests;
// tests hand the output to Z3's own parser as the independent reader.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "smt/context.hpp"
#include "smt/expr.hpp"

namespace binsym::smt {

/// Render a single expression (with let-bindings for shared nodes).
std::string to_smtlib(const Context& ctx, ExprRef root);

/// Render a complete query: declarations, assertions, (check-sat).
void print_query(std::ostream& os, const Context& ctx,
                 const std::vector<ExprRef>& assertions,
                 bool with_check_sat = true);

std::string query_string(const Context& ctx,
                         const std::vector<ExprRef>& assertions,
                         bool with_check_sat = true);

}  // namespace binsym::smt
