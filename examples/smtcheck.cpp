// smtcheck: a minimal SMT-LIB v2 solver CLI over the in-tree backends.
//
// Reads one query from stdin in exactly the dialect src/smt/smtlib.cpp
// prints (declare-const / assert / check-sat, plus an optional trailing
// `(get-value (...))`), answers sat/unsat/unknown on stdout and, on sat,
// prints the requested values as `((name (_ bvN w)) ...)`.
//
// Its reason to exist is the pipe solver (src/smt/pipe.cpp): `smtcheck`
// speaks the exact protocol the pipe backend expects, so the external-
// process path can be exercised hermetically — in tests and CI — on
// machines with no z3/cvc5 binary installed. It also
// doubles as a handy command-line checker for queries dumped by
// --smtlib-dump-dir.
//
// Usage: smtcheck [--solver z3|bitblast]   (query on stdin)

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "smt/context.hpp"
#include "smt/eval.hpp"
#include "smt/smtlib.hpp"
#include "smt/solver.hpp"

namespace {

using namespace binsym;

/// Remove every `(get-value ...)` form from `text` (balanced-paren scan),
/// returning the names listed in the last one. parse_query does not accept
/// the command, and the pipe protocol appends it after check-sat.
std::string strip_get_value(const std::string& text,
                            std::vector<std::string>* names) {
  std::string out;
  size_t pos = 0;
  const std::string marker = "(get-value";
  for (;;) {
    const size_t at = text.find(marker, pos);
    if (at == std::string::npos) {
      out += text.substr(pos);
      return out;
    }
    out += text.substr(pos, at - pos);
    size_t end = at;
    int depth = 0;
    while (end < text.size()) {
      if (text[end] == '(') ++depth;
      if (text[end] == ')' && --depth == 0) break;
      ++end;
    }
    names->clear();
    std::istringstream is(
        text.substr(at + marker.size(), end - at - marker.size()));
    std::string word;
    while (is >> word) {
      // Strip list parens glued to the symbols: "(x" / "y)".
      std::string clean;
      for (char c : word)
        if (c != '(' && c != ')') clean += c;
      if (!clean.empty()) names->push_back(clean);
    }
    pos = end < text.size() ? end + 1 : end;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string backend = "z3";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--solver" && i + 1 < argc) {
      backend = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: smtcheck [--solver z3|bitblast] < query.smt2\n";
      return 0;
    } else {
      std::cerr << "smtcheck: unknown argument: " << arg << "\n";
      return 2;
    }
  }
  if (backend != "z3" && backend != "bitblast") {
    std::cerr << "smtcheck: unknown solver: " << backend << "\n";
    return 2;
  }

  std::ostringstream input;
  input << std::cin.rdbuf();
  std::vector<std::string> names;
  const std::string query = strip_get_value(input.str(), &names);

  smt::Context ctx;
  std::vector<smt::ExprRef> assertions;
  std::string error;
  if (!smt::parse_query(ctx, query, &assertions, &error)) {
    std::cout << "(error \"" << error << "\")\nunknown\n";
    return 0;
  }

  std::unique_ptr<smt::Solver> solver = backend == "z3"
                                            ? smt::make_z3_solver(ctx)
                                            : smt::make_bitblast_solver(ctx);
  smt::Assignment model;
  const smt::CheckResult result = solver->check(assertions, &model);
  std::cout << smt::check_result_name(result) << "\n";
  if (result == smt::CheckResult::kSat && !names.empty()) {
    std::cout << "(";
    bool first = true;
    for (const std::string& name : names) {
      smt::ExprRef var = ctx.lookup_var(name);
      if (!var) continue;
      if (!first) std::cout << " ";
      first = false;
      std::cout << "(" << name << " (_ bv" << model.get(var->var_id) << " "
                << static_cast<unsigned>(var->width) << "))";
    }
    std::cout << ")\n";
  }
  return 0;
}
