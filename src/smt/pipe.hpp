// SMT-LIB pipe backend: any external solver as a drop-in smt::Solver.
//
// Each check spawns the configured command, writes the query as the SMT-LIB
// text src/smt/smtlib.cpp prints (plus a trailing `(get-value ...)` over the
// query's free variables when a model is requested), and parses the verdict
// and model back from the child's stdout. The per-query deadline kills the
// child — like every backend, a timed-out check returns kUnknown, never a
// wrong verdict. A command that cannot be spawned (missing binary) degrades
// every check to kUnknown instead of failing, and a child that dies
// mid-query merely ends the exchange (SIGPIPE is blocked around the pipe
// I/O, so a widowed write surfaces as EPIPE, never a fatal signal) — a
// misconfigured or crashing solver only makes its queries unknown, which
// failover then hands to the secondary backend.
//
// The in-tree `smtcheck` CLI (examples/smtcheck.cpp) speaks exactly this
// protocol over the in-tree backends, so the pipe can be exercised — in
// tests and CI — without any external solver installed; a real
// `z3`/`cvc5`/`boolector` binary drops in via the same one-line command.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "smt/context.hpp"
#include "smt/solver.hpp"

namespace binsym::smt {

/// Split a solver command line into argv words (whitespace-separated; no
/// shell quoting — solver invocations are simple). Exposed for tests.
std::vector<std::string> split_command(const std::string& command);

/// Construct the pipe backend over `ctx`. `command` is the child command
/// line, resolved through PATH; it must read SMT-LIB from stdin and answer
/// on stdout (e.g. "z3 -in", "cvc5 --lang smt2", "build/smtcheck").
std::unique_ptr<Solver> make_pipe_solver(Context& ctx,
                                         const std::string& command);

}  // namespace binsym::smt
