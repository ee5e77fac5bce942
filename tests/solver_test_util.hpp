// Shared scripted solver backend for the solver-stack tests.
//
// StubSolver stands in for a backend with a known, controllable failure: an
// always-unknown backend (deadline stand-in) or a crashing one. Used by the
// failover tests (test_solver.cpp).
#pragma once

#include <stdexcept>
#include <string>

#include "smt/solver.hpp"

namespace binsym::smt {

class StubSolver final : public Solver {
 public:
  enum class Mode { kUnknown, kThrow };

  explicit StubSolver(Mode mode) : mode_(mode) {}

  CheckResult check(std::span<const ExprRef>, Assignment*) override {
    ++stats_.queries;
    if (mode_ == Mode::kThrow) throw std::runtime_error("stub backend crash");
    ++stats_.unknown;
    return CheckResult::kUnknown;
  }

  std::string name() const override { return "stub"; }

 private:
  Mode mode_;
};

}  // namespace binsym::smt
