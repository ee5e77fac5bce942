// Cross-engine integration tests on the shipped evaluation workloads
// (reduced path budgets keep them fast): the Table I property that every
// correct engine discovers the same execution paths, the workload loader
// plumbing itself, and how the engine drives the solver's scoped API
// (the only solver API it calls, for branch flips and oracle candidates).
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "baseline/ir_exec.hpp"
#include "core/engine.hpp"
#include "isa/decoder.hpp"
#include "oracles/manager.hpp"
#include "smt/solver.hpp"
#include "spec/registry.hpp"
#include "vp/vp_executor.hpp"
#include "workloads/workloads.hpp"

namespace binsym {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  IntegrationTest() { spec::install_rv32im(registry, table); }

  uint64_t explore_paths(core::Executor& executor, smt::Context& ctx,
                         uint64_t max_paths) {
    core::EngineOptions options;
    options.max_paths = max_paths;
    core::DseEngine engine(executor, smt::make_z3_solver(ctx), options);
    return engine.explore().paths;
  }

  isa::OpcodeTable table;
  isa::Decoder decoder{table};
  spec::Registry registry;
};

class WorkloadAgreement
    : public IntegrationTest,
      public ::testing::WithParamInterface<const char*> {};

TEST_P(WorkloadAgreement, AllCorrectEnginesAgree) {
  constexpr uint64_t kBudget = 120;
  core::Program program = workloads::load_workload(table, GetParam());
  baseline::Lifter correct_lifter(baseline::LifterBugs::none());

  smt::Context c1, c2, c3, c4;
  core::BinSymExecutor binsym_exec(c1, decoder, registry, program);
  vp::VpExecutor vp_exec(c2, decoder, registry, program);
  baseline::IrExecutor ir_exec(c3, decoder, correct_lifter, program);
  baseline::BoxedIrExecutor boxed_exec(c4, decoder, correct_lifter, program);

  uint64_t binsym_paths = explore_paths(binsym_exec, c1, kBudget);
  EXPECT_GT(binsym_paths, 1u);
  EXPECT_EQ(explore_paths(vp_exec, c2, kBudget), binsym_paths);
  EXPECT_EQ(explore_paths(ir_exec, c3, kBudget), binsym_paths);
  EXPECT_EQ(explore_paths(boxed_exec, c4, kBudget), binsym_paths);
}

INSTANTIATE_TEST_SUITE_P(Table1, WorkloadAgreement,
                         ::testing::Values("base64-encode", "bubble-sort",
                                           "clif-parser", "insertion-sort",
                                           "uri-parser"));

TEST_F(IntegrationTest, BubbleSortExactFactorial) {
  // 6 elements -> 6! = 720 paths, the paper's exact Table I value.
  core::Program program = workloads::load_workload(table, "bubble-sort");
  smt::Context ctx;
  core::BinSymExecutor executor(ctx, decoder, registry, program);
  EXPECT_EQ(explore_paths(executor, ctx, UINT64_MAX), 720u);
}

TEST_F(IntegrationTest, BubbleSortActuallySorts) {
  // Every path's final buffer must be sorted (checked via the concrete
  // shadow on a few explored paths).
  core::Program program = workloads::load_workload(table, "bubble-sort");
  smt::Context ctx;
  core::BinSymExecutor executor(ctx, decoder, registry, program);
  core::EngineOptions options;
  options.max_paths = 50;
  core::DseEngine engine(executor, smt::make_z3_solver(ctx), options);
  uint64_t checked = 0;
  engine.explore([&](const core::PathResult& path) {
    ASSERT_EQ(path.trace.exit, core::ExitReason::kExit);
    EXPECT_EQ(path.trace.input_vars.size(), 6u);
    ++checked;
  });
  EXPECT_EQ(checked, 50u);
}

TEST_F(IntegrationTest, BuggyLifterMissesPathsOnBase64) {
  // The Table I headline: the buggy angr-like engine misses most
  // base64-encode paths (load-extension bug).
  core::Program program = workloads::load_workload(table, "base64-encode");
  baseline::Lifter buggy(baseline::LifterBugs::all());
  baseline::Lifter fixed(baseline::LifterBugs::none());
  smt::Context c1, c2;
  baseline::BoxedIrExecutor buggy_exec(c1, decoder, buggy, program);
  baseline::BoxedIrExecutor fixed_exec(c2, decoder, fixed, program);
  uint64_t buggy_paths = explore_paths(buggy_exec, c1, 4000);
  uint64_t fixed_paths = explore_paths(fixed_exec, c2, 4000);
  EXPECT_LT(buggy_paths, fixed_paths);
}

TEST_F(IntegrationTest, WorkloadMetadataIsConsistent) {
  auto list = workloads::table1_workloads();
  ASSERT_EQ(list.size(), 5u);
  for (const auto& info : list) {
    EXPECT_FALSE(info.name.empty());
    EXPECT_GT(info.input_bytes, 0u);
    EXPECT_GT(info.paper_paths, 0u);
    // Loading must succeed for every listed workload.
    core::Program program = workloads::load_workload(table, info.name);
    EXPECT_TRUE(program.image.mapped(program.entry));
  }
}

TEST_F(IntegrationTest, WorkloadOutputsAreWellFormedBase64) {
  core::Program program = workloads::load_workload(table, "base64-encode");
  smt::Context ctx;
  core::BinSymExecutor executor(ctx, decoder, registry, program);
  core::EngineOptions options;
  options.max_paths = 30;
  core::DseEngine engine(executor, smt::make_z3_solver(ctx), options);
  engine.explore([&](const core::PathResult& path) {
    ASSERT_EQ(path.trace.output.size(), 8u) << "4 bytes -> 8 base64 chars";
    EXPECT_EQ(path.trace.output.substr(6), "==");
    for (char c : path.trace.output.substr(0, 6)) {
      bool valid = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                   (c >= '0' && c <= '9') || c == '+' || c == '/';
      EXPECT_TRUE(valid) << "bad base64 char " << c;
    }
  });
}

// -- The lazily opened flip scope. -------------------------------------------

/// Forwards to a real backend and counts the solver-API calls since the
/// last reset of `counts`.
class CountingSolver final : public smt::ForwardingSolver {
 public:
  struct Counts {
    uint64_t push = 0, pop = 0, asserts = 0, backend_checks = 0;
    uint64_t stateless_checks = 0;
    size_t scoped_at_last_check = 0;  // live scoped assertions then
  };

  using ForwardingSolver::ForwardingSolver;

  void push() override {
    ++counts.push;
    ForwardingSolver::push();
  }
  void pop() override {
    ++counts.pop;
    ForwardingSolver::pop();
  }
  void assert_(smt::ExprRef assertion) override {
    ++counts.asserts;
    ForwardingSolver::assert_(assertion);
  }
  smt::CheckResult check(std::span<const smt::ExprRef> assertions,
                         smt::Assignment* model) override {
    ++counts.stateless_checks;
    smt::CheckResult result = inner_->check(assertions, model);
    stats_ = inner_->stats();
    return result;
  }
  smt::CheckResult check_assuming(std::span<const smt::ExprRef> assumptions,
                                  smt::Assignment* model) override {
    ++counts.backend_checks;
    counts.scoped_at_last_check = scoped_assertions().size();
    smt::CheckResult result = inner_->check_assuming(assumptions, model);
    stats_ = inner_->stats();
    return result;
  }
  std::string name() const override { return inner_->name(); }

  Counts counts;
};

struct LazyScopeCase {
  const char* workload;
  // Model-independent scoped-API totals of the default configuration.
  uint64_t incremental_checks;
  uint64_t reused_assertions;
};
void PrintTo(const LazyScopeCase& c, std::ostream* os) { *os << c.workload; }

class LazyScope : public IntegrationTest,
                  public ::testing::WithParamInterface<LazyScopeCase> {};

TEST_P(LazyScope, SolverScopeOpensOnlyForFlipsThatReachTheBackend) {
  // With one worker, the path callback of trace k+1 fires after trace k's
  // flip loop and before trace k+1's, so the solver calls between two
  // callbacks are exactly one trace's.
  const LazyScopeCase& param = GetParam();
  core::Program program = workloads::load_workload(table, param.workload);
  smt::Context ctx;
  core::BinSymExecutor executor(ctx, decoder, registry, program);
  auto owned = std::make_unique<CountingSolver>(smt::make_z3_solver(ctx));
  CountingSolver* solver = owned.get();
  core::DseEngine engine(executor, std::move(owned));

  uint64_t prefix_len = 0;  // branches + assumptions of the counted trace
  uint64_t quiet_traces = 0, solving_traces = 0;
  uint64_t quiet_violations = 0, scope_violations = 0, reasserted = 0;
  bool counting = false;
  auto close_trace = [&] {
    const CountingSolver::Counts& c = solver->counts;
    if (c.backend_checks == 0) {
      // Every flip answered by the cache (or nothing to flip): the
      // assertion stack is never touched.
      ++quiet_traces;
      if (c.push + c.pop + c.asserts != 0) ++quiet_violations;
    } else {
      ++solving_traces;
      if (c.push != 1 || c.pop != 1) ++scope_violations;
      // The scope lives for the whole trace, so an assertion count equal
      // to the scope size at the last check means none was repeated.
      if (c.asserts != c.scoped_at_last_check || c.asserts > prefix_len)
        ++reasserted;
    }
    solver->counts = {};
  };
  core::EngineStats stats = engine.explore([&](const core::PathResult& path) {
    if (counting) close_trace();
    counting = true;
    prefix_len = path.trace.branches.size() + path.trace.assumptions.size();
  });
  close_trace();

  EXPECT_GT(quiet_traces, 0u);
  EXPECT_GT(solving_traces, 0u);
  EXPECT_EQ(quiet_violations, 0u);
  EXPECT_EQ(scope_violations, 0u);
  EXPECT_EQ(reasserted, 0u);
  EXPECT_EQ(stats.solver.incremental_checks, param.incremental_checks);
  EXPECT_EQ(stats.solver.reused_assertions, param.reused_assertions);
}

INSTANTIATE_TEST_SUITE_P(
    Table1, LazyScope,
    ::testing::Values(LazyScopeCase{"base64-encode", 638, 6941},
                      LazyScopeCase{"bubble-sort", 2172, 24599},
                      LazyScopeCase{"clif-parser", 31, 465},
                      LazyScopeCase{"insertion-sort", 5039, 65054},
                      LazyScopeCase{"uri-parser", 84, 2007}));

TEST_F(IntegrationTest, OracleCandidatesUseOnlyTheScopedApi) {
  // Every candidate reaches the answer path (no static pruning), and the
  // detection campaign still finds each buggy-* program's known bug set.
  using Bug = std::pair<core::OracleKind, uint32_t>;  // (oracle, call depth)
  using core::OracleKind;
  const std::vector<std::pair<const char*, std::multiset<Bug>>> corpus = {
      {"buggy-uri-parser",
       {{OracleKind::kOobLoad, 1}, {OracleKind::kOobStore, 1}}},
      {"buggy-div", {{OracleKind::kDivByZero, 1}}},
      {"buggy-overflow", {{OracleKind::kOverflow, 1}}},
      {"buggy-jump-table", {{OracleKind::kBadJump, 1}}},
      {"buggy-unaligned", {{OracleKind::kUnaligned, 1}}},
      {"buggy-stack-smash", {{OracleKind::kStackSmash, 1}}},
      {"buggy-assert",
       {{OracleKind::kAssertFail, 2}, {OracleKind::kReach, 2}}},
  };
  for (const auto& [name, bugs] : corpus) {
    SCOPED_TRACE(name);
    core::Program program = workloads::load_workload(table, name);
    smt::Context ctx;
    core::BinSymExecutor executor(ctx, decoder, registry, program);
    std::string error;
    auto manager = oracles::OracleManager::make(
        ctx,
        oracles::MemoryMap::for_program(program,
                                        core::MachineConfig{}.stack_top),
        "all", &error);
    ASSERT_TRUE(manager) << error;
    executor.set_observer(manager.get());
    auto owned = std::make_unique<CountingSolver>(smt::make_z3_solver(ctx));
    CountingSolver* solver = owned.get();
    core::DseEngine engine(executor, std::move(owned));
    core::EngineStats stats = engine.explore();

    EXPECT_EQ(solver->counts.stateless_checks, 0u);
    EXPECT_GT(stats.candidates_checked, 0u);
    std::multiset<Bug> found;
    for (const core::Finding& f : engine.findings())
      found.insert({f.oracle, f.call_depth});
    EXPECT_EQ(found, bugs);
  }
}

}  // namespace
}  // namespace binsym
