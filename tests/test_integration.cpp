// Cross-engine integration tests on the shipped evaluation workloads
// (reduced path budgets keep them fast): the Table I property that every
// correct engine discovers the same execution paths, the workload loader
// plumbing itself, and how the engine drives the solver's scoped API
// (the only solver API it calls, for branch flips and oracle candidates).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "baseline/ir_exec.hpp"
#include "core/engine.hpp"
#include "exploration_util.hpp"
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

// -- The worker's assertion stack. -------------------------------------------

/// A trace's constraints in event order, built independently of the engine:
/// as-taken branches, with assumption k just before branch
/// assumptions[k].branch_index. Every question the engine asks about the
/// trace is a prefix of this list plus a target.
std::vector<smt::ExprRef> event_order(smt::Context& ctx,
                                      const core::PathTrace& trace) {
  std::vector<smt::ExprRef> events;
  size_t k = 0;
  for (size_t b = 0; b < trace.branches.size(); ++b) {
    for (; k < trace.assumptions.size() &&
           trace.assumptions[k].branch_index <= b;
         ++k)
      events.push_back(trace.assumptions[k].expr);
    const core::BranchRecord& branch = trace.branches[b];
    events.push_back(branch.taken ? branch.cond : ctx.not_(branch.cond));
  }
  for (; k < trace.assumptions.size(); ++k)
    events.push_back(trace.assumptions[k].expr);
  return events;
}

/// Forwards to a real backend and counts the solver-API calls since the
/// last reset of `counts`. When `events` is set, every check also records
/// whether the live scoped assertions are, pointer for pointer, a prefix
/// of it.
class CountingSolver final : public smt::ForwardingSolver {
 public:
  struct Counts {
    uint64_t push = 0, pop = 0, asserts = 0, backend_checks = 0;
    uint64_t stateless_checks = 0;
    uint64_t off_prefix_checks = 0;   // scope not a prefix of `events`
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
    const std::span<const smt::ExprRef> scoped = scoped_assertions();
    counts.scoped_at_last_check = scoped.size();
    if (scoped.size() > events.size() ||
        !std::equal(scoped.begin(), scoped.end(), events.begin()))
      ++counts.off_prefix_checks;
    smt::CheckResult result = inner_->check_assuming(assumptions, model);
    stats_ = inner_->stats();
    return result;
  }
  std::string name() const override { return inner_->name(); }

  Counts counts;
  std::vector<smt::ExprRef> events;  // the current trace's, in event order
};

struct AssertionStackCase {
  const char* workload;
  // Model-independent scoped-API totals of the default configuration.
  uint64_t incremental_checks;
  uint64_t reused_assertions;
};
void PrintTo(const AssertionStackCase& c, std::ostream* os) {
  *os << c.workload;
}

class AssertionStack
    : public IntegrationTest,
      public ::testing::WithParamInterface<AssertionStackCase> {};

TEST_P(AssertionStack, SiblingTracesReassertOnlyWhatTheyDoNotShare) {
  // With one worker, the path callback of trace k+1 fires after trace k's
  // flip loop and before trace k+1's, so the solver calls between two
  // callbacks are exactly one trace's.
  const AssertionStackCase& param = GetParam();
  core::Program program = workloads::load_workload(table, param.workload);
  smt::Context ctx;
  core::BinSymExecutor executor(ctx, decoder, registry, program);
  auto owned = std::make_unique<CountingSolver>(smt::make_z3_solver(ctx));
  CountingSolver* solver = owned.get();
  core::DseEngine engine(executor, std::move(owned));

  uint64_t quiet_traces = 0, solving_traces = 0, quiet_violations = 0;
  uint64_t off_prefix_checks = 0, asserts = 0, pushes = 0, pops = 0;
  // What a scope opened per trace would assert: its size at the trace's
  // last backend check, summed over the traces that reach the backend.
  uint64_t per_trace_asserts = 0;
  // The last trace's counts also hold the pops that tear the stack down
  // at the end of the exploration.
  auto close_trace = [&](bool last) {
    const CountingSolver::Counts& c = solver->counts;
    if (c.backend_checks == 0) {
      // Every question answered by the cache (or nothing to ask): the
      // assertion stack is never touched.
      ++quiet_traces;
      if (c.push + (last ? 0 : c.pop) + c.asserts != 0) ++quiet_violations;
    } else {
      ++solving_traces;
      per_trace_asserts += c.scoped_at_last_check;
    }
    off_prefix_checks += c.off_prefix_checks;
    asserts += c.asserts;
    pushes += c.push;
    pops += c.pop;
    solver->counts = {};
  };
  bool counting = false;
  core::EngineStats stats = engine.explore([&](const core::PathResult& path) {
    if (counting) close_trace(false);
    counting = true;
    solver->events = event_order(ctx, path.trace);
  });
  close_trace(true);

  EXPECT_GT(quiet_traces, 0u);
  EXPECT_GT(solving_traces, 0u);
  EXPECT_EQ(quiet_violations, 0u);
  EXPECT_EQ(off_prefix_checks, 0u);
  EXPECT_EQ(pushes, asserts);  // one level per assertion
  EXPECT_EQ(pops, pushes);
  EXPECT_TRUE(solver->scoped_assertions().empty());
  // Sibling traces share their prefix up to the flipped branch, and the
  // stack keeps it asserted from one trace to the next (clif-parser has a
  // single solving trace, so nothing to share).
  EXPECT_LE(asserts, per_trace_asserts);
  if (solving_traces > 1) {
    EXPECT_LT(asserts, per_trace_asserts);
  }
  EXPECT_EQ(stats.solver.incremental_checks, param.incremental_checks);
  EXPECT_EQ(stats.solver.reused_assertions, param.reused_assertions);
}

INSTANTIATE_TEST_SUITE_P(
    Table1, AssertionStack,
    ::testing::Values(AssertionStackCase{"base64-encode", 638, 6941},
                      AssertionStackCase{"bubble-sort", 2172, 24599},
                      AssertionStackCase{"clif-parser", 31, 465},
                      AssertionStackCase{"insertion-sort", 5039, 65054},
                      AssertionStackCase{"uri-parser", 84, 2007}));

TEST_F(IntegrationTest, BitblastChecksPropagateAFewHundredLiteralsEach) {
  // insertion-sort's questions are byte comparisons, which blast to one
  // majority gate per bit, so its whole instance holds a few hundred
  // variables and a check cannot propagate more. A comparator that grows
  // back a full adder per bit more than doubles it.
  core::Program program = workloads::load_workload(table, "insertion-sort");
  smt::Context ctx;
  core::BinSymExecutor executor(ctx, decoder, registry, program);
  core::DseEngine engine(executor, smt::make_bitblast_solver(ctx));
  const core::EngineStats stats = engine.explore();
  EXPECT_EQ(stats.paths, 5040u);
  ASSERT_GT(stats.solver.incremental_checks, 0u);
  EXPECT_GT(stats.solver.sat_propagations, 0u);
  EXPECT_LE(stats.solver.sat_propagations,
            300 * stats.solver.incremental_checks);
}

TEST_F(IntegrationTest, AssertionStackIsEmptyAfterEveryExploration) {
  // The worker keeps its stack across traces, so the end of an exploration
  // must pop it: the second run of the same engine then starts clean. A
  // level left behind would sit under every later question, and the
  // second run would lose paths to wrong unsat verdicts.
  core::Program program = workloads::load_workload(table, "bubble-sort");
  smt::Context ctx;
  core::BinSymExecutor executor(ctx, decoder, registry, program);
  auto explore_keys = [](core::DseEngine& engine) {
    std::set<std::string> keys;
    engine.explore([&](const core::PathResult& path) {
      keys.insert(test::path_key(path.trace));
    });
    return keys;
  };
  auto owned = std::make_unique<CountingSolver>(smt::make_z3_solver(ctx));
  CountingSolver* solver = owned.get();
  core::DseEngine engine(executor, std::move(owned));
  const std::set<std::string> first = explore_keys(engine);
  EXPECT_EQ(first.size(), 720u);
  EXPECT_GT(solver->counts.push, 0u);
  EXPECT_EQ(solver->counts.pop, solver->counts.push);
  EXPECT_TRUE(solver->scoped_assertions().empty());
  EXPECT_EQ(explore_keys(engine), first);
  EXPECT_EQ(solver->counts.pop, solver->counts.push);
  EXPECT_TRUE(solver->scoped_assertions().empty());

  // A capped run stops with the last trace's prefix still asserted.
  core::EngineOptions options;
  options.max_paths = 100;
  auto capped_owned =
      std::make_unique<CountingSolver>(smt::make_z3_solver(ctx));
  CountingSolver* capped_solver = capped_owned.get();
  core::DseEngine capped(executor, std::move(capped_owned), options);
  EXPECT_EQ(explore_keys(capped).size(), 100u);
  EXPECT_GT(capped_solver->counts.push, 0u);
  EXPECT_EQ(capped_solver->counts.pop, capped_solver->counts.push);
  EXPECT_TRUE(capped_solver->scoped_assertions().empty());
}

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
