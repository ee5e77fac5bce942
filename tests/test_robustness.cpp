// Hardened-exploration tests: the deterministic fault-injection plan
// (support::FaultPlan), crash-isolated workers (requeue/poison accounting),
// engine resource budgets (wall-clock deadline, RSS ceiling), solver-unknown
// degradation, and backend failover — plus the core invariant that none of
// the hardening changes the explored path set when no fault actually fires.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "asm/assembler.hpp"
#include "core/engine.hpp"
#include "core/search.hpp"
#include "elf/elf32.hpp"
#include "isa/decoder.hpp"
#include "smt/solver.hpp"
#include "spec/registry.hpp"
#include "support/fault.hpp"

namespace binsym::core {
namespace {

using support::FaultPlan;
using support::FaultSite;

// -- FaultPlan grammar and firing semantics. ---------------------------------

TEST(FaultPlanParse, SingleShotClause) {
  std::string error;
  auto plan = FaultPlan::parse("solver@3", &error);
  ASSERT_TRUE(plan) << error;
  EXPECT_FALSE(plan->fire(FaultSite::kSolverUnknown));  // occurrence 1
  EXPECT_FALSE(plan->fire(FaultSite::kSolverUnknown));  // occurrence 2
  EXPECT_TRUE(plan->fire(FaultSite::kSolverUnknown));   // occurrence 3
  EXPECT_FALSE(plan->fire(FaultSite::kSolverUnknown));  // single-shot
  EXPECT_EQ(plan->occurrences(FaultSite::kSolverUnknown), 4u);
  EXPECT_EQ(plan->fired(FaultSite::kSolverUnknown), 1u);
  // Other sites are untouched by the clause.
  EXPECT_FALSE(plan->fire(FaultSite::kAlloc));
  EXPECT_EQ(plan->fired(FaultSite::kAlloc), 0u);
}

TEST(FaultPlanParse, OpenEndedClause) {
  auto plan = FaultPlan::parse("alloc@2+");
  ASSERT_TRUE(plan);
  EXPECT_FALSE(plan->fire(FaultSite::kAlloc));
  EXPECT_TRUE(plan->fire(FaultSite::kAlloc));
  EXPECT_TRUE(plan->fire(FaultSite::kAlloc));
  EXPECT_TRUE(plan->fire(FaultSite::kAlloc));
  EXPECT_EQ(plan->fired(FaultSite::kAlloc), 3u);
}

TEST(FaultPlanParse, PeriodicClause) {
  auto plan = FaultPlan::parse("alloc@2:3");
  ASSERT_TRUE(plan);
  std::vector<bool> hits;
  for (int i = 0; i < 9; ++i) hits.push_back(plan->fire(FaultSite::kAlloc));
  // Fires at occurrences 2, 5, 8.
  EXPECT_EQ(hits, (std::vector<bool>{false, true, false, false, true, false,
                                     false, true, false}));
}

TEST(FaultPlanParse, CommaListCombinesClauses) {
  std::string error;
  auto plan = FaultPlan::parse("solver@1,solver-throw@2,alloc@1+", &error);
  ASSERT_TRUE(plan) << error;
  EXPECT_TRUE(plan->fire(FaultSite::kSolverUnknown));
  EXPECT_FALSE(plan->fire(FaultSite::kSolverThrow));
  EXPECT_TRUE(plan->fire(FaultSite::kSolverThrow));
  EXPECT_TRUE(plan->fire(FaultSite::kAlloc));
}

TEST(FaultPlanParse, EmptySpecNeverFires) {
  auto plan = FaultPlan::parse("");
  ASSERT_TRUE(plan);
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(plan->fire(FaultSite::kSolverUnknown));
    EXPECT_FALSE(plan->fire(FaultSite::kAlloc));
  }
}

TEST(FaultPlanParse, DiagnosesMalformedSpecs) {
  struct Case {
    const char* spec;
    const char* needle;
  };
  const Case cases[] = {
      {"solver", "no '@'"},
      {"warp-core@1", "unknown fault site"},
      {"solver@0", "positive 1-based occurrence index"},
      {"solver@x", "positive 1-based occurrence index"},
      {"solver@2:0", "positive period"},
      {"solver@2:x", "positive period"},
      {"solver@2junk", "trailing garbage"},
      {"solver@1,,alloc@1", "no '@'"},  // empty clause inside a list
  };
  for (const Case& c : cases) {
    std::string error;
    EXPECT_FALSE(FaultPlan::parse(c.spec, &error)) << c.spec;
    EXPECT_NE(error.find(c.needle), std::string::npos)
        << c.spec << " -> " << error;
  }
}

// -- Engine-level harness. ---------------------------------------------------

class RobustnessTest : public ::testing::Test {
 protected:
  RobustnessTest() { spec::install_rv32im(registry, table); }

  Program load(const std::string& source) {
    return elf::to_program(rvasm::assemble_or_die(table, source).image);
  }

  /// Per-worker resources over `program`; each worker gets its own context,
  /// executor and raw z3 backend (the engine layers cache/fault wrappers).
  WorkerFactory factory_for(const Program& program) {
    return [this, &program](unsigned) {
      WorkerResources r;
      r.ctx = std::make_unique<smt::Context>();
      r.executor = std::make_unique<BinSymExecutor>(*r.ctx, decoder, registry,
                                                    program);
      r.solver = smt::make_z3_solver(*r.ctx);
      return r;
    };
  }

  /// Explore and collect the set of taken/not-taken path keys plus stats.
  std::set<std::string> explore(DseEngine& engine, EngineStats* stats_out) {
    std::set<std::string> keys;
    EngineStats stats = engine.explore([&](const PathResult& path) {
      std::string key;
      for (const BranchRecord& b : path.trace.branches)
        key += b.taken ? '1' : '0';
      keys.insert(key);
    });
    if (stats_out) *stats_out = stats;
    return keys;
  }

  isa::OpcodeTable table;
  isa::Decoder decoder{table};
  spec::Registry registry;
};

// Two data-dependent branch sites over two symbolic input bytes: small,
// fully explorable, deterministic path set (the fault-free baseline).
constexpr const char* kTwoBranchGuest = R"(
_start:
    la a0, buf
    li a1, 2
    li a7, 2
    ecall
    la t0, buf
    lbu t1, 0(t0)
    lbu t2, 1(t0)
    li t3, 50
    bltu t1, t3, half
    nop
half:
    bltu t1, t2, done
done:
    li a0, 0
    li a7, 93
    ecall
.data
buf: .space 2
)";

/// A guest with one independent branch per symbolic input byte: 2^n paths,
/// wide enough that a one-second wall-clock deadline fires mid-run.
std::string wide_guest(unsigned bytes) {
  std::string src = R"(
_start:
    la a0, buf
    li a1, )" + std::to_string(bytes) + R"(
    li a7, 2
    ecall
    la t0, buf
    li t3, 50
)";
  for (unsigned i = 0; i < bytes; ++i) {
    src += "    lbu t1, " + std::to_string(i) + "(t0)\n";
    src += "    bltu t1, t3, skip" + std::to_string(i) + "\n";
    src += "    nop\nskip" + std::to_string(i) + ":\n";
  }
  src += R"(
    li a0, 0
    li a7, 93
    ecall
.data
buf: .space )" + std::to_string(bytes) + "\n";
  return src;
}

TEST_F(RobustnessTest, UnknownFlipsAreSkippedNotTreatedAsUnsat) {
  // Every solver query returns kUnknown: the engine must degrade to the
  // seed path alone — counting skips, never misclassifying as infeasible.
  Program program = load(kTwoBranchGuest);
  smt::Context ctx;
  BinSymExecutor executor(ctx, decoder, registry, program);
  EngineOptions options;
  options.fault_plan = FaultPlan::parse("solver@1+");
  ASSERT_TRUE(options.fault_plan);
  DseEngine engine(executor, smt::make_z3_solver(ctx), options);

  EngineStats stats;
  std::set<std::string> paths = explore(engine, &stats);
  EXPECT_EQ(paths.size(), 1u);  // only the all-zero seed path
  EXPECT_EQ(stats.feasible_flips, 0u);
  EXPECT_EQ(stats.infeasible_flips, 0u);  // unknown is NOT unsat
  EXPECT_GT(stats.flip_attempts, 0u);
  EXPECT_EQ(stats.flips_skipped_unknown, stats.flip_attempts);
  EXPECT_GT(stats.queries_unknown, 0u);
  // Giving up on queries degrades coverage but is not a worker failure.
  EXPECT_FALSE(stats.incomplete) << stats.incomplete_reason;
  EXPECT_EQ(stats.worker_errors, 0u);
  // Unknown verdicts must never poison the query cache.
  EXPECT_EQ(stats.solver.cache_hits, 0u);
}

TEST_F(RobustnessTest, FaultMatrixNeverCrashesAndNeverInventsPaths) {
  // Sweep every fault site across search strategies and worker counts: each
  // run must terminate normally, and any paths it does report must be real
  // ones (a subset of the fault-free set) — faults degrade, never corrupt.
  Program program = load(kTwoBranchGuest);

  std::set<std::string> baseline;
  {
    EngineOptions options;
    DseEngine engine(factory_for(program), options);
    baseline = explore(engine, nullptr);
  }
  ASSERT_GE(baseline.size(), 3u);

  const char* specs[] = {"solver@2",       "solver@1+",      "solver@2:2",
                         "solver-throw@1", "solver-throw@1+", "alloc@1"};
  const SearchKind searches[] = {SearchKind::kDepthFirst,
                                 SearchKind::kCoverageGuided};
  for (const char* spec : specs) {
    for (SearchKind search : searches) {
      for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE(std::string(spec) + " search=" +
                     std::to_string(static_cast<int>(search)) +
                     " jobs=" + std::to_string(jobs));
        EngineOptions options;
        options.search = search;
        options.jobs = jobs;
        options.fault_plan = FaultPlan::parse(spec);
        ASSERT_TRUE(options.fault_plan);
        DseEngine engine(factory_for(program), options);
        EngineStats stats;
        std::set<std::string> paths = explore(engine, &stats);
        for (const std::string& key : paths)
          EXPECT_TRUE(baseline.count(key)) << "invented path " << key;
        // Every isolated job error was either retried or poisoned.
        EXPECT_EQ(stats.worker_errors,
                  stats.jobs_requeued + stats.jobs_poisoned);
        // Errors must be surfaced, not silently swallowed.
        if (stats.worker_errors > 0) {
          EXPECT_TRUE(stats.incomplete);
        }
      }
    }
  }
}

TEST_F(RobustnessTest, CrashedJobIsRequeuedOnceAndRetrySucceeds) {
  // A single injected backend crash: the job is retried, the retry runs
  // clean (the fault is single-shot), and the full path set still comes out.
  Program program = load(kTwoBranchGuest);

  std::set<std::string> baseline;
  {
    EngineOptions options;
    DseEngine engine(factory_for(program), options);
    baseline = explore(engine, nullptr);
  }

  EngineOptions options;
  options.fault_plan = FaultPlan::parse("solver-throw@1");
  ASSERT_TRUE(options.fault_plan);
  DseEngine engine(factory_for(program), options);
  EngineStats stats;
  std::set<std::string> paths = explore(engine, &stats);

  EXPECT_EQ(paths, baseline);  // nothing lost: the retry re-covered the job
  EXPECT_EQ(stats.worker_errors, 1u);
  EXPECT_EQ(stats.jobs_requeued, 1u);
  EXPECT_EQ(stats.jobs_poisoned, 0u);
  // The error is still reported: the run is flagged, not silently patched.
  EXPECT_TRUE(stats.incomplete);
  EXPECT_NE(stats.incomplete_reason.find("worker error"), std::string::npos)
      << stats.incomplete_reason;
  EXPECT_NE(stats.incomplete_reason.find("injected solver backend failure"),
            std::string::npos)
      << stats.incomplete_reason;
}

TEST_F(RobustnessTest, PersistentlyCrashingJobIsPoisonedAfterRetryBudget) {
  // Every solver call throws: the root job errors, its one retry errors
  // again, and the job is poisoned instead of looping forever.
  Program program = load(kTwoBranchGuest);
  EngineOptions options;
  options.fault_plan = FaultPlan::parse("solver-throw@1+");
  ASSERT_TRUE(options.fault_plan);
  DseEngine engine(factory_for(program), options);
  EngineStats stats;
  std::set<std::string> paths = explore(engine, &stats);

  // The concrete seed run needs no solver, so the path itself is reported
  // (twice over the retry — the same key, hence one set entry).
  EXPECT_EQ(paths.size(), 1u);
  EXPECT_EQ(stats.worker_errors, 2u);
  EXPECT_EQ(stats.jobs_requeued, 1u);
  EXPECT_EQ(stats.jobs_poisoned, 1u);
  EXPECT_TRUE(stats.incomplete);
}

TEST_F(RobustnessTest, MemoryBudgetStopsExplorationUpFront) {
  // A 1 MiB RSS ceiling is below any real process footprint: the budget
  // check must stop the run before the first job and say why.
  Program program = load(kTwoBranchGuest);
  smt::Context ctx;
  BinSymExecutor executor(ctx, decoder, registry, program);
  EngineOptions options;
  options.memory_budget_mb = 1;
  DseEngine engine(executor, smt::make_z3_solver(ctx), options);
  EngineStats stats;
  std::set<std::string> paths = explore(engine, &stats);

  EXPECT_TRUE(paths.empty());
  EXPECT_EQ(stats.paths, 0u);
  EXPECT_TRUE(stats.incomplete);
  EXPECT_NE(stats.incomplete_reason.find("memory budget"), std::string::npos)
      << stats.incomplete_reason;
}

TEST_F(RobustnessTest, WallClockDeadlineYieldsPartialReport) {
  // 2^20 paths cannot be enumerated in one second; the deadline must cut
  // the run short with a partial (but non-empty) report marked incomplete.
  Program program = load(wide_guest(20));
  smt::Context ctx;
  BinSymExecutor executor(ctx, decoder, registry, program);
  EngineOptions options;
  options.deadline_secs = 1;
  DseEngine engine(executor, smt::make_z3_solver(ctx), options);
  EngineStats stats;
  std::set<std::string> paths = explore(engine, &stats);

  EXPECT_GE(paths.size(), 1u);
  EXPECT_LT(paths.size(), 1u << 20);
  EXPECT_TRUE(stats.incomplete);
  EXPECT_NE(stats.incomplete_reason.find("deadline"), std::string::npos)
      << stats.incomplete_reason;
}

TEST_F(RobustnessTest, FailoverRescuesEveryUnknownSoNoPathIsLost) {
  // Primary backend gives up on every other query; the failover wrapper
  // retries each on the secondary, so the engine never sees an unknown and
  // the explored path set matches the fault-free baseline exactly.
  Program program = load(kTwoBranchGuest);

  std::set<std::string> baseline;
  {
    smt::Context ctx;
    BinSymExecutor executor(ctx, decoder, registry, program);
    DseEngine engine(executor, smt::make_z3_solver(ctx));
    baseline = explore(engine, nullptr);
  }

  smt::Context ctx;
  BinSymExecutor executor(ctx, decoder, registry, program);
  auto plan = FaultPlan::parse("solver@1:2");  // every odd query -> unknown
  ASSERT_TRUE(plan);
  auto flaky_primary = std::make_unique<smt::FaultInjectingSolver>(
      smt::make_z3_solver(ctx), plan);
  auto solver = std::make_unique<smt::FailoverSolver>(
      std::move(flaky_primary), [&ctx] { return smt::make_z3_solver(ctx); });
  DseEngine engine(executor, std::move(solver));
  EngineStats stats;
  std::set<std::string> paths = explore(engine, &stats);

  EXPECT_EQ(paths, baseline);
  EXPECT_GE(stats.solver.failover_rescues, 1u);
  // Rescues are invisible to the engine: no unknowns, no skipped flips.
  EXPECT_EQ(stats.queries_unknown, 0u);
  EXPECT_EQ(stats.flips_skipped_unknown, 0u);
  EXPECT_FALSE(stats.incomplete) << stats.incomplete_reason;
  EXPECT_NE(stats.solver_name.find("+failover"), std::string::npos)
      << stats.solver_name;
}

TEST_F(RobustnessTest, WithoutFailoverTheSameFaultsCostCoverage) {
  // Contrast case for the rescue test above: the same flaky primary without
  // a failover wrapper leaks its unknowns into the engine as skipped flips.
  Program program = load(kTwoBranchGuest);
  smt::Context ctx;
  BinSymExecutor executor(ctx, decoder, registry, program);
  auto plan = FaultPlan::parse("solver@1+");
  ASSERT_TRUE(plan);
  auto solver = std::make_unique<smt::FaultInjectingSolver>(
      smt::make_z3_solver(ctx), plan);
  DseEngine engine(executor, std::move(solver));
  EngineStats stats;
  std::set<std::string> paths = explore(engine, &stats);

  EXPECT_EQ(paths.size(), 1u);
  EXPECT_GT(stats.flips_skipped_unknown, 0u);
  EXPECT_EQ(stats.solver.failover_rescues, 0u);
}

TEST_F(RobustnessTest, HardeningLeavesThePathSetUntouched) {
  // Core invariant: with no fault firing, the full hardening stack (failover
  // wrapper + generous deadline + retry budget) explores exactly the same
  // path set as a plain solver, across search strategies and worker counts.
  Program program = load(kTwoBranchGuest);

  std::set<std::string> baseline;
  {
    smt::Context ctx;
    BinSymExecutor executor(ctx, decoder, registry, program);
    DseEngine engine(executor, smt::make_z3_solver(ctx));
    baseline = explore(engine, nullptr);
  }
  ASSERT_GE(baseline.size(), 3u);

  WorkerFactory hardened = [this, &program](unsigned) {
    WorkerResources r;
    r.ctx = std::make_unique<smt::Context>();
    r.executor =
        std::make_unique<BinSymExecutor>(*r.ctx, decoder, registry, program);
    auto solver = std::make_unique<smt::FailoverSolver>(
        smt::make_z3_solver(*r.ctx),
        [ctx = r.ctx.get()] { return smt::make_bitblast_solver(*ctx); });
    solver->set_deadline_ms(60'000);  // generous: must never fire
    r.solver = std::move(solver);
    return r;
  };

  for (SearchKind search :
       {SearchKind::kDepthFirst, SearchKind::kCoverageGuided}) {
    for (unsigned jobs : {1u, 4u}) {
      SCOPED_TRACE("search=" + std::to_string(static_cast<int>(search)) +
                   " jobs=" + std::to_string(jobs));
      EngineOptions options;
      options.search = search;
      options.jobs = jobs;
      options.deadline_secs = 3600;
      DseEngine engine(hardened, options);
      EngineStats stats;
      EXPECT_EQ(explore(engine, &stats), baseline);
      EXPECT_FALSE(stats.incomplete) << stats.incomplete_reason;
      EXPECT_EQ(stats.solver.failover_rescues, 0u);
    }
  }
}

}  // namespace
}  // namespace binsym::core
