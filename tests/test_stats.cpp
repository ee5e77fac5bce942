// Tests for exploration tooling: branch coverage accounting, the DFS/BFS
// search-order ablation (identical path sets on fully-explorable programs)
// and the executor trace hook.
#include <gtest/gtest.h>

#include <set>

#include "asm/assembler.hpp"
#include "core/engine.hpp"
#include "core/stats.hpp"
#include "elf/elf32.hpp"
#include "isa/decoder.hpp"
#include "isa/disasm.hpp"
#include "spec/registry.hpp"

namespace binsym::core {
namespace {

class StatsTest : public ::testing::Test {
 protected:
  StatsTest() { spec::install_rv32im(registry, table); }

  Program load(const std::string& source) {
    return elf::to_program(rvasm::assemble_or_die(table, source).image);
  }

  isa::OpcodeTable table;
  isa::Decoder decoder{table};
  spec::Registry registry;
};

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
    bltu t1, t2, done        # second branch site
done:
    li a0, 0
    li a7, 93
    ecall
.data
buf: .space 2
)";

TEST_F(StatsTest, BranchCoverageAccumulates) {
  Program program = load(kTwoBranchGuest);
  smt::Context ctx;
  BinSymExecutor executor(ctx, decoder, registry, program);
  DseEngine engine(executor, smt::make_z3_solver(ctx));

  BranchCoverage coverage;
  engine.explore([&](const PathResult& path) { coverage.record(path.trace); });

  EXPECT_EQ(coverage.num_sites(), 2u);
  EXPECT_EQ(coverage.num_fully_covered(), 2u);  // fully explorable
  EXPECT_TRUE(coverage.one_sided_sites().empty());
  std::string report = coverage.report();
  EXPECT_NE(report.find("branch sites: 2"), std::string::npos);
}

TEST_F(StatsTest, OneSidedBranchDetected) {
  // Unsatisfiable second arm: b < 10 checked after asserting b == 0xff.
  Program program = load(R"(
_start:
    la a0, buf
    li a1, 1
    li a7, 2
    ecall
    la t0, buf
    lbu t1, 0(t0)
    li t2, 0xff
    bne t1, t2, done
    li t3, 10
    bltu t1, t3, done        # never taken: t1 == 0xff here
done:
    li a0, 0
    li a7, 93
    ecall
.data
buf: .space 1
)");
  smt::Context ctx;
  BinSymExecutor executor(ctx, decoder, registry, program);
  DseEngine engine(executor, smt::make_z3_solver(ctx));
  BranchCoverage coverage;
  engine.explore([&](const PathResult& path) { coverage.record(path.trace); });
  EXPECT_EQ(coverage.one_sided_sites().size(), 1u);
  EXPECT_NE(coverage.report().find("one-sided"), std::string::npos);
}

TEST_F(StatsTest, BfsAndDfsEnumerateTheSamePaths) {
  Program program = load(kTwoBranchGuest);

  auto path_set = [&](SearchKind kind) {
    smt::Context ctx;
    BinSymExecutor executor(ctx, decoder, registry, program);
    EngineOptions options;
    options.search = kind;
    DseEngine engine(executor, smt::make_z3_solver(ctx), options);
    std::set<std::string> keys;
    engine.explore([&](const PathResult& path) {
      std::string key;
      for (const BranchRecord& b : path.trace.branches)
        key += b.taken ? '1' : '0';
      keys.insert(key);
    });
    return keys;
  };

  std::set<std::string> dfs_paths = path_set(SearchKind::kDepthFirst);
  std::set<std::string> bfs_paths = path_set(SearchKind::kBreadthFirst);
  EXPECT_EQ(dfs_paths, bfs_paths);
  EXPECT_GE(dfs_paths.size(), 3u);
}

TEST_F(StatsTest, BfsDiscoversShallowPathsFirst) {
  Program program = load(kTwoBranchGuest);
  smt::Context ctx;
  BinSymExecutor executor(ctx, decoder, registry, program);
  EngineOptions options;
  options.search = SearchKind::kBreadthFirst;
  DseEngine engine(executor, smt::make_z3_solver(ctx), options);
  std::vector<size_t> depths;
  engine.explore([&](const PathResult& path) {
    depths.push_back(path.trace.branches.size());
  });
  // The flip bound is non-decreasing under BFS, so the first two runs come
  // from the shallowest frontier.
  ASSERT_GE(depths.size(), 2u);
}

// -- engine_stats_report formatting (previously only eyeballed). -------------

// Count non-overlapping occurrences of `needle` in `haystack`.
size_t occurrences(const std::string& haystack, const std::string& needle) {
  size_t n = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size()))
    ++n;
  return n;
}

TEST_F(StatsTest, ReportListsEveryCounterExactlyOnce) {
  // Distinct values everywhere, all optional sections populated.
  EngineStats stats;
  stats.paths = 11;
  stats.failures = 12;
  stats.instructions = 13;
  stats.workers = 3;
  stats.seconds = 1.5;
  stats.flip_attempts = 14;
  stats.feasible_flips = 15;
  stats.infeasible_flips = 16;
  stats.divergences = 17;
  stats.max_branch_depth = 18;
  stats.peak_frontier = 19;
  stats.sliced_constraints = 22;
  stats.query_nodes_total = 23;
  stats.query_nodes_max = 24;
  stats.findings = 30;
  stats.finding_dupes = 31;
  stats.candidates_checked = 32;
  stats.candidates_feasible = 33;
  stats.static_proved = 34;
  stats.static_unknown = 35;
  stats.static_mismatches = 36;
  stats.uop_blocks_compiled = 48;
  stats.uop_cache_hits = 49;
  stats.uop_guard_bails = 50;
  stats.uop_invalidations = 51;
  stats.pages_clean_skipped = 52;
  stats.exprs_interned = 59;
  stats.intern_hits = 60;
  stats.arena_bytes = 61;
  stats.solver_name = "test-solver";
  stats.solver.queries = 40;
  stats.solver.sat = 41;
  stats.solver.unsat = 42;
  stats.solver.unknown = 43;
  stats.solver.cache_hits = 44;
  stats.solver.cache_misses = 45;
  stats.solver.incremental_checks = 46;
  stats.solver.reused_assertions = 47;
  stats.queries_unknown = 53;
  stats.flips_skipped_unknown = 54;
  stats.solver.failover_rescues = 55;
  stats.worker_errors = 56;
  stats.jobs_requeued = 57;
  stats.jobs_poisoned = 58;
  stats.solver.portfolio_races = 62;
  stats.solver.portfolio_routed = 63;
  stats.solver.portfolio_cancelled = 64;
  stats.solver.portfolio_wins = {{"alpha", 65}, {"beta", 66}};
  stats.store_hits = 67;
  stats.store_misses = 68;
  stats.store_entries = 69;
  stats.incomplete = true;
  stats.incomplete_reason = "test-incomplete-reason";

  std::string report = engine_stats_report(stats);
  const std::vector<std::string> counters = {
      "paths=11",          "failures=12",        "instructions=13",
      "workers=3",         "attempted=14",       "feasible=15",
      "infeasible=16",     "divergences=17",     "max-depth=18",
      "peak-frontier=19",  "sliced-out=22",
      "total=23",          "max=24",             "findings=30",
      "dupes=31",          "candidates=32",      "feasible=33",
      "proved=34",         "unknown=35",         "mismatches=36",
      "blocks=48",         "hits=49",            "bails=50",
      "invalidations=51",  "clean-pages=52",
      "queries=40",        "sat=41",             "unsat=42",
      "unknown=43",        "cache-hits=44",      "cache-misses=45",
      "incremental-checks=46", "reused-assertions=47", "test-solver",
      "queries-unknown=53", "skipped-unknown=54", "failover-rescues=55",
      "worker-errors=56",  "requeued=57",        "poisoned=58",
      "interned=59",       "hits=60",            "arena-bytes=61",
      "races=62",          "routed=63",          "cancelled=64",
      "alpha=65",          "beta=66",            "hits=67",
      "misses=68",         "entries=69",
      "incomplete: test-incomplete-reason",
  };
  for (const std::string& counter : counters)
    EXPECT_EQ(occurrences(report, counter), 1u) << counter << "\n" << report;
}

TEST_F(StatsTest, ReportElidesZeroValuedOptionalSections) {
  // A minimal sequential exploration: no oracles were attached,
  // query-node measurement was off — those sections must not
  // clutter the report; the always-on sections must stay.
  EngineStats stats;
  stats.solver_name = "z3";
  std::string report = engine_stats_report(stats);
  EXPECT_EQ(occurrences(report, "oracles:"), 0u) << report;
  EXPECT_EQ(occurrences(report, "static:"), 0u) << report;
  EXPECT_EQ(occurrences(report, "uops:"), 0u) << report;
  EXPECT_EQ(occurrences(report, "query-nodes:"), 0u) << report;
  EXPECT_EQ(occurrences(report, "intern:"), 0u) << report;
  EXPECT_EQ(occurrences(report, "portfolio:"), 0u) << report;
  EXPECT_EQ(occurrences(report, "store:"), 0u) << report;
  EXPECT_EQ(occurrences(report, "robust:"), 0u) << report;
  EXPECT_EQ(occurrences(report, "incomplete:"), 0u) << report;
  EXPECT_EQ(occurrences(report, "paths="), 1u);
  EXPECT_EQ(occurrences(report, "flips:"), 1u);
  EXPECT_EQ(occurrences(report, "solver[z3]:"), 1u);
  EXPECT_EQ(occurrences(report, "opts:"), 1u);

  // Any nonzero counter resurrects its section — and only it.
  stats.candidates_checked = 1;
  report = engine_stats_report(stats);
  EXPECT_EQ(occurrences(report, "oracles:"), 1u);
  EXPECT_EQ(occurrences(report, "static:"), 0u);
  stats.static_proved = 1;
  report = engine_stats_report(stats);
  EXPECT_EQ(occurrences(report, "static:"), 1u);
  EXPECT_EQ(occurrences(report, "uops:"), 0u);
  stats.uop_cache_hits = 1;
  report = engine_stats_report(stats);
  EXPECT_EQ(occurrences(report, "uops:"), 1u);
  stats.query_nodes_total = 1;
  report = engine_stats_report(stats);
  EXPECT_EQ(occurrences(report, "query-nodes:"), 1u);
  EXPECT_EQ(occurrences(report, "intern:"), 0u);
  stats.exprs_interned = 1;
  report = engine_stats_report(stats);
  EXPECT_EQ(occurrences(report, "intern:"), 1u);
  EXPECT_EQ(occurrences(report, "portfolio:"), 0u);
  stats.solver.portfolio_routed = 1;
  report = engine_stats_report(stats);
  EXPECT_EQ(occurrences(report, "portfolio:"), 1u);
  EXPECT_EQ(occurrences(report, "store:"), 0u);
  stats.store_misses = 1;
  report = engine_stats_report(stats);
  EXPECT_EQ(occurrences(report, "store:"), 1u);
  EXPECT_EQ(occurrences(report, "robust:"), 0u);
  stats.flips_skipped_unknown = 1;
  report = engine_stats_report(stats);
  EXPECT_EQ(occurrences(report, "robust:"), 1u);
  EXPECT_EQ(occurrences(report, "incomplete:"), 0u);
  stats.incomplete = true;
  stats.incomplete_reason = "wall-clock deadline";
  report = engine_stats_report(stats);
  EXPECT_EQ(occurrences(report, "incomplete: wall-clock deadline"), 1u);
}

TEST_F(StatsTest, TraceHookSeesEveryRetiredInstruction) {
  Program program = load(R"(
_start:
    li t0, 3
loop:
    addi t0, t0, -1
    bnez t0, loop
    li a0, 0
    li a7, 93
    ecall
)");
  smt::Context ctx;
  BinSymExecutor executor(ctx, decoder, registry, program);
  std::vector<std::string> trace_lines;
  executor.set_trace_hook([&](uint32_t pc, const isa::Decoded& decoded) {
    trace_lines.push_back(isa::disassemble(decoded, pc));
  });
  PathTrace trace;
  executor.run(smt::Assignment{}, trace);
  EXPECT_EQ(trace_lines.size(), trace.steps);
  EXPECT_EQ(trace_lines[0], "addi t0, zero, 3");
  // The loop body appears three times.
  size_t bne_count = 0;
  for (const std::string& line : trace_lines)
    bne_count += line.find("bne") != std::string::npos;
  EXPECT_EQ(bne_count, 3u);
}

}  // namespace
}  // namespace binsym::core
