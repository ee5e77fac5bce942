// Tests for exploration tooling: branch coverage accounting, the DFS/BFS
// search-order ablation (identical path sets on fully-explorable programs),
// the stats report and merge, and the per-instruction observer event.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <sstream>

#include "asm/assembler.hpp"
#include "core/engine.hpp"
#include "core/stats.hpp"
#include "elf/elf32.hpp"
#include "exploration_util.hpp"
#include "isa/decoder.hpp"
#include "isa/disasm.hpp"
#include "spec/registry.hpp"
#include "vp/vp_executor.hpp"

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
      keys.insert(test::path_key(path.trace));
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

// -- engine_stats_report and EngineStats::merge, driven by the counter
// tables (BINSYM_ENGINE_COUNTERS, BINSYM_SOLVER_COUNTERS and
// BINSYM_REPORT_SECTIONS), so a new row is covered without a test edit.

/// One row of either counter table.
struct Counter {
  std::string field;
  std::string merge;  // "sum", "max" or "set"
  ReportSection section;
  std::string label;
  uint64_t EngineStats::*engine;      // engine rows
  uint64_t smt::SolverStats::*solver;  // solver rows

  uint64_t& in(EngineStats& stats) const {
    return engine ? stats.*engine : stats.solver.*solver;
  }
};

std::vector<Counter> counters() {
  std::vector<Counter> rows;
#define BINSYM_ENGINE_ROW(field, merge, section, label) \
  rows.push_back({#field, #merge, ReportSection::section, label, \
                  &EngineStats::field, nullptr});
#define BINSYM_SOLVER_ROW(field, merge, section, label) \
  rows.push_back({"solver." #field, #merge, ReportSection::section, label, \
                  nullptr, &smt::SolverStats::field});
  BINSYM_ENGINE_COUNTERS(BINSYM_ENGINE_ROW, BINSYM_NO_SOLVER_ROWS)
  BINSYM_SOLVER_COUNTERS(BINSYM_SOLVER_ROW)
#undef BINSYM_SOLVER_ROW
#undef BINSYM_ENGINE_ROW
  return rows;
}

struct Section {
  ReportSection id;
  std::string name;
  bool optional;
};

std::vector<Section> sections() {
  return {
#define BINSYM_SECTION_ROW(id, name, presence) \
  {ReportSection::id, name,                    \
   SectionPresence::presence == SectionPresence::kOptional},
      BINSYM_REPORT_SECTIONS(BINSYM_SECTION_ROW)
#undef BINSYM_SECTION_ROW
  };
}

std::vector<std::string> words(const std::string& text) {
  std::istringstream in(text);
  return {std::istream_iterator<std::string>(in), {}};
}

/// The report lines of `section`: the header is the first line, every
/// other line opens with `name:` (the solver's with `solver[NAME]:`).
std::vector<std::string> lines_of(const std::string& report,
                                  const Section& section) {
  std::istringstream in(report);
  std::vector<std::string> out;
  bool first = true;
  for (std::string line; std::getline(in, line); first = false) {
    std::string head;
    std::istringstream(line) >> head;
    if (section.name.empty()
            ? first
            : head.substr(0, head.find_first_of("[:")) == section.name)
      out.push_back(line);
  }
  return out;
}

size_t count_word(const std::string& text, const std::string& word) {
  const std::vector<std::string> all = words(text);
  return std::count(all.begin(), all.end(), word);
}

TEST_F(StatsTest, ReportListsEveryCounterExactlyOnce) {
  // Distinct three-digit values, so every `label=value` word is unique.
  EngineStats stats;
  std::set<std::string> table_words;
  uint64_t next = 101;
  for (const Counter& c : counters()) {
    c.in(stats) = next;
    table_words.insert(c.label + "=" + std::to_string(next++));
  }
  stats.workers = 3;
  stats.seconds = 1.5;
  stats.solver_name = "z3";
  stats.incomplete = true;
  stats.incomplete_reason = "test-incomplete-reason";
  const std::string report = engine_stats_report(stats);

  for (const Section& section : sections())
    ASSERT_EQ(lines_of(report, section).size(), 1u)
        << section.name << "\n" << report;
  for (const Counter& c : counters()) {
    const std::string word = c.label + "=" + std::to_string(c.in(stats));
    EXPECT_EQ(count_word(report, word), 1u) << c.field << "\n" << report;
    for (const Section& section : sections()) {
      if (section.id != c.section) continue;
      EXPECT_EQ(count_word(lines_of(report, section).front(), word), 1u)
          << c.field << " is not on the " << section.name << " line";
    }
  }
  // Every other `key=value` is one of the hand-written tails.
  std::multiset<std::string> rest;
  for (const std::string& word : words(report))
    if (word.find('=') != std::string::npos && !table_words.count(word))
      rest.insert(word.substr(0, word.find('=')));
  EXPECT_EQ(rest, (std::multiset<std::string>{"workers", "seconds",
                                              "solve-time", "avg"}))
      << report;
  EXPECT_EQ(count_word(report, "workers=3"), 1u) << report;
  EXPECT_EQ(count_word(report, "seconds=1.500"), 1u) << report;
  EXPECT_NE(report.find("\nincomplete: test-incomplete-reason\n"),
            std::string::npos);
}

TEST_F(StatsTest, ReportElidesZeroValuedOptionalSections) {
  // A minimal exploration prints only the required sections; any nonzero
  // counter resurrects its section, and only it.
  EngineStats stats;
  stats.solver_name = "z3";
  for (const Section& section : sections())
    EXPECT_EQ(lines_of(engine_stats_report(stats), section).size(),
              section.optional ? 0u : 1u)
        << section.name;
  for (const Counter& c : counters()) {
    EngineStats one = stats;
    c.in(one) = 1;
    const std::string report = engine_stats_report(one);
    for (const Section& section : sections())
      EXPECT_EQ(lines_of(report, section).size(),
                section.optional && section.id != c.section ? 0u : 1u)
          << c.field << " / " << section.name << "\n" << report;
  }
  EXPECT_EQ(engine_stats_report(stats).find("incomplete:"), std::string::npos);
  stats.incomplete = true;
  stats.incomplete_reason = "wall-clock deadline";
  EXPECT_NE(engine_stats_report(stats).find("\nincomplete: wall-clock "
                                            "deadline\n"),
            std::string::npos);
}

TEST_F(StatsTest, FullReportGolden) {
  // Pins the format itself, independently of the tables that generate it.
  EngineStats s;
  s.paths = 11; s.failures = 12; s.instructions = 13;
  s.workers = 3; s.seconds = 1.5;
  s.flip_attempts = 14; s.feasible_flips = 15; s.infeasible_flips = 16;
  s.divergences = 17; s.max_branch_depth = 18; s.peak_frontier = 19;
  s.solver_name = "test-solver";
  smt::SolverStats& v = s.solver;
  v.queries = 40; v.sat = 41; v.unsat = 42; v.unknown = 43;
  v.cache_hits = 44; v.cache_misses = 45; v.solve_seconds = 2.25;
  s.sliced_constraints = 22;
  v.incremental_checks = 46; v.reused_assertions = 47;
  v.sat_decisions = 62; v.sat_propagations = 63; v.sat_conflicts = 64;
  s.findings = 30; s.finding_dupes = 31;
  s.candidates_checked = 32; s.candidates_feasible = 33;
  s.static_proved = 34; s.static_unknown = 35; s.static_mismatches = 36;
  s.uop_blocks_compiled = 48; s.uop_cache_hits = 49; s.uop_guard_bails = 50;
  s.uop_invalidations = 51; s.pages_clean_skipped = 52;
  s.query_nodes_total = 23; s.query_nodes_max = 24;
  s.exprs_interned = 59; s.intern_hits = 60; s.arena_bytes = 61;
  s.store_hits = 67; s.store_misses = 68; s.store_entries = 69;
  s.queries_unknown = 53; s.flips_skipped_unknown = 54;
  v.failover_rescues = 55;
  s.worker_errors = 56; s.jobs_requeued = 57; s.jobs_poisoned = 58;
  s.incomplete = true;
  s.incomplete_reason = "test-incomplete-reason";
  EXPECT_EQ(
      engine_stats_report(s),
      "paths=11 failures=12 instructions=13 workers=3 seconds=1.500\n"
      "flips: attempted=14 feasible=15 infeasible=16 divergences=17 "
      "max-depth=18 peak-frontier=19\n"
      "solver[test-solver]: queries=40 sat=41 unsat=42 unknown=43 "
      "cache-hits=44 cache-misses=45 solve-time=2.250s\n"
      "opts: sliced-out=22 incremental-checks=46 reused-assertions=47 "
      "(avg depth 1.0)\n"
      "sat: decisions=62 propagations=63 conflicts=64\n"
      "oracles: findings=30 dupes=31 candidates=32 feasible=33\n"
      "static: proved=34 unknown=35 mismatches=36\n"
      "uops: blocks=48 hits=49 bails=50 invalidations=51 clean-pages=52\n"
      "query-nodes: total=23 max=24 avg=1.6\n"
      "intern: interned=59 hits=60 arena-bytes=61\n"
      "store: hits=67 misses=68 entries=69\n"
      "robust: queries-unknown=53 skipped-unknown=54 failover-rescues=55 "
      "worker-errors=56 requeued=57 poisoned=58\n"
      "incomplete: test-incomplete-reason\n");
}

TEST_F(StatsTest, MergeFollowsEachRowsRule) {
  // Merge both ways round, so a max row sees a larger and a smaller value.
  EngineStats small, large;
  uint64_t next = 1;
  for (const Counter& c : counters()) {
    c.in(small) = next;
    c.in(large) = 1000 + next++;
  }
  small.workers = 2; small.seconds = 0.5; small.solver.solve_seconds = 0.25;
  large.workers = 4; large.seconds = 8; large.solver.solve_seconds = 1;
  large.incomplete = true;
  large.incomplete_reason = "large";

  EngineStats small_large = small, large_small = large;
  small_large.merge(large);
  large_small.merge(small);
  for (const Counter& c : counters()) {
    const uint64_t s = c.in(small), l = c.in(large);
    EXPECT_EQ(c.in(small_large),
              c.merge == "sum" ? s + l : c.merge == "max" ? l : s)
        << c.merge << " " << c.field;
    EXPECT_EQ(c.in(large_small), c.merge == "sum" ? s + l : l)
        << c.merge << " " << c.field;
  }
  // The engine sets these after the workers join; merge leaves them.
  EXPECT_EQ(small_large.workers, 2u);
  EXPECT_EQ(small_large.seconds, 0.5);
  EXPECT_EQ(small_large.solver.solve_seconds, 1.25);
  // The first incomplete_reason wins.
  EXPECT_TRUE(small_large.incomplete);
  EXPECT_EQ(small_large.incomplete_reason, "large");
  EngineStats first;
  first.incomplete = true;
  first.incomplete_reason = "first";
  first.merge(large);
  EXPECT_EQ(first.incomplete_reason, "first");
  // The rules the report and the engine rely on.
  std::map<std::string, std::string> rule;
  for (const Counter& c : counters()) rule[c.field] = c.merge;
  EXPECT_EQ(rule["max_branch_depth"], "max");
  EXPECT_EQ(rule["query_nodes_max"], "max");
  EXPECT_EQ(rule["peak_frontier"], "set");
}

TEST_F(StatsTest, ObserverSeesEveryRetiredInstructionOnBothSpecEngines) {
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
  // Disassembles each instruction the executor announces.
  struct Disassembler final : ExecObserver {
    std::vector<std::string> lines;
    void begin_run(PathTrace&) override { lines.clear(); }
    void on_instruction(uint32_t pc, const isa::Decoded& decoded) override {
      lines.push_back(isa::disassemble(decoded, pc));
    }
  };
  auto observe = [&](Executor& executor) {
    Disassembler observer;
    executor.set_observer(&observer);
    PathTrace trace;
    executor.run(smt::Assignment{}, trace);
    EXPECT_EQ(trace.exit, ExitReason::kExit) << executor.name();
    EXPECT_EQ(observer.lines.size(), trace.steps) << executor.name();
    EXPECT_EQ(executor.instructions_retired(), trace.steps) << executor.name();
    // An observer needs every instruction's event, so no micro-op block
    // runs: the binsym fast path yields to it, and vp has none at all.
    EXPECT_EQ(executor.uop_counters().blocks_compiled, 0u) << executor.name();
    EXPECT_EQ(executor.uop_counters().cache_hits, 0u) << executor.name();
    executor.set_observer(nullptr);
    return observer.lines;
  };

  smt::Context ctx;
  BinSymExecutor binsym(ctx, decoder, registry, program);
  std::vector<std::string> lines = observe(binsym);
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines[0], "addi t0, zero, 3");
  // The loop body appears three times.
  size_t bne_count = 0;
  for (const std::string& line : lines)
    bne_count += line.find("bne") != std::string::npos;
  EXPECT_EQ(bne_count, 3u);

  smt::Context vp_ctx;
  vp::VpExecutor vp(vp_ctx, decoder, registry, program);
  EXPECT_EQ(observe(vp), lines);
  // Not even with the observer detached does vp get a fast path.
  PathTrace trace;
  vp.run(smt::Assignment{}, trace);
  interp::UopCounters vp_uops = vp.uop_counters();
  EXPECT_EQ(vp_uops.blocks_compiled, 0u);
  EXPECT_EQ(vp_uops.cache_hits, 0u);
  EXPECT_EQ(vp_uops.guard_bails, 0u);
  EXPECT_EQ(vp_uops.invalidations, 0u);
  EXPECT_EQ(vp_uops.pages_clean_skipped, 0u);
}

}  // namespace
}  // namespace binsym::core
