// The Table I invariance matrix. The explored path set is a function of the
// program alone: no search order, worker count, execution path, attached
// oracle or persistent store may change which paths are found, which
// failures they report or which findings the oracles raise. Every
// (workload, row) case explores one row of a pairwise covering array over
// those toggles and checks it against checked-in golden values, so no row
// takes another configuration of the same engine as its reference.
//
// The array has 16 rows over four factors — search (4 levels), execution
// (4), jobs (2) and store (2) — and puts every pair of levels of every two
// factors into some row (a strength-2 covering array; Cohen et al., "The
// AETG System", IEEE TSE 1997). Execution is one factor, not a µop toggle
// crossed with an oracle toggle, because an attached observer switches the
// µop fast path off. A store row explores twice: cold into a fresh store,
// then warm from the reopened one.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "../bench/engines.hpp"
#include "analysis/analysis.hpp"
#include "exploration_util.hpp"
#include "smt/store.hpp"
#include "workloads/workloads.hpp"

namespace binsym {
namespace {

using core::SearchKind;

// kSpec: uop_fastpath off. kOracles*: `explore --oracles all`, with the
// static candidate prune (kOraclesPruned) or `--no-static-prune`.
enum Execution { kUop, kSpec, kOraclesPruned, kOracles, kNumExecutions };
const char* const kExecutionNames[] = {"uop", "spec", "oracles-pruned",
                                       "oracles"};

struct Row {
  SearchKind search;
  Execution execution;
  unsigned jobs;
  bool store;
};

constexpr SearchKind kDfs = SearchKind::kDepthFirst;
constexpr SearchKind kBfs = SearchKind::kBreadthFirst;
constexpr SearchKind kRandom = SearchKind::kRandomPath;
constexpr SearchKind kCoverage = SearchKind::kCoverageGuided;

// Row 0 is the default configuration.
constexpr Row kRows[] = {
    {kDfs, kUop, 1, false},              {kDfs, kSpec, 1, true},
    {kDfs, kOraclesPruned, 4, false},    {kDfs, kOracles, 4, false},
    {kBfs, kUop, 4, true},               {kBfs, kSpec, 4, false},
    {kBfs, kOraclesPruned, 1, false},    {kBfs, kOracles, 1, false},
    {kRandom, kUop, 1, false},           {kRandom, kSpec, 1, false},
    {kRandom, kOraclesPruned, 4, false}, {kRandom, kOracles, 4, true},
    {kCoverage, kUop, 4, false},         {kCoverage, kSpec, 4, false},
    {kCoverage, kOraclesPruned, 1, true}, {kCoverage, kOracles, 1, false},
};
constexpr size_t kNumRows = sizeof(kRows) / sizeof(kRows[0]);

/// FNV-1a over the sorted path keys, each terminated by '\n'.
uint64_t digest(const std::set<std::string>& keys) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const std::string& key : keys) {
    for (char c : key + '\n') {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

/// What every row must reproduce. No golden workload raises an oracle
/// finding, so the golden finding set is empty throughout.
struct Golden {
  const char* workload;
  uint64_t paths;   // Table I count (paper_paths) for the five programs
  uint64_t digest;  // digest() of the path-key set
  std::vector<uint32_t> failures;  // sorted failure-id multiset
};

const Golden kGoldens[] = {
    {"base64-encode", 6250, 0x355891019666818b, {}},
    {"bubble-sort", 720, 0xf9850db941e90719, {}},
    {"clif-parser", 11424, 0x1b79a047cef01859, {}},
    {"insertion-sort", 5040, 0x6e9623fcb4510be3, {}},
    {"uri-parser", 8240, 0x3433cda8dac29b1b, {}},
    {"parse-word", 3, 0xf88387979aa05884, {6}},
};

struct Case {
  const Golden* golden;
  size_t row;
};

void PrintTo(const Case& c, std::ostream* os) {
  const Row& row = kRows[c.row];
  *os << c.golden->workload << '/' << (c.row < 10 ? "0" : "") << c.row << '-'
      << core::search_kind_name(row.search) << '-'
      << kExecutionNames[row.execution] << "-j" << row.jobs
      << (row.store ? "-store" : "");
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const Golden& golden : kGoldens)
    for (size_t row = 0; row < kNumRows; ++row) cases.push_back({&golden, row});
  return cases;
}

TEST(InvarianceMatrixTable, CoversEveryPairAndStartsAtTheDefault) {
  // A row's level of each factor, as a small integer.
  auto level = [](const Row& row, int factor) {
    const int levels[] = {static_cast<int>(row.search), row.execution,
                          row.jobs == 1 ? 0 : 1, row.store ? 1 : 0};
    return levels[factor];
  };
  const int num_levels[] = {
      static_cast<int>(core::all_search_kinds().size()), kNumExecutions, 2, 2};
  for (const Row& row : kRows) EXPECT_TRUE(row.jobs == 1 || row.jobs == 4);
  for (int f = 0; f < 4; ++f) {
    for (int g = f + 1; g < 4; ++g) {
      std::set<std::pair<int, int>> seen;
      for (const Row& row : kRows) seen.insert({level(row, f), level(row, g)});
      EXPECT_EQ(seen.size(), static_cast<size_t>(num_levels[f] * num_levels[g]))
          << "factors " << f << " and " << g;
    }
  }

  EXPECT_EQ(kRows[0].search, core::EngineOptions{}.search);
  EXPECT_EQ(kRows[0].jobs, core::EngineOptions{}.jobs);
  EXPECT_EQ(kRows[0].execution, kUop);
  EXPECT_TRUE(core::MachineConfig{}.uop_fastpath);
  EXPECT_FALSE(kRows[0].store);

  for (const workloads::WorkloadInfo& info : workloads::table1_workloads()) {
    size_t matches = 0;
    for (const Golden& golden : kGoldens) {
      if (info.name != golden.workload) continue;
      ++matches;
      EXPECT_EQ(golden.paths, info.paper_paths) << info.name;
    }
    EXPECT_EQ(matches, 1u) << info.name;
  }
}

class InvarianceMatrix : public ::testing::TestWithParam<Case> {
 protected:
  InvarianceMatrix() { spec::install_rv32im(registry, table); }

  void expect_golden(const test::Exploration& run, const Row& row,
                     const char* phase) {
    SCOPED_TRACE(phase);
    const Golden& golden = *GetParam().golden;
    EXPECT_FALSE(run.stats.incomplete) << run.stats.incomplete_reason;
    EXPECT_EQ(run.stats.paths, golden.paths);
    EXPECT_EQ(run.path_keys.size(), run.stats.paths)
        << "a path was enumerated twice";
    EXPECT_EQ(digest(run.path_keys), golden.digest);
    EXPECT_EQ(std::vector<uint32_t>(run.failures.begin(), run.failures.end()),
              golden.failures);
    EXPECT_TRUE(run.findings.empty());
    EXPECT_EQ(run.stats.workers, row.jobs);
    // Only the µop rows compile blocks: kSpec turns the fast path off and
    // an attached oracle observer bypasses it.
    if (row.execution == kUop) {
      EXPECT_GT(run.stats.uop_blocks_compiled, 0u);
    } else {
      EXPECT_EQ(run.stats.uop_blocks_compiled, 0u);
    }
  }

  isa::OpcodeTable table;
  isa::Decoder decoder{table};
  spec::Registry registry;
};

TEST_P(InvarianceMatrix, MatchesGolden) {
  const Row& row = kRows[GetParam().row];
  core::Program program =
      workloads::load_workload(table, GetParam().golden->workload);
  bench::EngineSetup setup{decoder, registry, program};
  setup.config.uop_fastpath = row.execution != kSpec;

  core::EngineOptions options;
  options.search = row.search;
  options.jobs = row.jobs;
  const bool oracles = row.execution >= kOraclesPruned;
  std::optional<analysis::StaticAnalysis> sa;
  if (oracles) {  // wired as explore.cpp wires them
    sa = analysis::StaticAnalysis::run(
        program, decoder, bench::make_memory_map("binsym", setup));
    if (row.execution == kOraclesPruned)
      options.candidate_prune = sa->make_prune();
    options.cfg_hints = sa->make_hints();
  }
  core::WorkerFactory factory =
      bench::make_worker_factory("binsym", setup, oracles ? "all" : "");

  if (!row.store) {
    expect_golden(test::explore(factory, options), row, "");
    return;
  }
  const std::string dir = ::testing::TempDir() + "binsym-invariance-" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  options.solver_store = smt::SolverStore::open(dir);
  test::Exploration cold = test::explore(factory, options);
  expect_golden(cold, row, "cold store");
  // With several workers, one worker's entry can answer another's query
  // within the cold run itself.
  if (row.jobs == 1) {
    EXPECT_EQ(cold.stats.store_hits, 0u);
  }
  EXPECT_GT(cold.stats.store_entries, 0u);

  options.solver_store = smt::SolverStore::open(dir);
  ASSERT_TRUE(options.solver_store->load_error().empty());
  test::Exploration warm = test::explore(factory, options);
  expect_golden(warm, row, "warm store");
  EXPECT_GT(warm.stats.store_hits, 0u);
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Table1, InvarianceMatrix,
                         ::testing::ValuesIn(all_cases()));

}  // namespace
}  // namespace binsym
