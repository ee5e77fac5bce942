// Tests for the static analysis layer (src/analysis) and its engine
// consumers — the ISSUE's acceptance pins:
//
//   (a) soundness, differentially: on every Table I and detection-campaign
//       workload, explore with the pre-prover in differential mode (every
//       statically-proven candidate still goes to the solver) and require
//       zero proven-yet-sat mismatches;
//   (b) behavior invariance: path sets and (oracle, pc, call-depth)
//       finding triples are bit-identical with pruning on vs off, under
//       dfs and coverage search and under 1 and 4 workers;
//   (c) the optimization exists: on the memory-safety detection workloads
//       the pre-prover strictly reduces the candidates that reach the
//       solver.
//
// Plus directed pins for CFG recovery, the jal/ret classification, the
// stack-window precision that resolves `ret`, per-rule lint findings and
// the proves_safe rule table.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "../bench/engines.hpp"
#include "analysis/analysis.hpp"
#include "asm/assembler.hpp"
#include "elf/elf32.hpp"
#include "workloads/workloads.hpp"

namespace binsym {
namespace {

const char* kBuggyWorkloads[] = {
    "buggy-assert",      "buggy-div",       "buggy-jump-table",
    "buggy-overflow",    "buggy-stack-smash", "buggy-unaligned",
    "buggy-uri-parser",
};

using FindingTriple = std::tuple<uint8_t, uint32_t, uint32_t>;

struct Exploration {
  std::set<std::string> path_keys;     // branch-decision strings
  std::set<FindingTriple> findings;    // (oracle, pc, call_depth)
  core::EngineStats stats;
};

class AnalysisTest : public ::testing::Test {
 protected:
  AnalysisTest() { spec::install_rv32im(registry, table); }

  core::Program load_source(const std::string& source) {
    return elf::to_program(rvasm::assemble_or_die(table, source).image);
  }

  analysis::StaticAnalysis analyze(const bench::EngineSetup& setup) {
    return analysis::StaticAnalysis::run(
        setup.program, decoder, bench::make_memory_map("binsym", setup));
  }

  Exploration explore(const bench::EngineSetup& setup,
                      const analysis::StaticAnalysis& sa,
                      bool prune, core::SearchKind search, unsigned jobs,
                      uint64_t max_paths, bool differential = false) {
    core::EngineOptions options;
    options.search = search;
    options.jobs = jobs;
    options.max_paths = max_paths;
    options.static_differential = differential;
    if (prune || differential) options.candidate_prune = sa.make_prune();
    // Hints are wired independently of pruning (as in explore.cpp), so the
    // coverage schedule is identical in both arms by construction.
    options.cfg_hints = sa.make_hints();
    core::DseEngine dse(bench::make_worker_factory("binsym", setup, "all"),
                        options);
    Exploration result;
    result.stats = dse.explore([&](const core::PathResult& path) {
      std::string key;
      key.reserve(path.trace.branches.size());
      for (const core::BranchRecord& b : path.trace.branches)
        key += b.taken ? '1' : '0';
      result.path_keys.insert(std::move(key));
    });
    for (const core::Finding& f : dse.findings())
      result.findings.insert({static_cast<uint8_t>(f.oracle), f.pc,
                              f.call_depth});
    return result;
  }

  isa::OpcodeTable table;
  isa::Decoder decoder{table};
  spec::Registry registry;
};

// -- (a) Differential soundness over the whole workload suite. ---------------

TEST_F(AnalysisTest, NoStaticallyProvenCandidateIsEverSat) {
  std::vector<std::string> names;
  for (const workloads::WorkloadInfo& info : workloads::table1_workloads())
    names.push_back(info.name);
  for (const char* name : kBuggyWorkloads) names.push_back(name);

  for (const std::string& name : names) {
    core::Program program = workloads::load_workload_or_exit(table, name);
    bench::EngineSetup setup{decoder, registry, program};
    analysis::StaticAnalysis sa = analyze(setup);

    Exploration e = explore(setup, sa, /*prune=*/true,
                            core::SearchKind::kDepthFirst, /*jobs=*/1,
                            /*max_paths=*/100, /*differential=*/true);
    // The one-line soundness contract: a statically-proven candidate must
    // be unsat under every path condition the solver ever sees.
    EXPECT_EQ(e.stats.static_mismatches, 0u) << name;
    // Differential mode solves everything, so the accounting is exact.
    EXPECT_EQ(e.stats.static_proved + e.stats.static_unknown,
              e.stats.candidates_checked)
        << name;
    // An incomplete fixpoint proves nothing, ever.
    if (!sa.absint.complete) {
      EXPECT_EQ(e.stats.static_proved, 0u) << name;
    }
  }
}

// -- (b) Behavior invariance of pruning across search x workers. -------------

TEST_F(AnalysisTest, PruningPreservesPathsAndFindingsAcrossSearchAndJobs) {
  // The detection workloads are small enough to explore exhaustively, which
  // makes the path set an invariant of the program, not of the schedule.
  for (const char* name : kBuggyWorkloads) {
    core::Program program = workloads::load_workload_or_exit(table, name);
    bench::EngineSetup setup{decoder, registry, program};
    analysis::StaticAnalysis sa = analyze(setup);

    Exploration reference =
        explore(setup, sa, false, core::SearchKind::kDepthFirst, 1,
                UINT64_MAX);
    for (core::SearchKind search :
         {core::SearchKind::kDepthFirst, core::SearchKind::kCoverageGuided}) {
      for (unsigned jobs : {1u, 4u}) {
        for (bool prune : {false, true}) {
          Exploration e =
              explore(setup, sa, prune, search, jobs, UINT64_MAX);
          EXPECT_EQ(e.path_keys, reference.path_keys)
              << name << " search=" << static_cast<int>(search)
              << " jobs=" << jobs << " prune=" << prune;
          EXPECT_EQ(e.findings, reference.findings)
              << name << " search=" << static_cast<int>(search)
              << " jobs=" << jobs << " prune=" << prune;
        }
      }
    }
  }
}

TEST_F(AnalysisTest, PruningPreservesCappedSequentialExploration) {
  // Which paths a capped run reaches depends on the solver's models, and Z3
  // models depend on the context's AST-creation history: with pruning off
  // the engine translates extra oracle-candidate conditions, which shifts
  // later flip models. So a capped path *set* is not comparable across
  // prune on/off. Base64 (whose 25,000 candidates the query cache answers
  // with pruning off), clif-parser, uri-parser and bubble-sort explore to
  // exhaustion in about a second each, which makes their path set an
  // invariant of the program; insertion (about 3 s) stays capped, and
  // there only the path count and the findings are compared.
  for (const workloads::WorkloadInfo& info : workloads::table1_workloads()) {
    const std::string name = info.name;
    const bool exhaust = name != "insertion-sort";
    core::Program program = workloads::load_workload_or_exit(table, name);
    bench::EngineSetup setup{decoder, registry, program};
    analysis::StaticAnalysis sa = analyze(setup);

    for (core::SearchKind search :
         {core::SearchKind::kDepthFirst, core::SearchKind::kCoverageGuided}) {
      const uint64_t cap = exhaust ? UINT64_MAX : 60;
      Exploration off = explore(setup, sa, false, search, 1, cap);
      Exploration on = explore(setup, sa, true, search, 1, cap);
      if (exhaust) {
        EXPECT_EQ(on.path_keys, off.path_keys) << name;
        EXPECT_EQ(off.stats.paths, info.paper_paths) << name;
      }
      EXPECT_EQ(on.findings, off.findings) << name;
      EXPECT_EQ(on.stats.paths, off.stats.paths) << name;
    }
  }
}

// -- (c) The pre-prover actually removes solver work. ------------------------

TEST_F(AnalysisTest, PruningStrictlyReducesSolverCandidates) {
  for (const char* name : {"buggy-unaligned", "buggy-uri-parser"}) {
    core::Program program = workloads::load_workload_or_exit(table, name);
    bench::EngineSetup setup{decoder, registry, program};
    analysis::StaticAnalysis sa = analyze(setup);
    ASSERT_TRUE(sa.absint.complete) << name;

    Exploration off = explore(setup, sa, false,
                              core::SearchKind::kDepthFirst, 1, UINT64_MAX);
    Exploration on = explore(setup, sa, true,
                             core::SearchKind::kDepthFirst, 1, UINT64_MAX);
    EXPECT_GT(on.stats.static_proved, 0u) << name;
    EXPECT_LT(on.stats.candidates_checked, off.stats.candidates_checked)
        << name;
    // The bugs themselves must survive the pruning untouched.
    EXPECT_EQ(on.findings, off.findings) << name;
    EXPECT_FALSE(on.findings.empty()) << name;
  }
}

// -- CFG recovery. -----------------------------------------------------------

constexpr const char* kDiamondWithCall = R"(
_start:
    la a0, buf
    li a1, 1
    li a7, 2
    ecall
    la t3, buf
    lbu t0, 0(t3)
    beqz t0, then
    li t1, 1
    j join
then:
    li t1, 2
join:
    jal ra, helper
    li a0, 0
    li a7, 93
    ecall
helper:
    ret
.data
buf: .space 1
)";

TEST_F(AnalysisTest, CfgRecoversDiamondAndCallGraph) {
  core::Program program = load_source(kDiamondWithCall);
  bench::EngineSetup setup{decoder, registry, program};
  analysis::StaticAnalysis sa = analyze(setup);
  ASSERT_TRUE(sa.absint.complete) << sa.absint.incomplete_reason;

  // Locate the interesting pcs from the decoded fixpoint.
  uint32_t branch_pc = 0, jal_pc = 0, ret_pc = 0;
  for (const auto& [pc, d] : sa.absint.code) {
    if (d.id() == isa::kBEQ) branch_pc = pc;
    if (d.id() == isa::kJAL && d.rd() == 1) jal_pc = pc;
    if (d.id() == isa::kJALR && d.rd() == 0) ret_pc = pc;
  }
  ASSERT_NE(branch_pc, 0u);
  ASSERT_NE(jal_pc, 0u);
  ASSERT_NE(ret_pc, 0u);
  EXPECT_TRUE(sa.absint.call_sites.count(jal_pc));
  EXPECT_TRUE(sa.absint.ret_sites.count(ret_pc));

  const analysis::Cfg& cfg = sa.cfg;
  ASSERT_GE(cfg.blocks.size(), 5u);  // entry, two arms, join, helper
  // The program entry and the called helper are the two functions.
  EXPECT_EQ(cfg.function_entries.size(), 2u);
  EXPECT_TRUE(cfg.function_entries.count(program.entry));

  uint32_t branch_block = cfg.block_of_pc.at(branch_pc);
  uint32_t join_block = cfg.block_of_pc.at(jal_pc);
  ASSERT_EQ(cfg.succs[branch_block].size(), 2u);  // the diamond forks
  uint32_t arm0 = cfg.succs[branch_block][0];
  uint32_t arm1 = cfg.succs[branch_block][1];
  EXPECT_NE(arm0, arm1);

  // Dominators: the fork dominates both arms and the join; neither arm
  // dominates the join.
  EXPECT_TRUE(cfg.dominates(cfg.entry_block, join_block));
  EXPECT_TRUE(cfg.dominates(branch_block, arm0));
  EXPECT_TRUE(cfg.dominates(branch_block, arm1));
  EXPECT_TRUE(cfg.dominates(branch_block, join_block));
  EXPECT_FALSE(cfg.dominates(arm0, join_block));
  EXPECT_FALSE(cfg.dominates(arm1, join_block));
  EXPECT_EQ(cfg.idom[join_block], branch_block);

  // The call edge main -> helper is recorded.
  uint32_t helper_entry = 0;
  for (uint32_t entry : cfg.function_entries)
    if (entry != program.entry) helper_entry = entry;
  ASSERT_NE(helper_entry, 0u);
  auto edges = cfg.call_edges.find(program.entry);
  ASSERT_NE(edges, cfg.call_edges.end());
  EXPECT_EQ(edges->second.size(), 1u);
  EXPECT_EQ(edges->second[0], helper_entry);

  // Distance/reachability queries: the fork is one block from either arm,
  // and the helper has no static path to the join's *predecessors*.
  std::vector<uint32_t> d = cfg.distances_to({arm0});
  EXPECT_EQ(d[arm0], 0u);
  EXPECT_EQ(d[branch_block], 1u);
  std::vector<uint32_t> back = cfg.reverse_reachable(arm0);
  std::set<uint32_t> back_set(back.begin(), back.end());
  EXPECT_TRUE(back_set.count(cfg.entry_block));
  EXPECT_TRUE(back_set.count(branch_block));
  EXPECT_FALSE(back_set.count(cfg.block_of_pc.at(helper_entry)));

  // And the DOT rendering mentions every block.
  std::string dot = cfg_to_dot(cfg, sa.absint);
  for (size_t i = 0; i < cfg.blocks.size(); ++i)
    EXPECT_NE(dot.find("b" + std::to_string(i)), std::string::npos);
}

// -- Lint rules, one directed program each. ----------------------------------

TEST_F(AnalysisTest, LintFlagsUnreachableBlockAndUnreachableReach) {
  core::Program program = load_source(R"(
_start:
    li a0, 0
    li a7, 93
    ecall
dead:
    li a7, 5
    ecall
)");
  bench::EngineSetup setup{decoder, registry, program};
  analysis::StaticAnalysis sa = analyze(setup);
  ASSERT_TRUE(sa.absint.complete);
  std::vector<core::Finding> lints = sa.lint(program, decoder);

  bool unreachable = false, no_path = false;
  for (const core::Finding& f : lints) {
    EXPECT_EQ(f.origin, core::FindingOrigin::kStatic);
    if (f.rule == "unreachable-block") unreachable = true;
    if (f.rule == "no-path-to-reach") {
      no_path = true;
      EXPECT_EQ(f.oracle, core::OracleKind::kReach);
    }
  }
  EXPECT_TRUE(unreachable);
  EXPECT_TRUE(no_path);
}

TEST_F(AnalysisTest, LintFlagsStackImbalance) {
  core::Program program = load_source(R"(
_start:
    jal ra, broken
    li a0, 0
    li a7, 93
    ecall
broken:
    addi sp, sp, -16
    addi sp, sp, 8
    ret
)");
  bench::EngineSetup setup{decoder, registry, program};
  analysis::StaticAnalysis sa = analyze(setup);
  ASSERT_TRUE(sa.absint.complete) << sa.absint.incomplete_reason;
  std::vector<core::Finding> lints = sa.lint(program, decoder);
  bool imbalance = false;
  for (const core::Finding& f : lints)
    if (f.rule == "stack-imbalance") {
      imbalance = true;
      EXPECT_EQ(f.oracle, core::OracleKind::kStackSmash);
    }
  EXPECT_TRUE(imbalance);
}

TEST_F(AnalysisTest, LintFlagsAlwaysTrueAssert) {
  core::Program program = load_source(R"(
_start:
    li a0, 1
    li a7, 4
    ecall
    li a0, 0
    li a7, 93
    ecall
)");
  bench::EngineSetup setup{decoder, registry, program};
  analysis::StaticAnalysis sa = analyze(setup);
  ASSERT_TRUE(sa.absint.complete);
  std::vector<core::Finding> lints = sa.lint(program, decoder);
  bool always_true = false;
  for (const core::Finding& f : lints)
    if (f.rule == "always-true-assert") {
      always_true = true;
      EXPECT_EQ(f.oracle, core::OracleKind::kAssertFail);
    }
  EXPECT_TRUE(always_true);
}

TEST_F(AnalysisTest, LintStaysQuietOnBalancedCode) {
  core::Program program = load_source(R"(
_start:
    jal ra, fine
    li a0, 0
    li a7, 93
    ecall
fine:
    addi sp, sp, -16
    sw ra, 12(sp)
    lw ra, 12(sp)
    addi sp, sp, 16
    ret
)");
  bench::EngineSetup setup{decoder, registry, program};
  analysis::StaticAnalysis sa = analyze(setup);
  ASSERT_TRUE(sa.absint.complete) << sa.absint.incomplete_reason;
  EXPECT_TRUE(sa.lint(program, decoder).empty());
}

// -- proves_safe rule table. -------------------------------------------------

TEST_F(AnalysisTest, ProvesSafeRespectsPerOracleRules) {
  // A store at a constant, aligned, in-bounds address: provable for the
  // oob/unaligned families; never provable for the families the static
  // model cannot discharge.
  core::Program program = load_source(R"(
_start:
    la t0, buf
    li t1, 7
    sw t1, 0(t0)
    li a0, 0
    li a7, 93
    ecall
.data
buf: .space 8
)");
  bench::EngineSetup setup{decoder, registry, program};
  analysis::StaticAnalysis sa = analyze(setup);
  ASSERT_TRUE(sa.absint.complete);

  uint32_t store_pc = 0;
  for (const auto& [pc, d] : sa.absint.code)
    if (d.id() == isa::kSW) store_pc = pc;
  ASSERT_NE(store_pc, 0u);

  EXPECT_TRUE(sa.facts.proves_safe(core::OracleKind::kOobStore, store_pc));
  EXPECT_TRUE(sa.facts.proves_safe(core::OracleKind::kUnaligned, store_pc));
  // A load oracle candidate cannot exist at a store site — and the prover
  // must not claim stores safe for it either way (direction must match).
  EXPECT_FALSE(sa.facts.proves_safe(core::OracleKind::kOobLoad, store_pc));
  // kStackSmash / kBadJump / kReach are never statically proven.
  EXPECT_FALSE(sa.facts.proves_safe(core::OracleKind::kStackSmash, store_pc));
  EXPECT_FALSE(sa.facts.proves_safe(core::OracleKind::kBadJump, store_pc));
  EXPECT_FALSE(sa.facts.proves_safe(core::OracleKind::kReach, store_pc));

  // An incomplete analysis proves nothing at the same sites.
  analysis::StaticFacts gated = sa.facts;
  gated.complete = false;
  EXPECT_FALSE(gated.proves_safe(core::OracleKind::kOobStore, store_pc));
  EXPECT_FALSE(gated.proves_safe(core::OracleKind::kUnaligned, store_pc));
}

// -- Stack-window precision: ret resolves through saved/restored ra. ---------

TEST_F(AnalysisTest, SavedLinkRegisterSurvivesTheStackWindow) {
  // helper spills ra, clobbers it, reloads it and returns: only the
  // flow-sensitive stack bytes make the final `ret` resolvable.
  core::Program program = load_source(R"(
_start:
    jal ra, helper
    li a0, 0
    li a7, 93
    ecall
helper:
    addi sp, sp, -16
    sw ra, 12(sp)
    li ra, 0
    lw ra, 12(sp)
    addi sp, sp, 16
    ret
)");
  bench::EngineSetup setup{decoder, registry, program};
  analysis::StaticAnalysis sa = analyze(setup);
  EXPECT_TRUE(sa.absint.complete) << sa.absint.incomplete_reason;
  // The instruction after the call is reached — the return resolved.
  EXPECT_TRUE(sa.absint.reached(program.entry + 4));
}

}  // namespace
}  // namespace binsym
