// The bug-finding oracle subsystem (src/oracles + core/finding.hpp):
//
//   * units — MemoryMap bounds, FindingLog dedup, oracle-name round-trip,
//     --oracles spec parsing;
//   * the detection campaign — every workloads/buggy-*.s known bug set is
//     found *exactly* (no dupes, no misses) across {dfs, coverage} x
//     jobs {1, 4}, with identical (oracle, pc, call-depth) triples in
//     every configuration;
//   * witness replay — every emitted witness input, run concretely,
//     reproduces its finding as an observed hit at the same site;
//   * non-interference — attaching oracles changes no explored path set,
//     and a bug-free workload yields zero findings.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/engine.hpp"
#include "isa/decoder.hpp"
#include "oracles/detectors.hpp"
#include "oracles/manager.hpp"
#include "oracles/report.hpp"
#include "smt/solver.hpp"
#include "spec/registry.hpp"
#include "support/format.hpp"
#include "workloads/workloads.hpp"

namespace binsym {
namespace {

using core::OracleKind;

// (oracle, pc, call_depth): the dedup identity of a finding.
using Key = std::tuple<OracleKind, uint32_t, uint32_t>;

Key key_of(const core::Finding& f) {
  return Key{f.oracle, f.pc, f.call_depth};
}

class OracleTest : public ::testing::Test {
 protected:
  OracleTest() {
    spec::install_rv32im(registry, table);
    spec::install_custom_madd(table, registry);
    spec::install_zbb(table, registry);
  }

  core::Program load(const std::string& name) {
    return workloads::load_workload(table, name);
  }

  /// Worker factory mirroring the explore CLI's binsym setup, optionally
  /// with the full oracle set attached (the manager joins the keepalive).
  core::WorkerFactory factory(const core::Program& program,
                              bool with_oracles) {
    return [this, &program, with_oracles](unsigned) {
      core::WorkerResources r;
      r.ctx = std::make_unique<smt::Context>();
      r.executor = std::make_unique<core::BinSymExecutor>(
          *r.ctx, decoder, registry, program);
      r.solver = smt::make_z3_solver(*r.ctx);
      if (with_oracles) {
        std::string error;
        auto manager = oracles::OracleManager::make(
            *r.ctx,
            oracles::MemoryMap::for_program(program,
                                            core::MachineConfig{}.stack_top),
            "all", &error);
        EXPECT_TRUE(manager) << error;
        r.executor->set_observer(manager.get());
        struct Keep {
          std::unique_ptr<oracles::OracleManager> manager;
        };
        auto keep = std::make_shared<Keep>();
        keep->manager = std::move(manager);
        r.keepalive = std::move(keep);
      }
      return r;
    };
  }

  isa::OpcodeTable table;
  isa::Decoder decoder{table};
  spec::Registry registry;
};

// -- Units. ------------------------------------------------------------------

TEST(OracleNames, RoundTripAndDocContract) {
  for (uint8_t k = 0; k < static_cast<uint8_t>(OracleKind::kNumOracleKinds);
       ++k) {
    OracleKind kind = static_cast<OracleKind>(k);
    const std::string name = core::oracle_kind_name(kind);
    EXPECT_NE(name, "?");
    EXPECT_EQ(core::oracle_kind_from_name(name), kind);
    // Every kind has a constructible detector reporting that kind.
    auto oracle = oracles::make_oracle(kind);
    ASSERT_TRUE(oracle);
    EXPECT_EQ(oracle->kind(), kind);
  }
  EXPECT_EQ(core::oracle_kind_from_name("no-such-oracle"),
            OracleKind::kNumOracleKinds);
}

TEST(OracleSpec, ParsesAllAndLists) {
  std::vector<OracleKind> kinds;
  std::string error;
  EXPECT_TRUE(oracles::OracleManager::parse_spec("all", &kinds, &error));
  EXPECT_EQ(kinds.size(),
            static_cast<size_t>(OracleKind::kNumOracleKinds));
  EXPECT_TRUE(oracles::OracleManager::parse_spec("oob-load,reach", &kinds,
                                                 &error));
  EXPECT_EQ(kinds, (std::vector<OracleKind>{OracleKind::kOobLoad,
                                            OracleKind::kReach}));
  EXPECT_FALSE(oracles::OracleManager::parse_spec("oob-load,bogus", &kinds,
                                                  &error));
  EXPECT_NE(error.find("bogus"), std::string::npos);
  EXPECT_FALSE(oracles::OracleManager::parse_spec("", &kinds, &error));
}

TEST(MemoryMapTest, ConcreteContainment) {
  core::Program program;
  program.load_bytes(0x1000, std::vector<uint8_t>(0x40, 0));
  oracles::MemoryMap map =
      oracles::MemoryMap::for_program(program, /*stack_top=*/0x10000,
                                      /*stack_reserve=*/0x100);
  EXPECT_TRUE(map.contains(0x1000, 1));
  EXPECT_TRUE(map.contains(0x103c, 4));
  EXPECT_FALSE(map.contains(0x103d, 4));  // straddles the segment end
  EXPECT_FALSE(map.contains(0x0fff, 1));
  EXPECT_FALSE(map.contains(0x1040, 1));
  EXPECT_TRUE(map.contains(0xff00, 4));   // stack region
  EXPECT_TRUE(map.contains(0xfffc, 4));
  EXPECT_FALSE(map.contains(0xfffd, 4));  // crosses stack_top
  EXPECT_FALSE(map.contains(0x10000, 1));
}

TEST(MemoryMapTest, SymbolicOutOfBoundsMatchesConcrete) {
  core::Program program;
  program.load_bytes(0x1000, std::vector<uint8_t>(0x40, 0));
  oracles::MemoryMap map =
      oracles::MemoryMap::for_program(program, 0x10000, 0x100);
  smt::Context ctx;
  smt::ExprRef addr = ctx.var("a", 32);
  smt::ExprRef oob = map.out_of_bounds(ctx, addr, 4);
  for (uint32_t probe : {0x0u, 0xfffu, 0x1000u, 0x103cu, 0x103du, 0x1040u,
                         0xff00u, 0xfffcu, 0xfffdu, 0xffffffffu}) {
    smt::Assignment assignment;
    assignment.set(addr->var_id, probe);
    EXPECT_EQ(smt::evaluate(oob, assignment) == 1, !map.contains(probe, 4))
        << "probe " << probe;
  }
}

TEST(FindingLogTest, DedupByOraclePcDepth) {
  core::FindingLog log;
  core::Finding f;
  f.oracle = OracleKind::kOobLoad;
  f.pc = 0x1234;
  f.call_depth = 1;
  EXPECT_TRUE(log.insert(f));
  EXPECT_FALSE(log.insert(f));  // duplicate key
  EXPECT_TRUE(log.contains(OracleKind::kOobLoad, 0x1234, 1));
  EXPECT_FALSE(log.contains(OracleKind::kOobStore, 0x1234, 1));
  f.oracle = OracleKind::kOobStore;
  EXPECT_TRUE(log.insert(f));  // other oracle, same site
  f.call_depth = 2;
  EXPECT_TRUE(log.insert(f));  // other depth
  EXPECT_EQ(log.size(), 3u);
  log.clear();
  EXPECT_EQ(log.size(), 0u);
}

// -- The detection campaign. -------------------------------------------------

struct KnownBugs {
  const char* workload;
  // Expected (oracle, call_depth) pairs — pcs are layout-dependent, so the
  // sweep instead pins exact cross-configuration pc agreement.
  std::vector<std::pair<OracleKind, uint32_t>> bugs;
};

const std::vector<KnownBugs>& known_bugs() {
  static const std::vector<KnownBugs> list = {
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
  return list;
}

TEST_F(OracleTest, CampaignFindsEveryKnownBugSetExactly) {
  for (const KnownBugs& expected : known_bugs()) {
    SCOPED_TRACE(expected.workload);
    core::Program program = load(expected.workload);

    std::set<Key> reference;
    bool have_reference = false;
    for (core::SearchKind search :
         {core::SearchKind::kDepthFirst, core::SearchKind::kCoverageGuided}) {
      for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE(strprintf("search=%s jobs=%u",
                               core::search_kind_name(search), jobs));
        core::EngineOptions options;
        options.search = search;
        options.jobs = jobs;
        core::DseEngine engine(factory(program, /*with_oracles=*/true),
                               options);
        core::EngineStats stats = engine.explore();
        std::vector<core::Finding> findings = engine.findings();

        // No dupes in the log itself, and the stats agree with it.
        std::set<Key> keys;
        for (const core::Finding& f : findings) keys.insert(key_of(f));
        EXPECT_EQ(keys.size(), findings.size());
        EXPECT_EQ(stats.findings, findings.size());
        // Candidates and flips share one answer path, so every logical
        // query is a cache hit or a cache miss.
        EXPECT_EQ(stats.solver.queries,
                  stats.solver.cache_hits + stats.solver.cache_misses);

        // Exactly the known bug set, as (oracle, depth) pairs.
        std::multiset<std::pair<OracleKind, uint32_t>> got, want;
        for (const core::Finding& f : findings)
          got.insert({f.oracle, f.call_depth});
        for (const auto& bug : expected.bugs) want.insert(bug);
        EXPECT_EQ(got, want);

        // Bit-identical (oracle, pc, depth) triples across every
        // configuration.
        if (!have_reference) {
          reference = keys;
          have_reference = true;
        } else {
          EXPECT_EQ(keys, reference);
        }

        // Every witness replays concretely to the same finding.
        for (const core::Finding& f : findings) {
          smt::Context replay_ctx;
          core::BinSymExecutor executor(replay_ctx, decoder, registry,
                                        program);
          std::string error;
          auto manager = oracles::OracleManager::make(
              replay_ctx,
              oracles::MemoryMap::for_program(
                  program, core::MachineConfig{}.stack_top),
              "all", &error);
          ASSERT_TRUE(manager) << error;
          executor.set_observer(manager.get());
          core::PathTrace trace;
          executor.run(oracles::witness_seed(replay_ctx, f.input), trace);
          bool reproduced = false;
          for (const core::OracleHit& hit : trace.oracle_hits)
            reproduced |= hit.oracle == f.oracle && hit.pc == f.pc &&
                          hit.call_depth == f.call_depth;
          EXPECT_TRUE(reproduced)
              << "witness does not replay to "
              << core::oracle_kind_name(f.oracle) << " at pc " << f.pc;
        }
      }
    }
  }
}

TEST_F(OracleTest, ObserversDoNotChangeExploredPathSets) {
  for (const char* name : {"buggy-stack-smash", "buggy-assert"}) {
    SCOPED_TRACE(name);
    core::Program program = load(name);
    auto path_set = [&](bool with_oracles) {
      core::DseEngine engine(factory(program, with_oracles),
                             core::EngineOptions{});
      std::set<std::string> keys;
      engine.explore([&](const core::PathResult& path) {
        std::string key;
        for (const core::BranchRecord& b : path.trace.branches)
          key += b.taken ? '1' : '0';
        keys.insert(key);
      });
      return keys;
    };
    EXPECT_EQ(path_set(false), path_set(true));
  }
}

TEST_F(OracleTest, CleanWorkloadYieldsNoFindings) {
  core::Program program = load("uri-parser");
  core::EngineOptions options;
  options.max_paths = 200;
  core::DseEngine engine(factory(program, /*with_oracles=*/true), options);
  core::EngineStats stats = engine.explore();
  EXPECT_EQ(stats.findings, 0u);
  EXPECT_EQ(stats.candidates_feasible, 0u);
  EXPECT_TRUE(engine.findings().empty());
  EXPECT_GT(stats.candidates_checked, 0u);  // the oracles did look
}

TEST_F(OracleTest, WitnessSeedAssignsBytesInCreationOrder) {
  smt::Context ctx;
  std::vector<uint8_t> bytes{0xaa, 0xbb, 0xcc};
  smt::Assignment seed = oracles::witness_seed(ctx, bytes);
  EXPECT_EQ(seed.get(ctx.var("in_0", 8)->var_id), 0xaau);
  EXPECT_EQ(seed.get(ctx.var("in_1", 8)->var_id), 0xbbu);
  EXPECT_EQ(seed.get(ctx.var("in_2", 8)->var_id), 0xccu);
}

}  // namespace
}  // namespace binsym
