// Tests for snapshot/fork execution (core/snapshot.hpp): copy-on-write
// page isolation, the SnapshotPool eviction policy, checkpoint-resume vs
// full-replay equivalence at the executor level, eviction fallback, and
// the end-to-end Table I determinism sweep
// {snapshot on, off} x {dfs, bfs, random, coverage} x jobs {1, 4}.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "asm/assembler.hpp"
#include "core/engine.hpp"
#include "core/snapshot.hpp"
#include "elf/elf32.hpp"
#include "isa/decoder.hpp"
#include "smt/eval.hpp"
#include "spec/registry.hpp"
#include "vp/vp_executor.hpp"
#include "workloads/workloads.hpp"

namespace binsym {
namespace {

using core::ConcreteMemory;
using core::SearchKind;
using core::Snapshot;

// -- Copy-on-write page semantics. ------------------------------------------

TEST(CowMemory, CopySharesPagesUntilFirstWrite) {
  ConcreteMemory a;
  a.write8(0x10, 7);
  ConcreteMemory b = a;  // table copy: zero pages duplicated so far
  EXPECT_EQ(b.read8(0x10), 7);

  b.write8(0x10, 9);  // CoW break in b only
  EXPECT_EQ(a.read8(0x10), 7);
  EXPECT_EQ(b.read8(0x10), 9);
  EXPECT_EQ(a.pages_copied(), 0u);
  EXPECT_EQ(b.pages_copied() - a.pages_copied(), 1u);
}

TEST(CowMemory, SiblingForksAreIsolated) {
  ConcreteMemory parent;
  parent.write(0x100, 4, 0xcafebabe);
  ConcreteMemory fork1 = parent;
  ConcreteMemory fork2 = parent;
  fork1.write8(0x100, 0x11);
  fork2.write8(0x100, 0x22);
  EXPECT_EQ(parent.read(0x100, 4), 0xcafebabeu);
  EXPECT_EQ(fork1.read8(0x100), 0x11);
  EXPECT_EQ(fork2.read8(0x100), 0x22);
  // A write to an already-private page must not copy again.
  uint64_t copies = fork1.pages_copied();
  fork1.write8(0x101, 0x33);
  EXPECT_EQ(fork1.pages_copied(), copies);
}

TEST(CowMemory, ResetRebindsImagePagesWithoutCopying) {
  ConcreteMemory image;
  for (uint32_t p = 0; p < 16; ++p)
    image.write8(p * ConcreteMemory::kPageSize, 0xab);

  smt::Context ctx;
  core::ConcolicMemory mem(ctx);
  for (int run = 0; run < 3; ++run) {
    mem.reset(image);
    EXPECT_EQ(mem.concrete().num_pages(), 16u);
    EXPECT_EQ(mem.concrete().pages_copied(), 0u) << "reset copied a page";
    EXPECT_EQ(mem.read_concrete(0, 1), 0xabu);
  }
  // The first write after a reset breaks exactly one page...
  mem.store(0x2, 1, interp::sval(0x44, 8));
  EXPECT_EQ(mem.concrete().pages_copied(), 1u);
  // ...privately: the image (and thus the next reset) is untouched.
  EXPECT_EQ(image.read8(0x2), 0);
  mem.reset(image);
  EXPECT_EQ(mem.read_concrete(0x2, 1), 0u);
}

TEST(CowMemory, ReshadowOnlyTouchesChangedBytes) {
  smt::Context ctx;
  core::ConcolicMemory mem(ctx);
  ConcreteMemory image;
  image.write8(0x50, 1);
  mem.reset(image);
  smt::ExprRef var = ctx.var("in_0", 8);
  mem.poke_symbolic(0x1000, var, 0x00);
  uint64_t copies_after_poke = mem.concrete().pages_copied();

  // Same value under the new seed: no write, no CoW break.
  smt::Assignment same;
  same.set(var->var_id, 0x00);
  smt::CachingEvaluator eval_same(same);
  mem.reshadow(eval_same);
  EXPECT_EQ(mem.concrete().pages_copied(), copies_after_poke);

  // Changed value: the shadow byte is rewritten.
  smt::Assignment changed;
  changed.set(var->var_id, 0x7f);
  smt::CachingEvaluator eval_changed(changed);
  mem.reshadow(eval_changed);
  EXPECT_EQ(mem.read_concrete(0x1000, 1), 0x7fu);
}

// -- SnapshotPool. -----------------------------------------------------------

std::shared_ptr<const Snapshot> snapshot_at_depth(size_t depth) {
  auto snap = std::make_shared<Snapshot>();
  snap->branches.resize(depth);
  return snap;
}

TEST(SnapshotPool, EvictsLowestDepthTimesReuseScore) {
  core::SnapshotPool pool(2);
  auto deep = snapshot_at_depth(5);
  auto shallow = snapshot_at_depth(1);
  pool.insert(deep);
  pool.insert(deep);  // reuse bump: score (5+1)*2
  pool.insert(shallow);  // score (1+1)*1
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.evictions(), 0u);

  std::weak_ptr<const Snapshot> deep_handle = deep;
  std::weak_ptr<const Snapshot> shallow_handle = shallow;
  deep.reset();
  shallow.reset();

  pool.insert(snapshot_at_depth(3));  // over budget: shallow must go
  EXPECT_EQ(pool.evictions(), 1u);
  EXPECT_TRUE(shallow_handle.expired());
  EXPECT_FALSE(deep_handle.expired());
}

TEST(SnapshotPool, ZeroBudgetKeepsNothing) {
  core::SnapshotPool pool(0);
  auto snap = snapshot_at_depth(4);
  std::weak_ptr<const Snapshot> handle = snap;
  pool.insert(snap);
  snap.reset();
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_TRUE(handle.expired());
}

TEST(SnapshotPool, DeepestAtMostSelectsByDepth) {
  std::vector<std::shared_ptr<const Snapshot>> captures = {
      snapshot_at_depth(2), snapshot_at_depth(5), snapshot_at_depth(9)};
  EXPECT_EQ(core::deepest_at_most(captures, 1), nullptr);
  EXPECT_EQ(core::deepest_at_most(captures, 2)->depth(), 2u);
  EXPECT_EQ(core::deepest_at_most(captures, 7)->depth(), 5u);
  EXPECT_EQ(core::deepest_at_most(captures, 100)->depth(), 9u);
  EXPECT_EQ(core::deepest_at_most({}, 3), nullptr);
}

// -- Executor-level resume vs full-replay equivalence. -----------------------

class SnapshotExecutorTest : public ::testing::Test {
 protected:
  SnapshotExecutorTest() { spec::install_rv32im(registry, table); }

  core::Program load(const std::string& source) {
    return elf::to_program(rvasm::assemble_or_die(table, source).image);
  }

  isa::OpcodeTable table;
  isa::Decoder decoder{table};
  spec::Registry registry;
};

// Three sequential symbolic branches plus a symbolic-value store: enough
// state for a checkpoint to carry registers, memory shadow and output.
constexpr const char* kThreeBranchGuest = R"(
_start:
    la a0, buf
    li a1, 3
    li a7, 2
    ecall
    la s0, buf
    lbu t0, 0(s0)
    lbu t1, 1(s0)
    lbu t2, 2(s0)
    sb t1, 3(s0)
    bnez t0, skip1
    li a0, 0x41
    li a7, 1
    ecall
skip1:
    bltu t1, t2, skip2
    nop
skip2:
    beqz t2, skip3
    nop
skip3:
    li a0, 0
    li a7, 93
    ecall
.data
buf: .space 4
)";

void expect_traces_equal(const core::PathTrace& a, const core::PathTrace& b) {
  ASSERT_EQ(a.branches.size(), b.branches.size());
  for (size_t i = 0; i < a.branches.size(); ++i) {
    EXPECT_EQ(a.branches[i].cond, b.branches[i].cond) << "branch " << i;
    EXPECT_EQ(a.branches[i].taken, b.branches[i].taken) << "branch " << i;
    EXPECT_EQ(a.branches[i].pc, b.branches[i].pc) << "branch " << i;
  }
  ASSERT_EQ(a.assumptions.size(), b.assumptions.size());
  for (size_t i = 0; i < a.assumptions.size(); ++i) {
    EXPECT_EQ(a.assumptions[i].branch_index, b.assumptions[i].branch_index);
    EXPECT_EQ(a.assumptions[i].expr, b.assumptions[i].expr);
  }
  EXPECT_EQ(a.input_vars, b.input_vars);
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.exit, b.exit);
  EXPECT_EQ(a.exit_code, b.exit_code);
  ASSERT_EQ(a.failures.size(), b.failures.size());
  for (size_t i = 0; i < a.failures.size(); ++i) {
    EXPECT_EQ(a.failures[i].id, b.failures[i].id);
    EXPECT_EQ(a.failures[i].pc, b.failures[i].pc);
  }
}

TEST_F(SnapshotExecutorTest, ResumeReproducesFullReplayBitForBit) {
  core::Program program = load(kThreeBranchGuest);
  smt::Context ctx;
  core::BinSymExecutor executor(ctx, decoder, registry, program);

  // Capture checkpoints at every branch depth under the all-zero seed.
  std::vector<std::shared_ptr<const Snapshot>> captures;
  core::SnapshotPlan plan{&captures, 1};
  core::PathTrace base;
  executor.run_with_snapshots(smt::Assignment{}, base, plan);
  ASSERT_EQ(base.branches.size(), 3u);
  ASSERT_GE(captures.size(), 2u);

  // A seed that agrees with the all-zero run on branch 0 (in_0 == 0) but
  // changes everything from branch 1 on.
  smt::Assignment flipped;
  flipped.set(ctx.var("in_0", 8)->var_id, 0);
  flipped.set(ctx.var("in_1", 8)->var_id, 2);
  flipped.set(ctx.var("in_2", 8)->var_id, 7);

  core::PathTrace replayed;
  executor.run(flipped, replayed);
  EXPECT_NE(replayed.output, "");  // branch 0 not taken -> putchar('A')

  for (const auto& snap : captures) {
    if (snap->depth() > 1) continue;  // prefix beyond branch 0 differs
    core::PathTrace resumed;
    ASSERT_TRUE(executor.resume(*snap, flipped, resumed,
                                core::SnapshotPlan{nullptr, 1}));
    expect_traces_equal(replayed, resumed);
  }
}

TEST_F(SnapshotExecutorTest, ResumeDoesNotLeakWritesIntoSiblings) {
  core::Program program = load(kThreeBranchGuest);
  smt::Context ctx;
  core::BinSymExecutor executor(ctx, decoder, registry, program);

  std::vector<std::shared_ptr<const Snapshot>> captures;
  core::SnapshotPlan plan{&captures, 1};
  core::PathTrace base;
  executor.run_with_snapshots(smt::Assignment{}, base, plan);
  auto snap = core::deepest_at_most(captures, 1);
  ASSERT_NE(snap, nullptr);

  // Resume two sibling forks with different in_1 (stored to buf+3 by the
  // guest before the first branch, so the differing byte lives in the
  // checkpoint's re-shadowed memory). Each fork's copy-on-write state must
  // not leak into the shared snapshot: the second resume must see the
  // snapshot's state, not the first fork's.
  core::PathTrace traces[2];
  std::string outputs[2];
  for (int fork = 0; fork < 2; ++fork) {
    smt::Assignment seed;
    seed.set(ctx.var("in_1", 8)->var_id, fork == 0 ? 0x11 : 0x22);
    ASSERT_TRUE(executor.resume(*snap, seed, traces[fork],
                                core::SnapshotPlan{nullptr, 1}));
    core::PathTrace replayed;
    executor.run(seed, replayed);
    expect_traces_equal(replayed, traces[fork]);
  }
}

TEST_F(SnapshotExecutorTest, VpExecutorRestoresQuantumKeeper) {
  core::Program program = load(kThreeBranchGuest);
  smt::Context ctx;
  vp::VpExecutor executor(ctx, decoder, registry, program);

  std::vector<std::shared_ptr<const Snapshot>> captures;
  core::SnapshotPlan plan{&captures, 1};
  core::PathTrace base;
  executor.run_with_snapshots(smt::Assignment{}, base, plan);
  ASSERT_GE(captures.size(), 1u);
  EXPECT_NE(captures.front()->extra, nullptr);

  smt::Assignment seed;
  seed.set(ctx.var("in_2", 8)->var_id, 1);
  const uint64_t cycles_before_replay = executor.quantum_keeper().cycles();
  core::PathTrace replayed;
  executor.run(seed, replayed);
  const uint64_t replay_cycles =
      executor.quantum_keeper().cycles() - cycles_before_replay;

  core::PathTrace resumed;
  ASSERT_TRUE(executor.resume(*captures.front(), seed, resumed,
                              core::SnapshotPlan{nullptr, 1}));
  expect_traces_equal(replayed, resumed);
  // Simulated time is part of the restored state. The keeper is monotonic
  // across runs, and the capturing run started at cycle 0, so the resumed
  // run must end at exactly prefix + suffix cycles — the same simulated
  // duration the full replay took.
  EXPECT_EQ(executor.quantum_keeper().cycles(), replay_cycles);
}

// -- Engine-level: fallback paths and the determinism sweep. -----------------

class SnapshotEngineTest : public SnapshotExecutorTest {
 protected:
  core::WorkerFactory factory_for(const core::Program& program,
                                  const std::string& engine = "binsym") {
    return [this, &program, engine](unsigned) {
      core::WorkerResources r;
      r.ctx = std::make_unique<smt::Context>();
      if (engine == "vp") {
        r.executor = std::make_unique<vp::VpExecutor>(*r.ctx, decoder,
                                                      registry, program);
      } else {
        r.executor = std::make_unique<core::BinSymExecutor>(
            *r.ctx, decoder, registry, program);
      }
      r.solver = smt::make_z3_solver(*r.ctx);
      return r;
    };
  }

  struct Exploration {
    core::EngineStats stats;
    std::set<std::string> path_keys;
    std::multiset<uint32_t> failures;
  };

  Exploration explore(const core::Program& program,
                      core::EngineOptions options,
                      const std::string& engine = "binsym") {
    core::DseEngine dse(factory_for(program, engine), options);
    Exploration result;
    result.stats = dse.explore([&](const core::PathResult& path) {
      std::string key;
      key.reserve(path.trace.branches.size());
      for (const core::BranchRecord& b : path.trace.branches)
        key += b.taken ? '1' : '0';
      result.path_keys.insert(key);
      for (const core::Failure& f : path.trace.failures)
        result.failures.insert(f.id);
    });
    return result;
  }
};

constexpr const char* kGuardedFailureGuest = R"(
_start:
    la a0, buf
    li a1, 3
    li a7, 2
    ecall
    la s0, buf
    lbu t0, 0(s0)
    lbu t1, 1(s0)
    lbu t2, 2(s0)
    li t3, 0x21
    bne t0, t3, skip1
    li a0, 7
    li a7, 3
    ecall
skip1:
    bltu t1, t2, skip2
    nop
skip2:
    beqz t2, skip3
    nop
skip3:
    li a0, 0
    li a7, 93
    ecall
.data
buf: .space 3
)";

TEST_F(SnapshotEngineTest, TinyBudgetFallsBackToReplayWithIdenticalPaths) {
  core::Program program = load(kGuardedFailureGuest);
  core::EngineOptions off;
  off.snapshot_budget = 0;
  Exploration reference = explore(program, off);
  EXPECT_EQ(reference.stats.snapshot_hits, 0u);
  EXPECT_EQ(reference.stats.snapshot_captures, 0u);

  // A one-entry pool evicts almost every checkpoint: expired handles must
  // fall back to full replay and still discover the identical path set.
  core::EngineOptions tiny;
  tiny.snapshot_budget = 1;
  tiny.snapshot_interval = 1;
  Exploration starved = explore(program, tiny);
  EXPECT_GT(starved.stats.snapshot_misses, 0u);
  EXPECT_EQ(starved.path_keys, reference.path_keys);
  EXPECT_EQ(starved.failures, reference.failures);

  core::EngineOptions roomy;  // snapshots on (default), dense captures so
  roomy.snapshot_interval = 1;  // even this 3-branch guest checkpoints
  Exploration resumed = explore(program, roomy);
  EXPECT_GT(resumed.stats.snapshot_hits, 0u);
  EXPECT_EQ(resumed.path_keys, reference.path_keys);
  EXPECT_EQ(resumed.failures, reference.failures);
}

TEST_F(SnapshotEngineTest, FailurePrefixesSurviveResume) {
  // The failing ecall sits *before* two more branch sites, so deeper flips
  // resume from checkpoints whose trace prefix already contains the
  // failure record — it must be replicated into every descendant path.
  core::Program program = load(kGuardedFailureGuest);
  core::EngineOptions off;
  off.snapshot_budget = 0;
  core::EngineOptions on;
  on.snapshot_interval = 1;
  Exploration reference = explore(program, off);
  Exploration resumed = explore(program, on);
  EXPECT_GE(reference.failures.count(7), 1u);
  EXPECT_EQ(resumed.failures, reference.failures);
  EXPECT_EQ(resumed.path_keys, reference.path_keys);
}

TEST_F(SnapshotEngineTest, VpEngineExploresIdenticallyWithSnapshots) {
  core::Program program = workloads::load_workload(table, "clif-parser");
  core::EngineOptions off;
  off.snapshot_budget = 0;
  core::EngineOptions on;
  Exploration reference = explore(program, off, "vp");
  Exploration resumed = explore(program, on, "vp");
  EXPECT_GT(resumed.stats.snapshot_hits, 0u);
  EXPECT_EQ(resumed.stats.paths, reference.stats.paths);
  EXPECT_EQ(resumed.path_keys, reference.path_keys);
}

// -- Table I determinism sweep: {snapshot on, off} x strategies x jobs. ------
//
// Snapshots change how a scheduled flip is *executed*, never which flips
// are scheduled, so the discovered path set must stay bit-identical to the
// replay engine across every strategy and worker count — the property that
// keeps Table I reproduction intact (and the acceptance bar of this
// subsystem).

class SnapshotDeterminism : public SnapshotEngineTest,
                            public ::testing::WithParamInterface<const char*> {
};

TEST_P(SnapshotDeterminism, PathSetInvariantAcrossSnapshotsStrategiesJobs) {
  core::Program program = workloads::load_workload(table, GetParam());
  core::EngineOptions reference_options;
  reference_options.snapshot_budget = 0;
  Exploration reference = explore(program, reference_options);
  EXPECT_GT(reference.stats.paths, 100u);
  EXPECT_EQ(reference.stats.paths, reference.path_keys.size());

  for (bool snapshots : {true, false}) {
    for (SearchKind kind : core::all_search_kinds()) {
      for (unsigned jobs : {1u, 4u}) {
        if (!snapshots && kind == SearchKind::kDepthFirst && jobs == 1)
          continue;  // the reference configuration
        core::EngineOptions options;
        if (!snapshots) options.snapshot_budget = 0;
        options.search = kind;
        options.jobs = jobs;
        Exploration run = explore(program, options);
        std::string label = std::string(snapshots ? "snapshot" : "replay") +
                            " " + core::search_kind_name(kind) + " jobs=" +
                            std::to_string(jobs);
        EXPECT_EQ(run.stats.paths, reference.stats.paths) << label;
        EXPECT_EQ(run.path_keys, reference.path_keys) << label;
        EXPECT_EQ(run.failures, reference.failures) << label;
        if (snapshots && jobs == 1) {
          EXPECT_GT(run.stats.snapshot_hits, 0u) << label;
        }
        if (!snapshots) {
          EXPECT_EQ(run.stats.snapshot_captures, 0u) << label;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Table1, SnapshotDeterminism,
                         ::testing::Values("base64-encode", "bubble-sort",
                                           "clif-parser", "insertion-sort",
                                           "uri-parser"));

}  // namespace
}  // namespace binsym
