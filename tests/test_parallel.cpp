// Tests for the parallel exploration engine: SearchStrategy implementations,
// the thread-safe Frontier, portable FlipJob seeds and worker-pool vs
// sequential equivalence. The Table I path sets across every strategy and
// worker count are pinned by the invariance matrix (test_invariance.cpp).
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "asm/assembler.hpp"
#include "core/engine.hpp"
#include "core/frontier.hpp"
#include "core/search.hpp"
#include "elf/elf32.hpp"
#include "exploration_util.hpp"
#include "isa/decoder.hpp"
#include "spec/registry.hpp"

namespace binsym {
namespace {

using core::FlipJob;
using core::SearchKind;

FlipJob job_with_bound(size_t bound) {
  FlipJob job;
  job.bound = bound;
  return job;
}

TEST(SearchStrategy, DepthFirstPopsDeepestFirst) {
  auto strategy = core::make_search_strategy(SearchKind::kDepthFirst);
  strategy->push(job_with_bound(1));
  strategy->push(job_with_bound(2));
  strategy->push(job_with_bound(3));
  EXPECT_EQ(strategy->size(), 3u);
  EXPECT_EQ(strategy->pop().bound, 3u);
  EXPECT_EQ(strategy->pop().bound, 2u);
  EXPECT_EQ(strategy->pop().bound, 1u);
  EXPECT_TRUE(strategy->empty());
}

TEST(SearchStrategy, BreadthFirstPopsShallowestFirst) {
  auto strategy = core::make_search_strategy(SearchKind::kBreadthFirst);
  strategy->push(job_with_bound(1));
  strategy->push(job_with_bound(2));
  strategy->push(job_with_bound(3));
  EXPECT_EQ(strategy->pop().bound, 1u);
  EXPECT_EQ(strategy->pop().bound, 2u);
  EXPECT_EQ(strategy->pop().bound, 3u);
}

TEST(SearchStrategy, RandomPathIsSeedDeterministicAndComplete) {
  auto order_for = [](uint64_t seed) {
    auto strategy = core::make_search_strategy(SearchKind::kRandomPath, seed);
    for (size_t i = 0; i < 16; ++i) strategy->push(job_with_bound(i));
    std::vector<size_t> order;
    while (!strategy->empty()) order.push_back(strategy->pop().bound);
    return order;
  };
  std::vector<size_t> a = order_for(7), b = order_for(7), c = order_for(8);
  EXPECT_EQ(a, b);  // same seed, same schedule
  EXPECT_NE(a, c);  // different seed, different schedule (16! >> collisions)
  std::set<size_t> unique(a.begin(), a.end());
  EXPECT_EQ(unique.size(), 16u);  // every job popped exactly once
}

TEST(SearchStrategy, CoverageGuidedPrefersLeastVisitedPc) {
  auto strategy = core::make_search_strategy(SearchKind::kCoverageGuided);
  core::PathTrace trace;
  trace.branches.push_back(core::BranchRecord{nullptr, true, 0x100});
  trace.branches.push_back(core::BranchRecord{nullptr, true, 0x100});
  trace.branches.push_back(core::BranchRecord{nullptr, false, 0x200});
  strategy->observe(trace);  // visits: 0x100 -> 2, 0x200 -> 1, 0x300 -> 0

  FlipJob hot;
  hot.flip_pc = 0x100;
  FlipJob warm;
  warm.flip_pc = 0x200;
  warm.seq = 1;
  FlipJob cold;
  cold.flip_pc = 0x300;
  cold.seq = 2;
  strategy->push(hot);
  strategy->push(warm);
  strategy->push(cold);
  EXPECT_EQ(strategy->pop().flip_pc, 0x300u);
  EXPECT_EQ(strategy->pop().flip_pc, 0x200u);
  EXPECT_EQ(strategy->pop().flip_pc, 0x100u);
}

TEST(Frontier, DrainsWhenNoJobInFlight) {
  core::Frontier frontier(core::make_search_strategy(SearchKind::kDepthFirst));
  frontier.push(FlipJob{});
  FlipJob job;
  ASSERT_TRUE(frontier.pop(&job));
  frontier.push(job_with_bound(1));  // child discovered while in flight
  frontier.job_done();
  ASSERT_TRUE(frontier.pop(&job));
  EXPECT_EQ(job.bound, 1u);
  frontier.job_done();
  EXPECT_FALSE(frontier.pop(&job));  // no jobs pending, none in flight
}

TEST(Frontier, StopWakesAndTerminates) {
  core::Frontier frontier(core::make_search_strategy(SearchKind::kDepthFirst));
  frontier.push(FlipJob{});
  FlipJob job;
  ASSERT_TRUE(frontier.pop(&job));
  // A second consumer blocks (queue empty, one job in flight) until stop().
  std::thread consumer([&] {
    FlipJob other;
    EXPECT_FALSE(frontier.pop(&other));
  });
  frontier.stop();
  consumer.join();
  EXPECT_TRUE(frontier.stopped());
  EXPECT_FALSE(frontier.pop(&job));
}

TEST(Frontier, BlockedConsumerReceivesPushedWork) {
  core::Frontier frontier(core::make_search_strategy(SearchKind::kDepthFirst));
  frontier.push(FlipJob{});
  FlipJob job;
  ASSERT_TRUE(frontier.pop(&job));  // this test acts as the in-flight worker
  FlipJob received;
  std::thread consumer([&] {
    ASSERT_TRUE(frontier.pop(&received));
    frontier.job_done();
  });
  frontier.push(job_with_bound(42));
  consumer.join();
  EXPECT_EQ(received.bound, 42u);
  frontier.job_done();
  EXPECT_FALSE(frontier.pop(&job));
}

TEST(FlipJob, SeedsArePortableAcrossContexts) {
  // Jobs cross worker boundaries: a seed mined from one worker's context
  // must rebind onto another context where "in_0" has a different node id.
  smt::Context producer;
  smt::ExprRef in0 = producer.var("in_0", 8);
  smt::Assignment seed;
  seed.set(in0->var_id, 0x42);

  FlipJob job = core::make_flip_job(producer, seed, 3, 0x80);
  EXPECT_EQ(job.bound, 3u);
  EXPECT_EQ(job.flip_pc, 0x80u);

  smt::Context consumer;
  consumer.var("unrelated", 32);  // shift var ids relative to the producer
  smt::Assignment rebound = core::seed_from_job(consumer, job);
  smt::ExprRef in0_consumer = consumer.var("in_0", 8);
  EXPECT_NE(in0_consumer->var_id, in0->var_id);
  EXPECT_EQ(rebound.get(in0_consumer->var_id), 0x42u);
}

// -- Engine-level equivalence. ----------------------------------------------

class ParallelEngineTest : public ::testing::Test {
 protected:
  ParallelEngineTest() { spec::install_rv32im(registry, table); }

  core::Program load(const std::string& source) {
    return elf::to_program(rvasm::assemble_or_die(table, source).image);
  }

  core::WorkerFactory factory_for(const core::Program& program) {
    return [this, &program](unsigned) {
      core::WorkerResources r;
      r.ctx = std::make_unique<smt::Context>();
      r.executor = std::make_unique<core::BinSymExecutor>(*r.ctx, decoder,
                                                          registry, program);
      r.solver = smt::make_z3_solver(*r.ctx);
      return r;
    };
  }

  /// Explore with `kind` and `jobs`; every run must enumerate each path
  /// once and report `jobs` workers.
  test::Exploration explore(const core::Program& program, SearchKind kind,
                            unsigned jobs, uint64_t max_paths = UINT64_MAX) {
    core::EngineOptions options;
    options.search = kind;
    options.jobs = jobs;
    options.max_paths = max_paths;
    test::Exploration run = test::explore(factory_for(program), options);
    EXPECT_EQ(run.path_keys.size(), run.stats.paths)
        << "a path was enumerated twice";
    EXPECT_EQ(run.stats.workers, jobs);
    return run;
  }

  isa::OpcodeTable table;
  isa::Decoder decoder{table};
  spec::Registry registry;
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

TEST_F(ParallelEngineTest, WorkerPoolMatchesSequentialExploration) {
  core::Program program = load(kGuardedFailureGuest);
  test::Exploration reference = explore(program, SearchKind::kDepthFirst, 1);
  EXPECT_GE(reference.stats.paths, 4u);
  // The failure site precedes two more branch sites, so the failing prefix
  // forks into several complete paths, each reporting id 7.
  EXPECT_GE(reference.failures.count(7), 1u);
  for (unsigned jobs : {2u, 4u}) {
    test::Exploration parallel =
        explore(program, SearchKind::kDepthFirst, jobs);
    EXPECT_EQ(parallel.stats.paths, reference.stats.paths) << jobs << " jobs";
    EXPECT_EQ(parallel.path_keys, reference.path_keys) << jobs << " jobs";
    EXPECT_EQ(parallel.failures, reference.failures) << jobs << " jobs";
  }
}

TEST_F(ParallelEngineTest, IdleWorkersMatchSequentialExploration) {
  // Fewer paths than workers: some workers never get a job and never build
  // a Z3 context, and the rest build theirs concurrently on their threads.
  core::Program program = load(kGuardedFailureGuest);
  test::Exploration reference = explore(program, SearchKind::kDepthFirst, 1);
  ASSERT_LT(reference.stats.paths, 8u);
  test::Exploration parallel = explore(program, SearchKind::kDepthFirst, 8);
  EXPECT_EQ(parallel.path_keys, reference.path_keys);
  EXPECT_EQ(parallel.failures, reference.failures);
}

TEST_F(ParallelEngineTest, MaxPathsBudgetIsExactUnderParallelism) {
  core::Program program = load(kGuardedFailureGuest);
  test::Exploration bounded = explore(program, SearchKind::kDepthFirst, 4, 3);
  EXPECT_EQ(bounded.stats.paths, 3u);
}

TEST_F(ParallelEngineTest, JobsAboveOneRequireWorkerFactory) {
  core::Program program = load(kGuardedFailureGuest);
  smt::Context ctx;
  core::BinSymExecutor executor(ctx, decoder, registry, program);
  core::EngineOptions options;
  options.jobs = 2;
  core::DseEngine engine(executor, smt::make_z3_solver(ctx), options);
  EXPECT_THROW(engine.explore(), std::invalid_argument);
}

}  // namespace
}  // namespace binsym
