// DSE engine tests: exact path counts on programs with known path spaces,
// DFS exactly-once enumeration, assumption handling (address
// concretization), failure discovery and engine options.
#include <gtest/gtest.h>

#include <set>

#include "asm/assembler.hpp"
#include "core/engine.hpp"
#include "elf/elf32.hpp"
#include "exploration_util.hpp"
#include "isa/decoder.hpp"
#include "spec/registry.hpp"

namespace binsym {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() { spec::install_rv32im(registry, table); }

  core::Program load(const std::string& source) {
    return elf::to_program(rvasm::assemble_or_die(table, source).image);
  }

  core::EngineStats explore(const core::Program& program,
                            const core::DseEngine::PathCallback& cb = nullptr,
                            core::EngineOptions options = {}) {
    smt::Context ctx;
    core::BinSymExecutor executor(ctx, decoder, registry, program);
    core::DseEngine engine(executor, smt::make_z3_solver(ctx), options);
    return engine.explore(cb);
  }

  isa::OpcodeTable table;
  isa::Decoder decoder{table};
  spec::Registry registry;
};

constexpr const char* kPrologue = R"(
_start:
    la a0, buf
    li a1, 4
    li a7, 2
    ecall
    la s0, buf
)";
constexpr const char* kEpilogue = R"(
    li a0, 0
    li a7, 93
    ecall
.data
buf: .space 4
)";

TEST_F(EngineTest, IndependentBitsGiveTwoToTheN) {
  // Four independent byte comparisons: exactly 2^4 paths.
  std::string source = std::string(kPrologue) + R"(
    li s1, 0
    lbu t0, 0(s0)
    sltiu t1, t0, 100
    add s1, s1, t1
    lbu t0, 1(s0)
    beqz t0, skip1
    addi s1, s1, 1
skip1:
    lbu t0, 2(s0)
    beqz t0, skip2
    addi s1, s1, 1
skip2:
    lbu t0, 3(s0)
    beqz t0, skip3
    addi s1, s1, 1
skip3:
)" + kEpilogue;
  // sltiu produces no branch; three branches + one comparison-free add:
  // wait — only the three beqz fork. The sltiu is data, not control.
  EXPECT_EQ(explore(load(source)).paths, 8u);
}

TEST_F(EngineTest, NestedBranchesCountFeasibleOnly) {
  // if (b0 < 10) { if (b0 > 20) unreachable; }  -> 3 feasible paths, one
  // infeasible flip.
  std::string source = std::string(kPrologue) + R"(
    lbu t0, 0(s0)
    li t1, 10
    bgeu t0, t1, big
    li t1, 20
    bltu t1, t0, unreachable
    j out
big:
    j out
unreachable:
    li a0, 3
    li a7, 3
    ecall
out:
)" + kEpilogue;
  core::EngineStats stats = explore(load(source));
  EXPECT_EQ(stats.paths, 2u);
  EXPECT_EQ(stats.infeasible_flips, 1u);
  EXPECT_EQ(stats.failures, 0u);
}

TEST_F(EngineTest, PathsAreEnumeratedExactlyOnce) {
  std::string source = std::string(kPrologue) + R"(
    lbu t0, 0(s0)
    lbu t1, 1(s0)
    bltu t0, t1, x
    nop
x:
    li t2, 7
    bltu t0, t2, y
    nop
y:
)" + kEpilogue;
  std::set<std::string> outputs;
  uint64_t count = 0;
  explore(load(source), [&](const core::PathResult& path) {
    ++count;
    std::string key = test::path_key(path.trace);
    EXPECT_TRUE(outputs.insert(key).second) << "duplicate path " << key;
  });
  EXPECT_EQ(outputs.size(), count);
  EXPECT_EQ(count, 4u);
}

TEST_F(EngineTest, SeedsSatisfyTheirPathConditions) {
  std::string source = std::string(kPrologue) + R"(
    lbu t0, 0(s0)
    li t1, 0x42
    bne t0, t1, miss
    li a0, 5
    li a7, 3
    ecall
miss:
)" + kEpilogue;
  bool found = false;
  explore(load(source), [&](const core::PathResult& path) {
    if (!path.trace.failures.empty()) {
      found = true;
      EXPECT_EQ(path.trace.failures[0].id, 5u);
      // The discovered input must be the magic byte.
      EXPECT_EQ(path.seed.get(path.trace.input_vars[0]), 0x42u);
    }
  });
  EXPECT_TRUE(found) << "engine failed to discover the guarded failure";
}

TEST_F(EngineTest, SymbolicLoadAddressConcretized) {
  // Load from buf[b0 & 3]: the address depends on symbolic input, so the
  // machine pins it with an assumption; exploration still terminates and
  // branches on the loaded value work.
  std::string source = std::string(kPrologue) + R"(
    lbu t0, 0(s0)
    andi t0, t0, 3
    add t1, s0, t0
    lbu t2, 0(t1)            # symbolic address (concretized)
    beqz t2, z
    nop
z:
)" + kEpilogue;
  core::EngineStats stats = explore(load(source));
  EXPECT_GE(stats.paths, 2u);
  EXPECT_EQ(stats.divergences, 0u);
}

TEST_F(EngineTest, MaxPathsLimit) {
  std::string source = std::string(kPrologue) + R"(
    lbu t0, 0(s0)
    lbu t1, 1(s0)
    bltu t0, t1, a
a:  lbu t2, 2(s0)
    beqz t2, b
b:
)" + kEpilogue;
  core::EngineOptions options;
  options.max_paths = 2;
  EXPECT_EQ(explore(load(source), nullptr, options).paths, 2u);
}

TEST_F(EngineTest, DivuForksOnSymbolicDivisor) {
  // The paper's Sect. III-B behaviour: DIVU with a symbolic divisor forks
  // into divisor==0 and divisor!=0 (the spec's explicit runIfElse).
  std::string source = std::string(kPrologue) + R"(
    lbu t0, 0(s0)
    li t1, 100
    divu t2, t1, t0
)" + kEpilogue;
  EXPECT_EQ(explore(load(source)).paths, 2u);
}

TEST_F(EngineTest, Fig2DivisionParadoxIsReachable) {
  // Fig. 2: z = x / y with x,y symbolic; "x < z" IS reachable (y == 0
  // makes z all-ones). A hand-written engine assuming division shrinks
  // would miss it.
  std::string source = R"(
_start:
    la a0, buf
    li a1, 8
    li a7, 2
    ecall
    la s0, buf
    lw a0, 0(s0)             # x
    lw a1, 4(s0)             # y
    divu a1, a0, a1          # z = x / y   (Fig. 2 step 2)
    bltu a0, a1, fail        # if (x < z) goto fail
    j out
fail:
    li a0, 9
    li a7, 3
    ecall
out:
    li a0, 0
    li a7, 93
    ecall
.data
buf: .space 8
)";
  uint64_t failures = 0;
  explore(load(source), [&](const core::PathResult& path) {
    failures += path.trace.failures.size();
  });
  EXPECT_GE(failures, 1u) << "the division-by-zero branch must be reachable";
}

TEST_F(EngineTest, NoSymbolicInputSinglePath) {
  core::Program program = load(R"(
_start:
    li t0, 5
loop:
    addi t0, t0, -1
    bnez t0, loop
    li a0, 0
    li a7, 93
    ecall
)");
  core::EngineStats stats = explore(program);
  EXPECT_EQ(stats.paths, 1u);
  EXPECT_EQ(stats.flip_attempts, 0u);  // concrete branches never reach Z3
}

TEST_F(EngineTest, ValidatedModelsOption) {
  std::string source = std::string(kPrologue) + R"(
    lbu t0, 0(s0)
    lbu t1, 1(s0)
    bltu t0, t1, q
q:
)" + kEpilogue;
  core::EngineOptions options;
  options.validate_models = true;  // throws on a bad model
  EXPECT_EQ(explore(load(source), nullptr, options).paths, 2u);
}

}  // namespace
}  // namespace binsym
