// Quickstart: assemble a tiny guest program, explore it symbolically with
// BinSym, and print every discovered path with a satisfying input.
//
// The guest reads one symbolic byte and classifies it with two branches;
// the engine should discover exactly three paths and print an example
// input for each.
#include <cstdio>

#include "asm/assembler.hpp"
#include "core/engine.hpp"
#include "elf/elf32.hpp"
#include "isa/decoder.hpp"
#include "smt/solver.hpp"
#include "spec/registry.hpp"

using namespace binsym;

namespace {

constexpr const char* kGuestSource = R"(
.text
_start:
    la a0, buf
    li a1, 1
    li a7, 2             # sym_input(buf, 1)
    ecall
    la t0, buf
    lbu t1, 0(t0)

    li t2, 'a'
    bltu t1, t2, low     # b < 'a'
    li t2, 'z'+1
    bgeu t1, t2, high    # b > 'z'
    li a0, 'L'           # lowercase letter
    j emit
low:
    li a0, '-'
    j emit
high:
    li a0, '+'
emit:
    li a7, 1             # putchar(a0)
    ecall
    li a0, 0
    li a7, 93            # exit(0)
    ecall

.data
buf: .space 1
)";

}  // namespace

int main() {
  // 1. The formal ISA specification: encodings + semantics.
  isa::OpcodeTable table;
  isa::Decoder decoder(table);
  spec::Registry registry;
  spec::install_rv32im(registry, table);

  // 2. Build the guest binary with the in-tree assembler and ELF layer.
  rvasm::AsmResult assembled = rvasm::assemble_or_die(table, kGuestSource);
  std::vector<uint8_t> elf_bytes = elf::write_elf(assembled.image);
  auto image = elf::read_elf(elf_bytes);
  if (!image) {
    std::fprintf(stderr, "ELF round-trip failed\n");
    return 1;
  }
  core::Program program = elf::to_program(*image);

  // 3. Symbolic execution: BinSym executor + DFS DSE driver + the default
  //    bit-blasting solver.
  smt::Context ctx;
  core::BinSymExecutor executor(ctx, decoder, registry, program);
  core::DseEngine engine(executor, smt::make_bitblast_solver(ctx));

  std::printf("exploring guest with one symbolic input byte...\n");
  core::EngineStats stats = engine.explore([&](const core::PathResult& path) {
    uint8_t input = static_cast<uint8_t>(
        path.seed.get(ctx.var("in_0", 8)->var_id));
    std::printf("  path %llu: input=0x%02x output=\"%s\" exit=%s\n",
                static_cast<unsigned long long>(path.index), input,
                path.trace.output.c_str(),
                core::exit_reason_name(path.trace.exit));
  });

  std::printf("paths=%llu solver-queries=%llu sat=%llu unsat=%llu\n",
              static_cast<unsigned long long>(stats.paths),
              static_cast<unsigned long long>(stats.solver.queries),
              static_cast<unsigned long long>(stats.solver.sat),
              static_cast<unsigned long long>(stats.solver.unsat));
  return stats.paths == 3 ? 0 : 1;
}
