// Micro-benchmarks (google-benchmark): decoder, disassembler, the three
// instruction execution paths (concrete spec interpretation, concolic spec
// interpretation, IR lifting+execution), expression building and the
// solver backends on a representative branch-flip query.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "asm/assembler.hpp"
#include "baseline/ir_exec.hpp"
#include "core/executor.hpp"
#include "elf/elf32.hpp"
#include "interp/concrete.hpp"
#include "isa/decoder.hpp"
#include "isa/disasm.hpp"
#include "smt/solver.hpp"
#include "spec/registry.hpp"
#include "support/rng.hpp"

using namespace binsym;

namespace {

struct Fixture {
  isa::OpcodeTable table;
  isa::Decoder decoder{table};
  spec::Registry registry;
  std::vector<uint32_t> words;

  Fixture() {
    spec::install_rv32im(registry, table);
    // A pool of valid instruction words covering the RV32IM ALU space.
    // CSR/System formats are deliberately excluded (their randomized
    // operand fields would mostly be invalid CSR numbers); log how many
    // opcodes that skips so the pool's coverage is visible, not silent.
    Rng rng(99);
    unsigned skipped = 0;
    for (const isa::OpcodeInfo& info : table.entries()) {
      if (info.format == isa::Format::kCsr ||
          info.format == isa::Format::kSystem) {
        ++skipped;
        continue;
      }
      for (int i = 0; i < 4; ++i)
        words.push_back(info.match | (rng.next32() & ~info.mask));
    }
    if (skipped)
      std::fprintf(stderr,
                   "note: instruction pool skips %u CSR/System opcode(s)\n",
                   skipped);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void BM_Decode(benchmark::State& state) {
  Fixture& f = fixture();
  size_t i = 0;
  for (auto _ : state) {
    auto d = f.decoder.decode(f.words[i++ % f.words.size()]);
    benchmark::DoNotOptimize(d);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Decode);

void BM_Disassemble(benchmark::State& state) {
  Fixture& f = fixture();
  size_t i = 0;
  for (auto _ : state) {
    std::string s =
        isa::disassemble_word(f.decoder, f.words[i++ % f.words.size()], 0x1000);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Disassemble);

constexpr const char* kLoopSource = R"(
_start:
    li t0, 1000
loop:
    addi t1, t1, 3
    slli t2, t1, 4
    xor t3, t2, t1
    sltu t4, t3, t2
    add t5, t5, t4
    addi t0, t0, -1
    bnez t0, loop
    li a0, 0
    li a7, 93
    ecall
)";

void concrete_interp(benchmark::State& state, bool uop_fastpath) {
  Fixture& f = fixture();
  rvasm::AsmResult assembled = rvasm::assemble_or_die(f.table, kLoopSource);
  for (auto _ : state) {
    interp::Iss iss(f.decoder, f.registry, uop_fastpath);
    for (const elf::Segment& seg : assembled.image.segments)
      for (size_t i = 0; i < seg.bytes.size(); ++i)
        iss.machine().memory_.write8(seg.addr + static_cast<uint32_t>(i),
                                     seg.bytes[i]);
    iss.machine().pc_ = assembled.image.entry;
    uint64_t steps = iss.run();
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<int64_t>(steps));
  }
}

void BM_ConcreteSpecInterp(benchmark::State& state) {
  // Fast path off: this pins the per-instruction spec-walk baseline.
  concrete_interp(state, /*uop_fastpath=*/false);
}
BENCHMARK(BM_ConcreteSpecInterp);

void BM_ConcreteBlockInterp(benchmark::State& state) {
  // Micro-op block compilation + threaded dispatch (the default mode).
  concrete_interp(state, /*uop_fastpath=*/true);
}
BENCHMARK(BM_ConcreteBlockInterp);

void BM_ConcolicSpecInterp(benchmark::State& state) {
  Fixture& f = fixture();
  rvasm::AsmResult assembled = rvasm::assemble_or_die(f.table, kLoopSource);
  core::Program program = elf::to_program(assembled.image);
  smt::Context ctx;
  core::BinSymExecutor executor(ctx, f.decoder, f.registry, program);
  core::PathTrace trace;
  for (auto _ : state) {
    executor.run(smt::Assignment{}, trace);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<int64_t>(trace.steps));
  }
}
BENCHMARK(BM_ConcolicSpecInterp);

void BM_LifterIrExec(benchmark::State& state) {
  Fixture& f = fixture();
  rvasm::AsmResult assembled = rvasm::assemble_or_die(f.table, kLoopSource);
  core::Program program = elf::to_program(assembled.image);
  smt::Context ctx;
  baseline::Lifter lifter;
  baseline::IrExecutor executor(ctx, f.decoder, lifter, program);
  core::PathTrace trace;
  for (auto _ : state) {
    executor.run(smt::Assignment{}, trace);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<int64_t>(trace.steps));
  }
}
BENCHMARK(BM_LifterIrExec);

// Reset-per-run is part of every flip's replay cost: with copy-on-write
// pages, rebinding a machine memory to the program image copies the page
// *table* only — zero page contents — regardless of image size. The
// benchmark sweeps the image size to pin that O(pages-in-table)
// behavior (per-reset time must not scale with 4 KiB page payloads), and
// fails outright if a reset physically copies a page.
void BM_MemoryResetCoW(benchmark::State& state) {
  core::ConcreteMemory image;
  const int64_t pages = state.range(0);
  for (int64_t p = 0; p < pages; ++p)
    image.write8(static_cast<uint32_t>(p) * core::ConcreteMemory::kPageSize,
                 0xab);
  smt::Context ctx;
  core::ConcolicMemory mem(ctx);
  for (auto _ : state) {
    mem.reset(image);
    benchmark::DoNotOptimize(mem.read_concrete(0, 4));
  }
  if (mem.concrete().pages_copied() != 0)
    state.SkipWithError("reset broke copy-on-write (page physically copied)");
  state.SetItemsProcessed(state.iterations());
  state.counters["pages"] = static_cast<double>(pages);
}
BENCHMARK(BM_MemoryResetCoW)->Arg(4)->Arg(64)->Arg(1024);

// Deep shared-sub-DAG expression of the shape concolic runs produce; the
// traversal benchmarks below all walk it.
smt::ExprRef build_chain(smt::Context& ctx, int depth) {
  smt::ExprRef x = ctx.var("x", 32);
  smt::ExprRef y = ctx.var("y", 32);
  smt::ExprRef acc = ctx.add(x, y);
  for (int i = 0; i < depth; ++i) {
    acc = ctx.add(ctx.xor_(acc, x), ctx.constant(i | 1, 32));
    acc = ctx.ite(ctx.ult(acc, y), acc, ctx.lshr(acc, ctx.constant(1, 32)));
  }
  return acc;
}

// The postorder/node_count/collect_vars hot paths use a dense
// std::vector<bool> NodeMarker visited set (ids are per-context dense)
// instead of a hash set — these pin the walk throughput that improvement
// bought.
void BM_PostorderWalk(benchmark::State& state) {
  smt::Context ctx;
  smt::ExprRef root = build_chain(ctx, 256);
  for (auto _ : state) {
    size_t n = smt::node_count(root);
    benchmark::DoNotOptimize(n);
    state.SetItemsProcessed(state.items_processed() + static_cast<int64_t>(n));
  }
}
BENCHMARK(BM_PostorderWalk);

void BM_PostorderWalkReusedMarker(benchmark::State& state) {
  // Same walk with a caller-owned reused marker (the slicer's pattern):
  // no per-call allocation, O(visited) clear.
  smt::Context ctx;
  smt::ExprRef root = build_chain(ctx, 256);
  smt::NodeMarker marker;
  for (auto _ : state) {
    marker.clear();
    size_t n = 0;
    smt::postorder(root, marker, [&](smt::ExprRef) { ++n; });
    benchmark::DoNotOptimize(n);
    state.SetItemsProcessed(state.items_processed() + static_cast<int64_t>(n));
  }
}
BENCHMARK(BM_PostorderWalkReusedMarker);

void BM_CollectVars(benchmark::State& state) {
  smt::Context ctx;
  std::vector<smt::ExprRef> roots;
  for (int i = 0; i < 8; ++i) roots.push_back(build_chain(ctx, 64 + i));
  for (auto _ : state) {
    auto vars = smt::collect_vars(roots);
    benchmark::DoNotOptimize(vars);
  }
}
BENCHMARK(BM_CollectVars);

void BM_ExpressionBuilding(benchmark::State& state) {
  for (auto _ : state) {
    smt::Context ctx;
    smt::ExprRef x = ctx.var("x", 32);
    smt::ExprRef acc = ctx.constant(0, 32);
    for (int i = 0; i < 64; ++i) {
      acc = ctx.add(ctx.xor_(acc, x), ctx.constant(i, 32));
      acc = ctx.ite(ctx.ult(acc, x), acc, ctx.lshr(acc, ctx.constant(1, 32)));
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_ExpressionBuilding);

void solver_query(benchmark::State& state,
                  std::unique_ptr<smt::Solver> (*make)(smt::Context&)) {
  smt::Context ctx;
  auto solver = make(ctx);
  // Representative branch-flip query: byte classification chain.
  smt::ExprRef b = ctx.var("in_0", 8);
  std::vector<smt::ExprRef> query = {
      ctx.uge(b, ctx.constant(26, 8)),
      ctx.ult(b, ctx.constant(52, 8)),
      ctx.not_(ctx.eq(ctx.mul(b, ctx.constant(3, 8)), ctx.constant(77, 8)))};
  for (auto _ : state) {
    smt::Assignment model;
    auto result = solver->check(query, &model);
    benchmark::DoNotOptimize(result);
  }
}

void BM_SolverZ3(benchmark::State& state) {
  solver_query(state, &smt::make_z3_solver);
}
BENCHMARK(BM_SolverZ3);

void BM_SolverBitblast(benchmark::State& state) {
  solver_query(state, [](smt::Context& ctx) {
    return smt::make_bitblast_solver(ctx);
  });
}
BENCHMARK(BM_SolverBitblast);

}  // namespace

BENCHMARK_MAIN();
