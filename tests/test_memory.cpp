// Guest memory tests: paged concrete store (including its copy-on-write
// page sharing) and the concolic symbolic shadow (byte reassembly, store
// scattering, constant-collapse).
#include <gtest/gtest.h>

#include "core/memory.hpp"
#include "smt/eval.hpp"

namespace binsym::core {
namespace {

TEST(ConcreteMemory, DefaultsToZero) {
  ConcreteMemory mem;
  EXPECT_EQ(mem.read8(0x1234), 0);
  EXPECT_EQ(mem.read(0xdeadbeef, 4), 0u);
  EXPECT_FALSE(mem.mapped(0x1234));
}

TEST(ConcreteMemory, LittleEndianMultiByte) {
  ConcreteMemory mem;
  mem.write(0x100, 4, 0x11223344);
  EXPECT_EQ(mem.read8(0x100), 0x44);
  EXPECT_EQ(mem.read8(0x103), 0x11);
  EXPECT_EQ(mem.read(0x100, 4), 0x11223344u);
  EXPECT_EQ(mem.read(0x102, 2), 0x1122u);
}

TEST(ConcreteMemory, CrossPageAccess) {
  ConcreteMemory mem;
  uint32_t addr = ConcreteMemory::kPageSize - 2;
  mem.write(addr, 4, 0xaabbccdd);
  EXPECT_EQ(mem.read(addr, 4), 0xaabbccddu);
  EXPECT_EQ(mem.num_pages(), 2u);
}

TEST(ConcreteMemory, ValueSemanticsCopy) {
  ConcreteMemory a;
  a.write8(0x10, 7);
  ConcreteMemory b = a;
  b.write8(0x10, 9);
  EXPECT_EQ(a.read8(0x10), 7);
  EXPECT_EQ(b.read8(0x10), 9);
}

class ConcolicMemoryTest : public ::testing::Test {
 protected:
  smt::Context ctx;
  ConcolicMemory mem{ctx};
};

TEST_F(ConcolicMemoryTest, PureConcreteLoads) {
  ConcreteMemory image;
  image.write(0x100, 4, 0xcafebabe);
  mem.reset(image);
  interp::SymValue v = mem.load(0x100, 4);
  EXPECT_FALSE(v.symbolic());
  EXPECT_EQ(v.conc, 0xcafebabeu);
  EXPECT_EQ(v.width, 32);
}

TEST_F(ConcolicMemoryTest, SymbolicByteReassembly) {
  mem.reset(ConcreteMemory{});
  smt::ExprRef b1 = ctx.var("b1", 8);
  mem.poke_symbolic(0x201, b1, 0x5a);

  // 4-byte load covering one symbolic byte at offset 1.
  interp::SymValue v = mem.load(0x200, 4);
  ASSERT_TRUE(v.symbolic());
  EXPECT_EQ(v.conc, 0x5a00u * 0x100 / 0x100);  // byte 1 -> bits [15:8]
  EXPECT_EQ(v.conc, 0x00005a00u);

  // Evaluating the expression under b1=0x7f reproduces the layout.
  smt::Assignment a;
  a.set(b1->var_id, 0x7f);
  EXPECT_EQ(smt::evaluate(v.sym, a), 0x00007f00u);
}

TEST_F(ConcolicMemoryTest, StoreScattersSymbolicBytes) {
  mem.reset(ConcreteMemory{});
  smt::ExprRef w = ctx.var("w", 32);
  smt::Assignment a;
  a.set(w->var_id, 0x11223344);
  mem.store(0x300, 4, interp::sval_expr(w, 0x11223344));
  EXPECT_EQ(mem.num_symbolic_bytes(), 4u);
  EXPECT_EQ(mem.read_concrete(0x300, 4), 0x11223344u);

  // Reading back a sub-word gives the matching extract.
  interp::SymValue lo = mem.load(0x300, 2);
  ASSERT_TRUE(lo.symbolic());
  EXPECT_EQ(lo.conc, 0x3344u);
  EXPECT_EQ(smt::evaluate(lo.sym, a), 0x3344u);
}

TEST_F(ConcolicMemoryTest, ConcreteStoreClearsShadow) {
  mem.reset(ConcreteMemory{});
  mem.poke_symbolic(0x400, ctx.var("x", 8), 1);
  EXPECT_EQ(mem.num_symbolic_bytes(), 1u);
  mem.store(0x400, 1, interp::sval(0xab, 8));
  EXPECT_EQ(mem.num_symbolic_bytes(), 0u);
  EXPECT_FALSE(mem.load(0x400, 1).symbolic());
}

TEST_F(ConcolicMemoryTest, ResetClearsShadow) {
  mem.reset(ConcreteMemory{});
  mem.poke_symbolic(0x500, ctx.var("y", 8), 1);
  mem.reset(ConcreteMemory{});
  EXPECT_EQ(mem.num_symbolic_bytes(), 0u);
  EXPECT_EQ(mem.read_concrete(0x500, 1), 0u);
}

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

}  // namespace
}  // namespace binsym::core
