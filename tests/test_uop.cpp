// Tests for the micro-op block fast path (interp/uop.hpp, block_cache.hpp,
// uop_run.hpp): lowering units, BlockCache store-invalidation/poisoning,
// randomized differential execution (fast path vs spec path vs the golden
// oracle, for both the concrete and the taint interpreter), a pinned
// self-modifying-code guest, and the engine-level bit-identity sweep — the
// fast path may only change cost, never the explored path set or the
// reported findings.
#include <gtest/gtest.h>

#include <set>
#include <unordered_map>
#include <vector>

#include "asm/assembler.hpp"
#include "core/engine.hpp"
#include "core/finding.hpp"
#include "core/stats.hpp"
#include "elf/elf32.hpp"
#include "interp/block_cache.hpp"
#include "interp/concrete.hpp"
#include "interp/taint.hpp"
#include "interp/uop.hpp"
#include "isa/decoder.hpp"
#include "isa/encoding.hpp"
#include "oracle/rv32_oracle.hpp"
#include "oracles/manager.hpp"
#include "spec/registry.hpp"
#include "support/rng.hpp"
#include "workloads/workloads.hpp"

namespace binsym {
namespace {

using interp::BlockCache;
using interp::UKind;
using interp::Uop;

class UopTestBase : public ::testing::Test {
 protected:
  UopTestBase() { spec::install_rv32im(registry, table); }

  isa::OpcodeTable table;
  isa::Decoder decoder{table};
  spec::Registry registry;
};

// -- Lowering units. ---------------------------------------------------------

class UopLowering : public UopTestBase {
 protected:
  /// Lower the block at `image.entry` with a fetch that reads the
  /// assembled segments.
  unsigned lower(const elf::Image& image, uint32_t pc, Uop* out,
                 uint32_t* bytes) {
    std::unordered_map<uint32_t, uint8_t> mem;
    for (const elf::Segment& seg : image.segments)
      for (size_t i = 0; i < seg.bytes.size(); ++i)
        mem[seg.addr + static_cast<uint32_t>(i)] = seg.bytes[i];
    auto fetch = [&](uint32_t p, uint32_t* word) {
      *word = 0;
      for (unsigned i = 0; i < 4; ++i) {
        auto it = mem.find(p + i);
        if (it == mem.end()) return false;
        *word |= static_cast<uint32_t>(it->second) << (8 * i);
      }
      return true;
    };
    return interp::lower_block(decoder, registry, fetch, pc, out,
                               BlockCache::kMaxBlockUops, bytes);
  }

  elf::Image assemble(const char* source) {
    return rvasm::assemble_or_die(table, source).image;
  }
};

TEST_F(UopLowering, StraightLineRunEndsAtTerminatorWithResolvedOperands) {
  elf::Image image = assemble(R"(
_start:
    addi t1, t1, 3
    slli t2, t1, 4
    xor t3, t2, t1
    beq t1, t2, _start
    addi a0, a0, 1
)");
  Uop uops[BlockCache::kMaxBlockUops];
  uint32_t bytes = 0;
  unsigned count = lower(image, image.entry, uops, &bytes);
  ASSERT_EQ(count, 4u);
  EXPECT_EQ(bytes, 16u);  // the terminator is part of the block

  EXPECT_EQ(uops[0].kind, UKind::kAddi);
  EXPECT_EQ(uops[0].rd, 6u);   // t1
  EXPECT_EQ(uops[0].rs1, 6u);
  EXPECT_EQ(uops[0].imm, 3);
  EXPECT_EQ(uops[0].pc, image.entry);
  EXPECT_EQ(uops[0].size, 4u);

  EXPECT_EQ(uops[1].kind, UKind::kSlli);
  EXPECT_EQ(uops[1].imm, 4);  // shamt, not the raw I-immediate

  EXPECT_EQ(uops[3].kind, UKind::kBeq);
  EXPECT_EQ(uops[3].imm, -12);  // pc-relative offset back to _start
  EXPECT_EQ(uops[3].pc, image.entry + 12);
}

TEST_F(UopLowering, SystemInstructionEndsBlockBeforeItself) {
  elf::Image image = assemble(R"(
_start:
    addi a0, a0, 1
    addi a1, a1, 2
    ecall
    addi a2, a2, 3
)");
  Uop uops[BlockCache::kMaxBlockUops];
  uint32_t bytes = 0;
  unsigned count = lower(image, image.entry, uops, &bytes);
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(bytes, 8u);  // the ecall stays on the spec path

  // A leader the fast path does not model lowers to nothing at all.
  count = lower(image, image.entry + 8, uops, &bytes);
  EXPECT_EQ(count, 0u);
  EXPECT_EQ(bytes, 0u);
}

TEST_F(UopLowering, FetchDeclineEndsBlock) {
  elf::Image image = assemble(R"(
_start:
    addi a0, a0, 1
    addi a1, a1, 2
)");
  Uop uops[BlockCache::kMaxBlockUops];
  uint32_t bytes = 0;
  uint32_t limit = image.entry + 4;
  std::unordered_map<uint32_t, uint8_t> mem;
  for (const elf::Segment& seg : image.segments)
    for (size_t i = 0; i < seg.bytes.size(); ++i)
      mem[seg.addr + static_cast<uint32_t>(i)] = seg.bytes[i];
  auto fetch = [&](uint32_t p, uint32_t* word) {
    if (p >= limit) return false;  // e.g. the next page is poisoned
    *word = 0;
    for (unsigned i = 0; i < 4; ++i)
      *word |= static_cast<uint32_t>(mem[p + i]) << (8 * i);
    return true;
  };
  unsigned count = interp::lower_block(decoder, registry, fetch, image.entry,
                                       uops, BlockCache::kMaxBlockUops, &bytes);
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(bytes, 4u);
}

// -- BlockCache: invalidation and poisoning. ---------------------------------

Uop nop_uop(uint32_t pc) {
  Uop u;
  u.kind = UKind::kFence;
  u.pc = pc;
  return u;
}

TEST(UopBlockCache, StoreDropsOverlappingBlocksAndPoisonsThePage) {
  BlockCache cache;
  Uop* buf = cache.begin_compile();
  buf[0] = nop_uop(0x1000);
  const BlockCache::Block* block = cache.finish_compile(0x1000, 1, 4);
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(block->count, 1u);
  EXPECT_EQ(cache.lookup(0x1000), block);
  EXPECT_EQ(cache.cache_hits(), 1u);
  EXPECT_EQ(cache.blocks_compiled(), 1u);

  // A store into an unrelated, never-cached page drops nothing...
  EXPECT_FALSE(cache.on_guest_store(0x8000, 4));
  EXPECT_NE(cache.lookup(0x1000), nullptr);
  // ...but a store into the block's page drops it and poisons the page.
  EXPECT_TRUE(cache.on_guest_store(0x1800, 4));
  EXPECT_EQ(cache.lookup(0x1000), nullptr);
  EXPECT_TRUE(cache.page_poisoned(0x1000));
  EXPECT_GE(cache.invalidations(), 1u);
  // Repeated stores into the now-poisoned page are cheap no-ops.
  EXPECT_FALSE(cache.on_guest_store(0x1804, 4));
}

TEST(UopBlockCache, NegativeEntriesCountHitsButCarryNoUops) {
  BlockCache cache;
  cache.begin_compile();
  const BlockCache::Block* block = cache.finish_compile(0x2000, 0, 0);
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(block->count, 0u);
  EXPECT_EQ(cache.blocks_compiled(), 0u);  // nothing was lowered
  EXPECT_EQ(cache.lookup(0x2000), block);
  EXPECT_EQ(cache.cache_hits(), 1u);
}

TEST(UopBlockCache, PoisonSurvivesCapacityFlush) {
  BlockCache cache(/*max_blocks=*/2);
  cache.on_guest_store(0x1000, 1);
  ASSERT_TRUE(cache.page_poisoned(0x1000));
  // Overflow the two-entry cache so it flushes wholesale.
  for (uint32_t i = 0; i < 4; ++i) {
    Uop* buf = cache.begin_compile();
    buf[0] = nop_uop(0x5000 + i * 16);
    cache.finish_compile(0x5000 + i * 16, 1, 4);
  }
  // Poisoning is store history, not cache contents: it must survive.
  EXPECT_TRUE(cache.page_poisoned(0x1000));
}

// -- Randomized differential execution. --------------------------------------
//
// Random RV32IM instruction streams (memory operands disciplined onto a
// shared buffer through x8, every eighth slot a branch/jal skipping one
// slot) executed three ways: micro-op fast path, per-instruction spec
// path, and the independent golden oracle. Registers, pc and every touched
// memory byte must agree — the same methodology as test_spec_oracle.cpp,
// but across block boundaries, budget limits and both branch outcomes.

constexpr uint32_t kCodeBase = 0x4000;
constexpr uint32_t kBufBase = 0x1000;
constexpr uint32_t kBufSize = 256;
constexpr unsigned kSlots = 512;
constexpr uint64_t kStepBudget = 200;

class UopDifferential : public UopTestBase,
                        public ::testing::WithParamInterface<uint64_t> {
 protected:
  UopDifferential() {
    for (const isa::OpcodeInfo& info : table.entries()) {
      if (info.format == isa::Format::kCsr ||
          info.format == isa::Format::kSystem)
        continue;
      switch (info.id) {
        case isa::kBEQ: case isa::kBNE: case isa::kBLT: case isa::kBGE:
        case isa::kBLTU: case isa::kBGEU:
          branch_pool_.push_back(&info);
          continue;
        case isa::kJAL:
          jal_ = &info;  // joins the branch slots with a fixed +8 target
          continue;
        case isa::kJALR:
          continue;  // register-relative targets would leave the stream
        default:
          straight_pool_.push_back(&info);
      }
    }
    EXPECT_FALSE(straight_pool_.empty());
    EXPECT_FALSE(branch_pool_.empty());
    EXPECT_NE(jal_, nullptr);
  }

  static bool is_load(isa::OpcodeId id) {
    return id == isa::kLB || id == isa::kLH || id == isa::kLW ||
           id == isa::kLBU || id == isa::kLHU;
  }
  static bool is_store(isa::OpcodeId id) {
    return id == isa::kSB || id == isa::kSH || id == isa::kSW;
  }
  static bool has_rd_field(isa::Format f) {
    return f == isa::Format::kR || f == isa::Format::kI ||
           f == isa::Format::kU || f == isa::Format::kJ;
  }
  static uint32_t set_rd(uint32_t word, uint32_t rd) {
    return (word & ~(0x1fu << 7)) | (rd << 7);
  }
  static uint32_t set_rs1(uint32_t word, uint32_t rs1) {
    return (word & ~(0x1fu << 15)) | (rs1 << 15);
  }

  /// One random non-branching instruction. x8 is the reserved buffer base:
  /// memory ops use it with a small positive offset, and nothing writes it.
  uint32_t random_straight_word(Rng& rng) {
    for (;;) {
      const isa::OpcodeInfo& info =
          *straight_pool_[rng.below(straight_pool_.size())];
      uint32_t word = info.match | (rng.next32() & ~info.mask);
      if (is_load(info.id)) {
        word &= 0x000fffff;  // clear imm, then clamp it to [0, 127]
        word |= (rng.next32() & 0x7f) << 20;
        word |= info.match;
        word = set_rs1(word, 8);
      } else if (is_store(info.id)) {
        word = isa::encode_s(info.match & 0x7f, (info.match >> 12) & 7, 8,
                             static_cast<uint32_t>(rng.below(32)),
                             rng.next32() & 0x7f);
      }
      if (has_rd_field(info.format) && ((word >> 7) & 0x1f) == 8)
        word = set_rd(word, 9);
      auto decoded = decoder.decode(word);
      if (decoded && decoded->id() == info.id) return word;
    }
  }

  /// A branch (any of the six kinds) or jal skipping exactly one slot, so
  /// both outcomes stay inside the stream.
  uint32_t random_branch_word(Rng& rng) {
    if (rng.below(7) == 0) {
      uint32_t rd = static_cast<uint32_t>(rng.below(32));
      if (rd == 8) rd = 9;
      return isa::encode_j(jal_->match & 0x7f, rd, 8);
    }
    const isa::OpcodeInfo& info =
        *branch_pool_[rng.below(branch_pool_.size())];
    return isa::encode_b(info.match & 0x7f, (info.match >> 12) & 7,
                         static_cast<uint32_t>(rng.below(32)),
                         static_cast<uint32_t>(rng.below(32)), 8);
  }

  std::vector<uint32_t> random_stream(Rng& rng) {
    std::vector<uint32_t> slots(kSlots);
    for (unsigned i = 0; i < kSlots; ++i)
      slots[i] = (i % 8 == 7) ? random_branch_word(rng)
                              : random_straight_word(rng);
    return slots;
  }

  /// Random register value with the corner-case bias of the spec-oracle
  /// differential.
  static uint32_t random_reg(Rng& rng) {
    uint32_t value = rng.next32();
    switch (rng.below(8)) {
      case 0: return 0;
      case 1: return 0xffffffffu;
      case 2: return 0x80000000u;
      default: return value;
    }
  }

  std::vector<const isa::OpcodeInfo*> straight_pool_;
  std::vector<const isa::OpcodeInfo*> branch_pool_;
  const isa::OpcodeInfo* jal_ = nullptr;
};

TEST_P(UopDifferential, ConcreteFastPathMatchesSpecPathAndOracle) {
  Rng rng(GetParam());
  uint64_t blocks_compiled = 0;
  for (int round = 0; round < 8; ++round) {
    std::vector<uint32_t> slots = random_stream(rng);

    interp::Iss fast(decoder, registry, /*uop_fastpath=*/true);
    interp::Iss slow(decoder, registry, /*uop_fastpath=*/false);
    oracle::OracleState oracle_state;

    for (unsigned r = 1; r < 32; ++r) {
      uint32_t value = random_reg(rng);
      fast.machine().regs_[r] = interp::cval(value, 32);
      slow.machine().regs_[r] = interp::cval(value, 32);
      oracle_state.regs[r] = value;
    }
    const uint32_t base = kBufBase + 64;
    fast.machine().regs_[8] = interp::cval(base, 32);
    slow.machine().regs_[8] = interp::cval(base, 32);
    oracle_state.regs[8] = base;
    for (uint32_t i = 0; i < kBufSize; ++i) {
      uint8_t byte = static_cast<uint8_t>(rng.next());
      fast.machine().memory_.write8(kBufBase + i, byte);
      slow.machine().memory_.write8(kBufBase + i, byte);
    }
    for (unsigned i = 0; i < kSlots; ++i) {
      fast.machine().memory_.write(kCodeBase + 4 * i, 4, slots[i]);
      slow.machine().memory_.write(kCodeBase + 4 * i, 4, slots[i]);
    }
    fast.machine().pc_ = kCodeBase;
    slow.machine().pc_ = kCodeBase;
    oracle_state.pc = kCodeBase;

    // Oracle first: it reads the (still pristine) slow machine's memory.
    std::unordered_map<uint32_t, uint8_t> shadow;
    oracle_state.load8 = [&](uint32_t addr) {
      auto it = shadow.find(addr);
      return it != shadow.end()
                 ? it->second
                 : static_cast<uint8_t>(slow.machine().memory_.read8(addr));
    };
    oracle_state.store8 = [&](uint32_t addr, uint8_t v) { shadow[addr] = v; };
    for (uint64_t step = 0; step < kStepBudget; ++step) {
      uint32_t index = (oracle_state.pc - kCodeBase) / 4;
      ASSERT_LT(index, kSlots) << "oracle left the stream at step " << step;
      auto decoded = decoder.decode(slots[index]);
      ASSERT_TRUE(decoded.has_value());
      ASSERT_TRUE(oracle_step(oracle_state, *decoded));
    }

    uint64_t slow_steps = slow.run(kStepBudget);
    uint64_t fast_steps = fast.run(kStepBudget);
    ASSERT_EQ(slow_steps, kStepBudget) << "round " << round;
    EXPECT_EQ(fast_steps, slow_steps) << "round " << round;

    for (unsigned r = 0; r < 32; ++r) {
      EXPECT_EQ(fast.machine().regs_[r].v, slow.machine().regs_[r].v)
          << "round " << round << " x" << r;
      EXPECT_EQ(slow.machine().regs_[r].v, oracle_state.reg(r))
          << "round " << round << " x" << r;
    }
    EXPECT_EQ(fast.machine().pc_, slow.machine().pc_) << "round " << round;
    EXPECT_EQ(slow.machine().pc_, oracle_state.pc) << "round " << round;
    for (uint32_t i = 0; i < kBufSize; ++i)
      EXPECT_EQ(fast.machine().memory_.read8(kBufBase + i),
                slow.machine().memory_.read8(kBufBase + i))
          << "round " << round << " buf+" << i;
    for (const auto& [addr, value] : shadow)
      EXPECT_EQ(slow.machine().memory_.read8(addr), value)
          << "round " << round << " mem[0x" << std::hex << addr << "]";

    blocks_compiled += fast.uop_counters().blocks_compiled;
    EXPECT_EQ(slow.uop_counters().blocks_compiled, 0u);
  }
  EXPECT_GT(blocks_compiled, 0u);
}

TEST_P(UopDifferential, TaintFastPathMatchesSpecPath) {
  Rng rng(GetParam() + 100);
  uint64_t blocks_compiled = 0;
  for (int round = 0; round < 4; ++round) {
    std::vector<uint32_t> slots = random_stream(rng);

    interp::TaintTracker fast(decoder, registry, /*uop_fastpath=*/true);
    interp::TaintTracker slow(decoder, registry, /*uop_fastpath=*/false);

    for (unsigned r = 1; r < 32; ++r) {
      uint32_t value = random_reg(rng);
      bool tainted = r == 5 || r == 12;  // two taint sources in registers
      fast.machine().regs_[r] = {value, 32, tainted};
      slow.machine().regs_[r] = {value, 32, tainted};
    }
    const uint32_t base = kBufBase + 64;
    fast.machine().regs_[8] = {base, 32, false};
    slow.machine().regs_[8] = {base, 32, false};
    for (uint32_t i = 0; i < kBufSize; ++i) {
      uint8_t byte = static_cast<uint8_t>(rng.next());
      fast.machine().memory_[kBufBase + i] = byte;
      slow.machine().memory_[kBufBase + i] = byte;
    }
    for (uint32_t i = 0; i < 8; ++i) {  // a tainted window inside the buffer
      fast.machine().taint_byte(kBufBase + 100 + i);
      slow.machine().taint_byte(kBufBase + 100 + i);
    }
    for (unsigned i = 0; i < kSlots; ++i)
      for (unsigned b = 0; b < 4; ++b) {
        uint8_t byte = static_cast<uint8_t>(slots[i] >> (8 * b));
        fast.machine().memory_[kCodeBase + 4 * i + b] = byte;
        slow.machine().memory_[kCodeBase + 4 * i + b] = byte;
      }
    fast.machine().pc_ = kCodeBase;
    slow.machine().pc_ = kCodeBase;

    uint64_t slow_steps = slow.run(kStepBudget);
    uint64_t fast_steps = fast.run(kStepBudget);
    ASSERT_EQ(slow_steps, kStepBudget) << "round " << round;
    EXPECT_EQ(fast_steps, slow_steps) << "round " << round;

    for (unsigned r = 0; r < 32; ++r) {
      EXPECT_EQ(fast.machine().regs_[r].v, slow.machine().regs_[r].v)
          << "round " << round << " x" << r;
      EXPECT_EQ(fast.machine().regs_[r].tainted,
                slow.machine().regs_[r].tainted)
          << "round " << round << " x" << r;
    }
    EXPECT_EQ(fast.machine().pc_, slow.machine().pc_) << "round " << round;
    for (uint32_t i = 0; i < kBufSize; ++i) {
      EXPECT_EQ(fast.machine().memory_byte(kBufBase + i),
                slow.machine().memory_byte(kBufBase + i))
          << "round " << round << " buf+" << i;
      EXPECT_EQ(fast.machine().byte_tainted(kBufBase + i),
                slow.machine().byte_tainted(kBufBase + i))
          << "round " << round << " buf+" << i;
    }
    EXPECT_EQ(fast.machine().tainted_branches(),
              slow.machine().tainted_branches())
        << "round " << round;
    EXPECT_EQ(fast.machine().tainted_pc_writes(),
              slow.machine().tainted_pc_writes())
        << "round " << round;

    blocks_compiled += fast.uop_counters().blocks_compiled;
    EXPECT_EQ(slow.uop_counters().blocks_compiled, 0u);
  }
  EXPECT_GT(blocks_compiled, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UopDifferential,
                         ::testing::Range<uint64_t>(1, 5));

// -- Self-modifying code, pinned. --------------------------------------------

class UopSmc : public UopTestBase {};

TEST_F(UopSmc, StoreIntoCachedCodeInvalidatesAndReExecutesCorrectly) {
  // Calls `region` once (compiling its block), overwrites the addi inside
  // it with `addi a0, a0, 7`, calls it again. Exit code 1 + 7 = 8 proves
  // the second call executed the *new* instruction — a stale cached block
  // would produce 2.
  constexpr const char* kSmcGuest = R"(
_start:
    la t0, patch
    li t2, 0x00750513        # addi a0, a0, 7
    jal ra, region
    sw t2, 0(t0)
    jal ra, region
    li a7, 93
    ecall
region:
patch:
    addi a0, a0, 1
    ret
)";
  elf::Image image = rvasm::assemble_or_die(table, kSmcGuest).image;

  auto run = [&](bool uop_fastpath) {
    interp::Iss iss(decoder, registry, uop_fastpath);
    for (const elf::Segment& seg : image.segments)
      for (size_t i = 0; i < seg.bytes.size(); ++i)
        iss.machine().memory_.write8(seg.addr + static_cast<uint32_t>(i),
                                     seg.bytes[i]);
    iss.machine().pc_ = image.entry;
    iss.run();
    EXPECT_EQ(iss.machine().exit_, core::ExitReason::kExit);
    EXPECT_EQ(iss.machine().exit_code_, 8u);
    return iss.uop_counters();
  };

  interp::UopCounters fast = run(/*uop_fastpath=*/true);
  EXPECT_GE(fast.invalidations, 1u);
  EXPECT_GT(fast.blocks_compiled, 0u);
  interp::UopCounters slow = run(/*uop_fastpath=*/false);
  EXPECT_EQ(slow.invalidations, 0u);
}

// -- Engine level: stats plumbing and the bit-identity sweep. ----------------

class UopEngineTest : public ::testing::Test {
 protected:
  UopEngineTest() {
    spec::install_rv32im(registry, table);
    spec::install_custom_madd(table, registry);
    spec::install_zbb(table, registry);
  }

  core::Program load_asm(const std::string& source) {
    return elf::to_program(rvasm::assemble_or_die(table, source).image);
  }

  core::WorkerFactory factory(const core::Program& program,
                              core::MachineConfig mconfig,
                              const std::string& oracles_spec = "") {
    return [this, &program, mconfig, oracles_spec](unsigned) {
      core::WorkerResources r;
      r.ctx = std::make_unique<smt::Context>();
      r.executor = std::make_unique<core::BinSymExecutor>(
          *r.ctx, decoder, registry, program, mconfig);
      r.solver = smt::make_z3_solver(*r.ctx);
      if (!oracles_spec.empty()) {
        std::string error;
        auto manager = oracles::OracleManager::make(
            *r.ctx,
            oracles::MemoryMap::for_program(program,
                                            core::MachineConfig{}.stack_top),
            oracles_spec, &error);
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

  struct Exploration {
    core::EngineStats stats;
    std::set<std::string> path_keys;
    std::multiset<uint32_t> failures;
  };

  Exploration explore(const core::Program& program,
                      core::MachineConfig mconfig,
                      core::EngineOptions options) {
    core::DseEngine dse(factory(program, mconfig), options);
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

  isa::OpcodeTable table;
  isa::Decoder decoder{table};
  spec::Registry registry;
};

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
    bnez t0, skip1
    nop
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

TEST_F(UopEngineTest, StatsCollectFastPathCounters) {
  core::Program program = load_asm(kThreeBranchGuest);
  core::MachineConfig on;  // uop_fastpath defaults to true
  Exploration with_uop = explore(program, on, {});
  EXPECT_GT(with_uop.stats.uop_blocks_compiled, 0u);
  EXPECT_GT(with_uop.stats.uop_cache_hits, 0u);
  std::string report = core::engine_stats_report(with_uop.stats);
  EXPECT_NE(report.find("uops:"), std::string::npos) << report;

  core::MachineConfig off;
  off.uop_fastpath = false;
  Exploration without = explore(program, off, {});
  EXPECT_EQ(without.stats.uop_blocks_compiled, 0u);
  EXPECT_EQ(without.stats.uop_cache_hits, 0u);
  EXPECT_EQ(without.stats.uop_guard_bails, 0u);
  EXPECT_EQ(without.stats.uop_invalidations, 0u);
  // The page-granular clean summaries are a memory-layer optimization and
  // stay active either way.
  EXPECT_EQ(without.path_keys, with_uop.path_keys);
}

TEST_F(UopEngineTest, FindingTriplesIdenticalWithFastPathOnAndOff) {
  // Oracles attach an observer, which the fast path defers to — but the
  // (oracle, pc, call-depth) triples must stay bit-identical no matter
  // which uop configuration the worker was built with.
  for (const char* name :
       {"buggy-div", "buggy-overflow", "buggy-unaligned", "buggy-stack-smash"}) {
    core::Program program = workloads::load_workload(table, name);
    auto campaign = [&](bool uop_fastpath) {
      core::MachineConfig mconfig;
      mconfig.uop_fastpath = uop_fastpath;
      core::DseEngine dse(factory(program, mconfig, "all"),
                          core::EngineOptions{});
      dse.explore();
      std::multiset<uint64_t> keys;
      for (const core::Finding& f : dse.findings())
        keys.insert(core::finding_key(f.oracle, f.pc, f.call_depth));
      return keys;
    };
    std::multiset<uint64_t> with_uop = campaign(true);
    EXPECT_FALSE(with_uop.empty()) << name;
    EXPECT_EQ(with_uop, campaign(false)) << name;
  }
}

// Light parallel run (TSan coverage): each worker owns a private BlockCache;
// the debug single-thread ownership assert and the stats delta-merging run
// under 4 workers here.
class UopParallel : public UopEngineTest {};

TEST_F(UopParallel, WorkerPrivateCachesExploreIdenticallyAcrossJobs) {
  core::Program program = load_asm(kThreeBranchGuest);
  core::MachineConfig mconfig;
  core::EngineOptions one;
  one.jobs = 1;
  Exploration sequential = explore(program, mconfig, one);
  EXPECT_GT(sequential.stats.uop_blocks_compiled, 0u);

  core::EngineOptions four;
  four.jobs = 4;
  Exploration parallel = explore(program, mconfig, four);
  EXPECT_EQ(parallel.path_keys, sequential.path_keys);
  EXPECT_GT(parallel.stats.uop_blocks_compiled, 0u);
}

// -- Table I bit-identity sweep. ---------------------------------------------
//
// The fast path may only change cost: across search strategies and worker
// counts, the discovered path set and failures must be
// bit-identical with the micro-op fast path on and off. This is the
// acceptance bar of the subsystem (and what keeps Table I reproduction
// intact). Excluded from the sanitizer CI jobs like the other
// full-workload determinism sweeps.

class UopWorkloadIdentity : public UopEngineTest,
                            public ::testing::WithParamInterface<const char*> {
};

TEST_P(UopWorkloadIdentity, PathSetInvariantAcrossFastPathStrategiesJobs) {
  core::Program program = workloads::load_workload(table, GetParam());

  core::MachineConfig reference_config;
  reference_config.uop_fastpath = false;
  Exploration reference = explore(program, reference_config, {});
  EXPECT_GT(reference.stats.paths, 100u);
  EXPECT_EQ(reference.stats.paths, reference.path_keys.size());

  bool saw_fast_path_work = false;
  for (bool uop : {true, false}) {
    for (core::SearchKind kind :
         {core::SearchKind::kDepthFirst, core::SearchKind::kCoverageGuided}) {
      for (unsigned jobs : {1u, 4u}) {
        if (!uop && kind == core::SearchKind::kDepthFirst && jobs == 1)
          continue;  // the reference configuration
        core::MachineConfig mconfig;
        mconfig.uop_fastpath = uop;
        core::EngineOptions options;
        options.search = kind;
        options.jobs = jobs;
        Exploration run = explore(program, mconfig, options);
        std::string label = std::string(uop ? "uop" : "spec") + " " +
                            core::search_kind_name(kind) +
                            " jobs=" + std::to_string(jobs);
        EXPECT_EQ(run.stats.paths, reference.stats.paths) << label;
        EXPECT_EQ(run.path_keys, reference.path_keys) << label;
        EXPECT_EQ(run.failures, reference.failures) << label;
        if (uop) {
          saw_fast_path_work |= run.stats.uop_blocks_compiled > 0;
        } else {
          EXPECT_EQ(run.stats.uop_blocks_compiled, 0u) << label;
        }
      }
    }
  }
  EXPECT_TRUE(saw_fast_path_work);
}

INSTANTIATE_TEST_SUITE_P(Table1, UopWorkloadIdentity,
                         ::testing::Values("base64-encode", "bubble-sort",
                                           "clif-parser", "insertion-sort",
                                           "uri-parser"));

}  // namespace
}  // namespace binsym
