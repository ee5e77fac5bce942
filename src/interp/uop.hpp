// Micro-op compilation: straight-line guest code lowered to flat buffers.
//
// The per-instruction spec evaluator walks a semantics AST for every retired
// instruction; with solver cost (query pipeline) and candidate pruning
// (static analysis) already cheap, that walk over every replayed prefix is
// the engine's dominant cost. This layer decodes a straight-line run of RV32IM
// instructions — up to the next branch, jump or system op — once, into an
// arena-allocated array of micro-ops with pre-resolved immediates, and
// executes it with threaded dispatch (uop_run.hpp). The fast path only ever
// runs while every consumed operand is concrete and untainted; anything else
// bails back to the spec path at the exact faulting instruction, so the
// observable machine behavior is bit-identical with the fast path on or off.
//
// The micro-op buffers live in a per-interpreter BlockCache
// (block_cache.hpp); this header is deliberately light (no spec/isa
// includes) so the machines can carry a GuestStoreWatch pointer without
// pulling the decoder into every translation unit.
#pragma once

#include <cstdint>
#include <functional>

namespace binsym::isa {
class Decoder;
}
namespace binsym::spec {
class Registry;
}

namespace binsym::interp {

/// Micro-op kinds, one per supported RV32IM instruction. Branch/jump kinds
/// are terminators: lowering places them only as the last micro-op of a
/// block. The numeric order is load-bearing — uop_run.hpp indexes its
/// computed-goto label table by it.
enum class UKind : uint8_t {
  // Register-immediate ALU (imm holds the sign-extended immediate; for the
  // shifts it holds the 5-bit shamt).
  kAddi, kSlti, kSltiu, kXori, kOri, kAndi, kSlli, kSrli, kSrai,
  kLui, kAuipc,
  // Register-register ALU.
  kAdd, kSub, kSll, kSlt, kSltu, kXor, kSrl, kSra, kOr, kAnd,
  // M extension.
  kMul, kMulh, kMulhsu, kMulhu, kDiv, kDivu, kRem, kRemu,
  // Memory (imm holds the address offset).
  kLb, kLh, kLw, kLbu, kLhu, kSb, kSh, kSw,
  // No-op kept in-block so fences do not split hot runs.
  kFence,
  // Terminators (imm holds the pc-relative target offset; kJalr's is the
  // rs1-relative offset).
  kBeq, kBne, kBlt, kBge, kBltu, kBgeu, kJal, kJalr,
  kNumUKinds,
};

/// One micro-op: handler index + pre-extracted operand fields. 16 bytes,
/// laid out so the dispatch loop touches one cache line per 4 micro-ops.
struct Uop {
  UKind kind = UKind::kFence;
  uint8_t rd = 0;
  uint8_t rs1 = 0;
  uint8_t rs2 = 0;
  uint8_t size = 4;   // encoded instruction length (2 for compressed)
  int32_t imm = 0;    // immediate / shamt / branch offset
  uint32_t pc = 0;    // guest address (bail reporting, pc-relative ops)
};

/// Fast-path counters, aggregated per interpreter and merged into
/// EngineStats by the engine workers.
struct UopCounters {
  uint64_t blocks_compiled = 0;     // straight-line blocks lowered
  uint64_t cache_hits = 0;          // lookups served from the BlockCache
  uint64_t guard_bails = 0;         // mid-block exits to the spec path
  uint64_t invalidations = 0;       // blocks dropped by stores into them
  uint64_t pages_clean_skipped = 0; // accesses that skipped per-byte shadow
                                    // lookups via a clean page summary
};

/// Observer for guest stores, implemented by BlockCache: any store into a
/// page holding cached code must drop the affected blocks (self-modifying
/// code safety). Returns true when at least one block was dropped — the
/// running fast path then exits its block after the faulting store.
class GuestStoreWatch {
 public:
  virtual ~GuestStoreWatch() = default;
  virtual bool on_guest_store(uint32_t addr, uint64_t bytes) = 0;
};

/// Instruction fetch for lowering: write the 32-bit word at `pc` and return
/// true, or return false to end the block before `pc` (unmapped page, or a
/// page the cache refuses to compile from — see BlockCache poisoning).
using UopFetchFn = std::function<bool(uint32_t pc, uint32_t* word)>;

/// Decode the straight-line run starting at `start_pc` into `out` (capacity
/// `max_uops`). Stops after a terminator, before any instruction outside the
/// supported RV32IM subset (system/CSR/custom, or no registered semantics),
/// at capacity, or when `fetch` declines. Returns the number of micro-ops
/// written (0 = the leader itself is unsupported) and the byte length of
/// the lowered run in `*byte_length`.
unsigned lower_block(const isa::Decoder& decoder, const spec::Registry& registry,
                     const UopFetchFn& fetch, uint32_t start_pc, Uop* out,
                     unsigned max_uops, uint32_t* byte_length);

}  // namespace binsym::interp
