// The fetch–decode–execute loop, once, for every spec interpreter.
//
// The ISS (concrete.hpp), the BinSym concolic executor (core/executor.hpp)
// and the SymEx-VP-like bus executor (vp/vp_executor.hpp) all run this
// loop; they differ only in the machine M they plug in and in whether they
// pass a micro-op block cache. Like Evaluator, the driver is the part of an
// interpreter that is the same for every analysis (paper Sect. III-B).
//
// On top of Evaluator<M>'s primitives, M supplies the loop interface:
//
//   bool running() const;                 // no exit reason recorded yet
//   void stop(core::ExitReason reason);
//   uint32_t pc() const;
//   void set_next_pc(uint32_t next_pc);   // default successor; WritePC
//   void advance();                       // overrides it; pc = next pc
//   bool fetch_mapped() const;            // pc lies on a mapped page
//   uint32_t fetch_word();                // the instruction word at pc
//   void on_instruction(const isa::Decoded& decoded);  // before semantics
//
// and, for the micro-op fast path only, a side-effect-free fetch for
// lowering (false when `addr` is unmapped):
//
//   bool code_word(uint32_t addr, uint32_t* word) const;
#pragma once

#include <cstdint>
#include <type_traits>
#include <unordered_map>

#include "core/path.hpp"
#include "interp/block_cache.hpp"
#include "interp/evaluator.hpp"
#include "interp/uop_run.hpp"
#include "isa/decoder.hpp"
#include "spec/registry.hpp"

namespace binsym::interp {

template <class M>
class Driver {
 public:
  Driver(const isa::Decoder& decoder, const spec::Registry& registry)
      : decoder_(decoder), registry_(registry) {}

  /// Run `m` from its pc until it stops. Each retired instruction counts
  /// one in `steps`; at `max_steps` the machine stops with kMaxSteps.
  ///
  /// With a block cache, straight-line runs execute as micro-op blocks
  /// through `Policy` (a run_block policy built as `Policy{m, *blocks}`);
  /// an instruction the policy refuses bails back to the spec path in the
  /// same iteration, so behavior is bit-identical with or without `blocks`.
  template <class Policy = void>
  void run(M& m, uint64_t& steps, uint64_t max_steps,
           BlockCache* blocks = nullptr) {
    while (m.running()) {
      if (steps >= max_steps) {
        m.stop(core::ExitReason::kMaxSteps);
        break;
      }
      if (!m.fetch_mapped()) {
        m.stop(core::ExitReason::kBadFetch);
        break;
      }
      if constexpr (!std::is_void_v<Policy>) {
        if (blocks && run_block_at_pc<Policy>(m, steps, max_steps, *blocks))
          continue;  // kStepLimit re-enters the budget check above
      }
      const isa::Decoded* decoded = decode(m.fetch_word());
      if (!decoded || !execute(m, *decoded)) {
        m.stop(core::ExitReason::kIllegalInstr);
        break;
      }
      ++steps;
    }
  }

  /// One instruction at m's pc on the spec path: the observer event, the
  /// default next pc, the semantics, advance. False (nothing executed)
  /// when no semantics are registered for it.
  bool execute(M& m, const isa::Decoded& decoded) {
    const dsl::Semantics* semantics = registry_.get(decoded.id());
    if (!semantics) return false;
    m.on_instruction(decoded);
    m.set_next_pc(m.pc() + decoded.size);
    evaluator_.execute(*semantics, decoded, m);
    m.advance();
    return true;
  }

 private:
  /// Decode results are immutable per word, so they are cached.
  const isa::Decoded* decode(uint32_t word) {
    if (auto it = decode_cache_.find(word); it != decode_cache_.end())
      return &it->second;
    auto result = decoder_.decode(word);
    if (!result) return nullptr;
    return &decode_cache_.emplace(word, *result).first->second;
  }

  /// Runs the block leading at pc, if there is one. True when the block
  /// ran to its end or to the budget; false when pc is left for the spec
  /// path — no block, or a bail that set pc to the refused instruction
  /// (re-entering the block there would bail forever).
  template <class Policy>
  bool run_block_at_pc(M& m, uint64_t& steps, uint64_t max_steps,
                       BlockCache& blocks) {
    const BlockCache::Block* block = blocks.lookup_or_compile(
        m.pc(), decoder_, registry_,
        [&m](uint32_t addr, uint32_t* word) { return m.code_word(addr, word); });
    if (!block || !block->count) return false;
    Policy policy{m, blocks};
    UopRun r = run_block(block->uops, block->count, max_steps - steps, policy);
    steps += r.steps;
    const bool bailed = r.exit == UopExit::kBail;
    m.set_next_pc(bailed ? r.bail_pc : r.next_pc);
    m.advance();
    if (bailed) blocks.count_bail();
    return !bailed;
  }

  const isa::Decoder& decoder_;
  const spec::Registry& registry_;
  Evaluator<M> evaluator_;
  std::unordered_map<uint32_t, isa::Decoded> decode_cache_;
};

}  // namespace binsym::interp
