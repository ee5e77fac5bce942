// Dynamic information-flow tracking (DIFT) interpreter.
//
// The third modular interpreter over the same formal specification (the
// paper's Sect. III-B cites LibRISCV's concrete and DIFT interpreters as
// prior instantiations; BinSym adds the symbolic one). Values carry a
// concrete payload plus a taint bit; taint joins across every arithmetic
// primitive, flows through loads/stores byte-wise, and control decisions on
// tainted values are recorded (implicit-flow points). No instruction
// semantics are duplicated — the same spec AST drives all three
// interpreters, which is the extensibility claim in executable form.
#pragma once

#include <array>
#include <functional>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/path.hpp"
#include "core/syscalls.hpp"
#include "dsl/ast.hpp"
#include "interp/block_cache.hpp"
#include "interp/evaluator.hpp"
#include "interp/uop.hpp"
#include "interp/value.hpp"
#include "isa/decoder.hpp"
#include "spec/registry.hpp"

namespace binsym::interp {

/// Concrete value + taint bit.
struct TaintValue {
  uint64_t v = 0;
  uint8_t width = 32;
  bool tainted = false;
};

class TaintMachine {
 public:
  using Value = TaintValue;

  Value constant(uint64_t value, unsigned width) {
    return Value{truncate(value, width), static_cast<uint8_t>(width), false};
  }

  Value read_register(unsigned index) {
    return index == 0 ? constant(0, 32) : regs_[index];
  }

  void write_register(unsigned index, const Value& value) {
    if (index != 0) regs_[index] = value;
  }

  Value read_csr(uint32_t csr) {
    auto it = csrs_.find(csr);
    return it == csrs_.end() ? constant(0, 32) : it->second;
  }
  void write_csr(uint32_t csr, const Value& value) { csrs_[csr] = value; }

  Value pc_value() { return constant(pc_, 32); }
  void write_pc(const Value& target) {
    next_pc_ = static_cast<uint32_t>(target.v);
    if (target.tainted) tainted_pc_writes_.push_back(pc_);
  }

  Value load(unsigned bytes, const Value& addr) {
    uint32_t a = static_cast<uint32_t>(addr.v);
    uint64_t value = 0;
    bool tainted = addr.tainted;  // pointer taint propagates
    for (unsigned i = 0; i < bytes; ++i)
      value |= static_cast<uint64_t>(memory_byte(a + i)) << (8 * i);
    if (!range_untainted(a, bytes)) {
      for (unsigned i = 0; i < bytes && !tainted; ++i)
        tainted = taint_bytes_.count(a + i) != 0;
    }
    return Value{value, static_cast<uint8_t>(bytes * 8), tainted};
  }

  void store(unsigned bytes, const Value& addr, const Value& value) {
    uint32_t a = static_cast<uint32_t>(addr.v);
    for (unsigned i = 0; i < bytes; ++i)
      memory_[a + i] = static_cast<uint8_t>(value.v >> (8 * i));
    if (value.tainted || addr.tainted) {
      for (unsigned i = 0; i < bytes; ++i) taint_byte(a + i);
    } else if (!range_untainted(a, bytes)) {
      for (unsigned i = 0; i < bytes; ++i) untaint_byte(a + i);
    }
    if (store_watch_) store_watch_->on_guest_store(a, bytes);
  }

  Value apply_un(dsl::ExprOp op, const Value& a, unsigned aux0, unsigned aux1) {
    CValue r = c_un(op, CValue{a.v, a.width}, aux0, aux1);
    return Value{r.v, r.width, a.tainted};
  }

  Value apply_bin(dsl::ExprOp op, const Value& a, const Value& b) {
    CValue r = c_bin(op, CValue{a.v, a.width}, CValue{b.v, b.width});
    return Value{r.v, r.width, a.tainted || b.tainted};
  }

  Value apply_ite(const Value& cond, const Value& a, const Value& b) {
    Value chosen = cond.v ? a : b;
    chosen.tainted |= cond.tainted;  // implicit flow through selection
    return chosen;
  }

  bool choose(const Value& cond) {
    if (cond.tainted) tainted_branches_.push_back(pc_);
    return cond.v != 0;
  }

  void ecall();
  void ebreak() { exit_ = core::ExitReason::kEbreak; }
  void fence() {}

  // -- Machine control + taint inspection. --------------------------------------

  static constexpr uint32_t kPageBits = 12;

  uint8_t memory_byte(uint32_t addr) const {
    auto it = memory_.find(addr);
    return it == memory_.end() ? 0 : it->second;
  }
  bool byte_tainted(uint32_t addr) const { return taint_bytes_.count(addr); }

  // All taint-shadow mutation funnels through these two so the per-page
  // counts can never drift from taint_bytes_.
  void taint_byte(uint32_t addr) {
    if (taint_bytes_.insert(addr).second)
      ++taint_page_counts_[addr >> kPageBits];
  }
  void untaint_byte(uint32_t addr) {
    if (taint_bytes_.erase(addr) == 0) return;
    auto it = taint_page_counts_.find(addr >> kPageBits);
    if (--it->second == 0) taint_page_counts_.erase(it);
  }

  /// True when no byte of [addr, addr+bytes) is tainted, decided from the
  /// per-page taint counts alone (conservative on dirty pages). Counts
  /// every positive answer in pages_clean_skipped().
  bool range_untainted(uint32_t addr, unsigned bytes) const {
    if (!taint_page_counts_.empty()) {
      uint32_t first = addr >> kPageBits;
      uint32_t last = (addr + bytes - 1) >> kPageBits;
      if (last < first) return false;  // address-space wrap: stay byte-exact
      for (uint32_t page = first; page <= last; ++page)
        if (taint_page_counts_.count(page) != 0) return false;
    }
    ++pages_clean_skipped_;
    return true;
  }

  uint64_t pages_clean_skipped() const { return pages_clean_skipped_; }
  bool register_tainted(unsigned index) const {
    return index != 0 && regs_[index].tainted;
  }
  const std::vector<uint32_t>& tainted_branches() const {
    return tainted_branches_;
  }
  const std::vector<uint32_t>& tainted_pc_writes() const {
    return tainted_pc_writes_;
  }
  /// pcs of kSysAssert ecalls whose condition was tainted (the assertion
  /// outcome is input-controlled — the DIFT shadow of the assert oracle).
  const std::vector<uint32_t>& tainted_asserts() const {
    return tainted_asserts_;
  }

  std::array<Value, 32> regs_{};
  std::unordered_map<uint32_t, Value> csrs_;
  std::unordered_map<uint32_t, uint8_t> memory_;
  std::unordered_set<uint32_t> taint_bytes_;
  uint32_t pc_ = 0;
  uint32_t next_pc_ = 0;
  core::ExitReason exit_ = core::ExitReason::kRunning;
  uint32_t exit_code_ = 0;
  std::string output_;
  /// Concrete values for sym_input bytes (the taint sources); default 0.
  std::function<uint8_t(unsigned)> input_provider_;
  /// Every guest store is reported here (micro-op cache invalidation).
  GuestStoreWatch* store_watch_ = nullptr;

 private:
  std::vector<uint32_t> tainted_branches_;
  std::vector<uint32_t> tainted_pc_writes_;
  std::vector<uint32_t> tainted_asserts_;
  unsigned input_counter_ = 0;
  // page -> number of tainted bytes on it; absent = clean page.
  std::unordered_map<uint32_t, uint32_t> taint_page_counts_;
  mutable uint64_t pages_clean_skipped_ = 0;
};

/// Fetch/decode/execute driver around TaintMachine. sym_input bytes are the
/// taint sources; concrete values come from machine().input_provider_.
///
/// With `uop_fastpath` on (the default), straight-line runs whose consumed
/// operands are all untainted execute as micro-op blocks; any tainted
/// operand bails to the spec path at the faulting instruction, so taint
/// propagation is bit-identical either way.
class TaintTracker {
 public:
  TaintTracker(const isa::Decoder& decoder, const spec::Registry& registry,
               bool uop_fastpath = true)
      : decoder_(decoder), registry_(registry), uop_fastpath_(uop_fastpath) {
    if (uop_fastpath_) machine_.store_watch_ = &cache_;
  }

  TaintMachine& machine() { return machine_; }

  uint64_t run(uint64_t max_steps = 1'000'000);

  /// Micro-op fast-path counters (all zero with the fast path off).
  UopCounters uop_counters() const {
    return {cache_.blocks_compiled(), cache_.cache_hits(), guard_bails_,
            cache_.invalidations(), machine_.pages_clean_skipped()};
  }

 private:
  const BlockCache::Block* lookup_or_compile(uint32_t pc);

  const isa::Decoder& decoder_;
  const spec::Registry& registry_;
  TaintMachine machine_;
  Evaluator<TaintMachine> evaluator_;
  bool uop_fastpath_;
  BlockCache cache_;
  uint64_t guard_bails_ = 0;
};

}  // namespace binsym::interp
