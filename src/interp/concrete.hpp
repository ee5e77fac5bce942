// Concrete interpreter (instruction set simulator).
//
// The same specification AST executed over plain bitvectors — LibRISCV's
// "concrete interpreter" (paper Sect. III-B). Used directly as an ISS, as
// the reference half of differential tests against the symbolic engines,
// and by examples that just want to run a guest program.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "core/memory.hpp"
#include "core/path.hpp"
#include "core/syscalls.hpp"
#include "interp/block_cache.hpp"
#include "interp/driver.hpp"
#include "interp/uop.hpp"
#include "interp/value.hpp"
#include "isa/decoder.hpp"
#include "spec/registry.hpp"

namespace binsym::interp {

class ConcreteMachine {
 public:
  using Value = CValue;

  // -- Primitives. -------------------------------------------------------------

  Value constant(uint64_t value, unsigned width) { return cval(value, width); }

  Value read_register(unsigned index) {
    return index == 0 ? cval(0, 32) : regs_[index];
  }

  void write_register(unsigned index, const Value& value) {
    if (index != 0) regs_[index] = value;
  }

  Value read_csr(uint32_t csr) {
    auto it = csrs_.find(csr);
    return it == csrs_.end() ? cval(0, 32) : it->second;
  }

  void write_csr(uint32_t csr, const Value& value) { csrs_[csr] = value; }

  Value pc_value() { return cval(pc_, 32); }
  void write_pc(const Value& target) { next_pc_ = static_cast<uint32_t>(target.v); }

  Value load(unsigned bytes, const Value& addr) {
    return cval(memory_.read(static_cast<uint32_t>(addr.v), bytes), bytes * 8);
  }

  void store(unsigned bytes, const Value& addr, const Value& value) {
    memory_.write(static_cast<uint32_t>(addr.v), bytes, value.v);
    if (store_watch_)
      store_watch_->on_guest_store(static_cast<uint32_t>(addr.v), bytes);
  }

  Value apply_un(dsl::ExprOp op, const Value& a, unsigned aux0, unsigned aux1) {
    return c_un(op, a, aux0, aux1);
  }
  Value apply_bin(dsl::ExprOp op, const Value& a, const Value& b) {
    return c_bin(op, a, b);
  }
  Value apply_ite(const Value& cond, const Value& a, const Value& b) {
    return c_ite(cond, a, b);
  }

  bool choose(const Value& cond) { return cond.v != 0; }

  void ecall();
  void ebreak() { stop(core::ExitReason::kEbreak); }
  void fence() {}

  // -- Loop interface (driver.hpp). ---------------------------------------------

  bool running() const { return exit_ == core::ExitReason::kRunning; }
  uint32_t pc() const { return pc_; }
  void set_next_pc(uint32_t next_pc) { next_pc_ = next_pc; }
  void advance() { pc_ = next_pc_; }
  bool fetch_mapped() const { return memory_.mapped(pc_); }
  uint32_t fetch_word() const {
    return static_cast<uint32_t>(memory_.read(pc_, 4));
  }
  bool code_word(uint32_t addr, uint32_t* word) const {
    if (!memory_.mapped(addr)) return false;
    *word = static_cast<uint32_t>(memory_.read(addr, 4));
    return true;
  }
  void on_instruction(const isa::Decoded&) {}

  // -- Machine control. ------------------------------------------------------------

  std::array<Value, 32> regs_{};
  std::unordered_map<uint32_t, Value> csrs_;
  core::ConcreteMemory memory_;
  uint32_t pc_ = 0;
  uint32_t next_pc_ = 0;
  core::ExitReason exit_ = core::ExitReason::kRunning;
  uint32_t exit_code_ = 0;
  std::string output_;
  /// Concrete values handed out for sym_input bytes, in call order.
  std::function<uint8_t(unsigned index)> input_provider_;
  unsigned input_counter_ = 0;
  /// Every guest store (spec path, fast path, sym_input) is reported here
  /// so cached micro-op blocks stay sound against self-modifying code.
  GuestStoreWatch* store_watch_ = nullptr;

  void stop(core::ExitReason reason, uint32_t code = 0) {
    exit_ = reason;
    exit_code_ = code;
  }
};

/// The ISS: ConcreteMachine run by the shared loop (driver.hpp).
///
/// With `uop_fastpath` on (the default), straight-line runs are lowered once
/// into micro-op blocks (uop.hpp) and executed with threaded dispatch;
/// system/CSR instructions and anything undecodable drop back to the spec
/// path per instruction. Behavior is bit-identical either way.
class Iss {
 public:
  Iss(const isa::Decoder& decoder, const spec::Registry& registry,
      bool uop_fastpath = true)
      : driver_(decoder, registry), uop_fastpath_(uop_fastpath) {
    if (uop_fastpath_) machine_.store_watch_ = &cache_;
  }

  ConcreteMachine& machine() { return machine_; }

  /// Execute a single already-decoded instruction (unit-test entry point;
  /// handles the default PC advance).
  void execute_one(const isa::Decoded& decoded) {
    if (!driver_.execute(machine_, decoded))
      machine_.stop(core::ExitReason::kIllegalInstr);
  }

  /// Run from machine().pc_ until exit or `max_steps`. Returns steps taken.
  uint64_t run(uint64_t max_steps = 10'000'000);

  /// Micro-op fast-path counters (all zero with the fast path off).
  UopCounters uop_counters() const { return cache_.counters(); }

 private:
  ConcreteMachine machine_;
  Driver<ConcreteMachine> driver_;
  bool uop_fastpath_;
  BlockCache cache_;
};

}  // namespace binsym::interp
