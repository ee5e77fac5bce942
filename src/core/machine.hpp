// The concolic RISC-V machine: symbolic register file, CSR file and memory,
// plus the primitive implementations the modular interpreter needs.
//
// This is BinSym's "symbolic interpreter" state (paper Sect. III-B): the
// register file and memory are the generic LibRISCV components instantiated
// over symbolic values. The same object also serves the baseline IR
// executors, which keeps the engine comparison about *translation*, not
// state handling.
//
// Thread-safety: a SymMachine is confined to one engine worker, like the
// smt::Context it builds expressions in and the PathTrace it fills;
// nothing here locks. The attached ExecObserver (observer.hpp) shares
// that confinement.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>

#include "core/memory.hpp"
#include "core/observer.hpp"
#include "core/path.hpp"
#include "core/syscalls.hpp"
#include "dsl/ast.hpp"
#include "interp/uop.hpp"
#include "interp/value.hpp"
#include "smt/eval.hpp"

namespace binsym::core {

class SymMachine {
 public:
  using Value = interp::SymValue;

  SymMachine(smt::Context& ctx) : ctx_(ctx), memory_(ctx) {}

  /// Start a new path: restore the memory image, zero the registers, seed
  /// the stack pointer, and attach the run's trace + input seed.
  void reset(const ConcreteMemory& image, uint32_t entry, uint32_t stack_top,
             const smt::Assignment& seed, PathTrace& trace);

  // -- Machine stepping support (used by executors). ---------------------------

  /// Address of the instruction currently executing (always concrete in a
  /// concolic engine; see write_pc).
  uint32_t pc() const { return pc_; }
  /// Set the default fall-through successor (pc + size); the executor
  /// calls this before running the semantics, and WritePC overrides it.
  void set_next_pc(uint32_t next_pc) { next_pc_ = next_pc; }
  /// Commit next-pc as the new pc (end of one fetch/execute step).
  void advance() { pc_ = next_pc_; }
  /// False once any stop() reason is recorded on the attached trace.
  bool running() const { return trace_->exit == ExitReason::kRunning; }
  /// End the current run, recording why (and an optional payload such as
  /// the exit code or the offending syscall number) on the trace.
  void stop(ExitReason reason, uint32_t code = 0) {
    trace_->exit = reason;
    trace_->exit_code = code;
  }
  /// Concrete 32-bit instruction fetch at pc (fetch never consults the
  /// symbolic shadow — code is not self-modifying under symbolic data).
  uint32_t fetch_word() const { return static_cast<uint32_t>(memory_.read_concrete(pc_, 4)); }
  /// Whether pc lies on a mapped page (guards fetch_word; an unmapped pc
  /// ends the run with ExitReason::kBadFetch).
  bool fetch_mapped() const { return memory_.mapped(pc_); }
  /// Side-effect-free fetch at any address for micro-op lowering (false
  /// when `addr` is unmapped); like fetch_word, it ignores the shadow.
  bool code_word(uint32_t addr, uint32_t* word) const {
    if (!memory_.mapped(addr)) return false;
    *word = static_cast<uint32_t>(memory_.read_concrete(addr, 4));
    return true;
  }
  /// The instruction at pc is about to execute (after decode, before its
  /// semantics): the observer's per-instruction event.
  void on_instruction(const isa::Decoded& decoded) {
    if (observer_) observer_->on_instruction(pc_, decoded);
  }
  /// The run artifacts being filled; valid between reset() and the end of
  /// the run.
  PathTrace& trace() { return *trace_; }
  ConcolicMemory& memory() { return memory_; }
  const ConcolicMemory& memory() const { return memory_; }
  /// The expression context every symbolic value of this machine lives in.
  smt::Context& context() { return ctx_; }

  /// Attach a bug-finding observer (src/oracles), or null to detach. The
  /// observer must outlive every subsequent run; it receives begin_run
  /// from reset() and the per-event hooks below.
  /// Null (the default) keeps the hot paths free of observer work.
  void set_observer(ExecObserver* observer) { observer_ = observer; }

  /// Total global symbolic input bytes created so far (stable naming).
  unsigned input_counter() const { return input_counter_; }

  /// Attach a guest-store watch (the executor's BlockCache), or null. Every
  /// byte-range the guest writes — spec-path stores, fast-path stores,
  /// sym_input bindings — is reported, which is what keeps cached micro-op
  /// blocks sound against self-modifying code.
  void set_store_watch(interp::GuestStoreWatch* watch) { store_watch_ = watch; }

  // -- Micro-op fast-path support (executor.cpp's concolic policy). -------------

  /// Concrete view of register `index` if it holds no symbolic expression;
  /// returns false (a fast-path guard bail) otherwise.
  bool reg_concrete(unsigned index, uint32_t* out) const {
    if (index == 0) {
      *out = 0;
      return true;
    }
    const Value& v = regs_[index];
    if (v.symbolic()) return false;
    *out = static_cast<uint32_t>(v.conc);
    return true;
  }

  /// Fast-path register write: a plain 32-bit concrete value.
  void set_reg_concrete(unsigned index, uint32_t value) {
    if (index != 0) regs_[index] = interp::sval(value, 32);
  }

  // -- Primitives (interp::Evaluator interface). --------------------------------

  Value constant(uint64_t value, unsigned width) {
    return interp::sval(value, width);
  }

  Value read_register(unsigned index) const {
    return index == 0 ? interp::sval(0, 32) : regs_[index];
  }

  void write_register(unsigned index, const Value& value) {
    if (index != 0) regs_[index] = value;
  }

  Value read_csr(uint32_t csr) {
    auto it = csrs_.find(csr);
    return it == csrs_.end() ? interp::sval(0, 32) : it->second;
  }

  void write_csr(uint32_t csr, const Value& value) { csrs_[csr] = value; }

  Value pc_value() { return interp::sval(pc_, 32); }

  /// WritePC: control flow must be concrete in a concolic engine — a
  /// symbolic target is concretized with an assumption, the standard
  /// address-concretization strategy (paper Sect. III-B). The observer sees
  /// the unconcretized target (bad-jump / stack-smash oracles).
  void write_pc(const Value& target) {
    if (observer_) observer_->on_jump(target);
    next_pc_ = static_cast<uint32_t>(concretize(target));
  }

  Value load(unsigned bytes, const Value& addr) {
    if (observer_) observer_->on_load(addr, bytes);
    uint32_t a = static_cast<uint32_t>(concretize(addr));
    return memory_.load(a, bytes);
  }

  void store(unsigned bytes, const Value& addr, const Value& value) {
    if (observer_) observer_->on_store(addr, bytes, value);
    uint32_t a = static_cast<uint32_t>(concretize(addr));
    memory_.store(a, bytes, value);
    if (store_watch_) store_watch_->on_guest_store(a, bytes);
  }

  Value apply_un(dsl::ExprOp op, const Value& a, unsigned aux0, unsigned aux1) {
    return interp::s_un(ctx_, op, a, aux0, aux1);
  }

  Value apply_bin(dsl::ExprOp op, const Value& a, const Value& b) {
    if (observer_) notify_binop(op, a, b);
    return interp::s_bin(ctx_, op, a, b);
  }

  Value apply_ite(const Value& cond, const Value& a, const Value& b) {
    return interp::s_ite(ctx_, cond, a, b);
  }

  /// runIfElse: concolic branch — follow the concrete shadow and record the
  /// symbolic condition for the DFS driver to flip later.
  bool choose(const Value& cond) {
    bool taken = cond.conc != 0;
    if (observer_) observer_->on_branch(cond, taken);
    if (cond.symbolic())
      trace_->branches.push_back(BranchRecord{cond.sym, taken, pc_});
    return taken;
  }

  void ecall();
  void ebreak() { stop(ExitReason::kEbreak); }
  void fence() {}

  /// Mint `bytes` fresh symbolic input bytes (globally numbered, concrete
  /// shadows from the seed) and return them as one little-endian value.
  /// Backs both the sym_input syscall and MMIO input peripherals.
  Value fresh_input(unsigned bytes);

 protected:
  /// Force a concrete view of `value`; symbolic values contribute an
  /// `expr == concrete` assumption so later flips stay consistent.
  uint64_t concretize(const Value& value);

  /// The attached observer, for derived machines that shadow the data-path
  /// primitives (VpMachine re-fires on_load/on_store around the bus).
  ExecObserver* observer() const { return observer_; }

 private:
  /// Forward `op` to the observer iff it is one of the watched arithmetic
  /// operators (overflow / division-by-zero oracles).
  void notify_binop(dsl::ExprOp op, const Value& a, const Value& b);

  smt::Context& ctx_;
  std::array<Value, 32> regs_{};
  std::unordered_map<uint32_t, Value> csrs_;
  ConcolicMemory memory_;
  uint32_t pc_ = 0;
  uint32_t next_pc_ = 0;
  unsigned input_counter_ = 0;
  const smt::Assignment* seed_ = nullptr;
  PathTrace* trace_ = nullptr;
  ExecObserver* observer_ = nullptr;
  interp::GuestStoreWatch* store_watch_ = nullptr;
};

}  // namespace binsym::core
