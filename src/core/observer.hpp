// Execution observer: the hook surface the bug-finding oracles attach to.
//
// An ExecObserver sees every retired instruction, every data memory access
// (before address concretization, so the symbolic address expression is
// still inspectable), every indirect control transfer, the arithmetic
// operations the detectors care about, and the user assert/reach syscalls.
// The concolic machine and the executors invoke the hooks; src/oracles
// implements them. Keeping the interface in core avoids a layering
// inversion: core never links against the oracle implementations.
//
// Lifecycle: begin_run() opens every run (SymMachine::reset); observers
// carry per-run state (e.g. a shadow call stack) and reset it there.
//
// Thread-safety: an observer instance is confined to one engine worker
// (like the executor and smt::Context it observes); nothing here locks.
#pragma once

#include <cstdint>

#include "dsl/ast.hpp"
#include "interp/value.hpp"
#include "isa/decoder.hpp"

namespace binsym::core {

struct PathTrace;

class ExecObserver {
 public:
  virtual ~ExecObserver() = default;

  // -- Run lifecycle. --------------------------------------------------------

  /// A fresh run starts from the entry point; reset all per-run state.
  /// `trace` is where hits/candidates for this run are recorded and stays
  /// valid until the run ends.
  virtual void begin_run(PathTrace& trace) = 0;

  // -- Events. ---------------------------------------------------------------

  /// One instruction is about to execute (after decode, before semantics).
  virtual void on_instruction(uint32_t pc, const isa::Decoded& decoded) {
    (void)pc, (void)decoded;
  }

  /// Data load/store of `bytes` bytes. Fires before the address is
  /// concretized: `addr.sym` (when set) is the unpinned address expression,
  /// `addr.conc` the concrete shadow the access will use.
  virtual void on_load(const interp::SymValue& addr, unsigned bytes) {
    (void)addr, (void)bytes;
  }
  virtual void on_store(const interp::SymValue& addr, unsigned bytes,
                        const interp::SymValue& value) {
    (void)addr, (void)bytes, (void)value;
  }

  /// WritePC with a non-fallthrough target (jal/jalr/taken branches),
  /// before the target is concretized.
  virtual void on_jump(const interp::SymValue& target) { (void)target; }

  /// A runIfElse decision (before it is recorded on the trace). Several
  /// instruction semantics guard undefined-ish cases with an explicit
  /// fork — division by zero most prominently — so "the guard of the
  /// current div instruction was taken" *is* the division-by-zero event.
  virtual void on_branch(const interp::SymValue& cond, bool taken) {
    (void)cond, (void)taken;
  }

  /// Arithmetic the detectors watch: add/sub/mul (overflow) and
  /// udiv/urem/sdiv/srem (division by zero). Other operators never reach
  /// the observer.
  virtual void on_binop(dsl::ExprOp op, const interp::SymValue& a,
                        const interp::SymValue& b) {
    (void)op, (void)a, (void)b;
  }

  /// User assert(cond, id) syscall. `cond` is deliberately *not*
  /// concretized — a symbolic condition stays flippable by the solver.
  virtual void on_assert(const interp::SymValue& cond, uint32_t id) {
    (void)cond, (void)id;
  }

  /// User reach(id) syscall marker was executed.
  virtual void on_reach(uint32_t id) { (void)id; }
};

}  // namespace binsym::core
