#include "core/machine.hpp"

#include <string>

namespace binsym::core {

const char* exit_reason_name(ExitReason reason) {
  switch (reason) {
    case ExitReason::kRunning:         return "running";
    case ExitReason::kExit:            return "exit";
    case ExitReason::kEbreak:          return "ebreak";
    case ExitReason::kMaxSteps:        return "max-steps";
    case ExitReason::kBadFetch:        return "bad-fetch";
    case ExitReason::kIllegalInstr:    return "illegal-instruction";
    case ExitReason::kBadSyscall:      return "bad-syscall";
    case ExitReason::kSymbolicControl: return "symbolic-control";
  }
  return "?";
}

void SymMachine::reset(const ConcreteMemory& image, uint32_t entry,
                       uint32_t stack_top, const smt::Assignment& seed,
                       PathTrace& trace) {
  regs_.fill(interp::sval(0, 32));
  regs_[2] = interp::sval(stack_top, 32);  // sp
  csrs_.clear();
  memory_.reset(image);
  pc_ = entry;
  next_pc_ = entry;
  input_counter_ = 0;
  seed_ = &seed;
  trace_ = &trace;
  if (observer_) observer_->begin_run(trace);
}

uint64_t SymMachine::concretize(const Value& value) {
  if (!value.symbolic()) return value.conc;
  smt::ExprRef pin =
      ctx_.eq(value.sym, ctx_.constant(value.conc, value.width));
  trace_->assumptions.push_back(
      Assumption{trace_->branches.size(), pin});
  return value.conc;
}

SymMachine::Value SymMachine::fresh_input(unsigned bytes) {
  smt::ExprRef expr = nullptr;
  uint64_t conc = 0;
  for (unsigned i = 0; i < bytes; ++i) {
    std::string name = "in_" + std::to_string(input_counter_++);
    smt::ExprRef var = ctx_.var(name, 8);
    uint8_t byte = static_cast<uint8_t>(seed_->get(var->var_id));
    trace_->input_vars.push_back(var->var_id);
    conc |= static_cast<uint64_t>(byte) << (8 * i);
    expr = expr ? ctx_.concat(var, expr) : var;  // little-endian assembly
  }
  return interp::SymValue{conc, static_cast<uint8_t>(bytes * 8), expr};
}

void SymMachine::notify_binop(dsl::ExprOp op, const Value& a, const Value& b) {
  switch (op) {
    case dsl::ExprOp::kAdd:
    case dsl::ExprOp::kSub:
    case dsl::ExprOp::kMul:
    case dsl::ExprOp::kUDiv:
    case dsl::ExprOp::kURem:
    case dsl::ExprOp::kSDiv:
    case dsl::ExprOp::kSRem:
      observer_->on_binop(op, a, b);
      break;
    default:
      break;
  }
}

void SymMachine::ecall() {
  // The syscall ABI registers must be concrete; symbolic numbers/pointers
  // are pinned like any other control-state concretization.
  uint32_t number = static_cast<uint32_t>(concretize(read_register(17)));  // a7

  // The oracle syscalls come first: kSysAssert's condition (a0) must *not*
  // be concretized — pinning it to the seed's value would make the
  // violated arm unreachable for the solver. Both are no-ops without an
  // observer, so workloads using them still run on every engine.
  if (number == kSysAssert) {
    Value cond = read_register(10);
    uint32_t id = static_cast<uint32_t>(concretize(read_register(11)));
    if (observer_) observer_->on_assert(cond, id);
    return;
  }
  if (number == kSysReach) {
    uint32_t id = static_cast<uint32_t>(concretize(read_register(10)));
    if (observer_) observer_->on_reach(id);
    return;
  }

  uint32_t a0 = static_cast<uint32_t>(concretize(read_register(10)));
  uint32_t a1 = static_cast<uint32_t>(concretize(read_register(11)));

  switch (number) {
    case kSysExit:
      stop(ExitReason::kExit, a0);
      break;
    case kSysPutChar:
      trace_->output.push_back(static_cast<char>(a0 & 0xff));
      break;
    case kSysReportFail:
      trace_->failures.push_back(Failure{a0, pc_});
      break;
    case kSysSymInput: {
      for (uint32_t i = 0; i < a1; ++i) {
        std::string name = "in_" + std::to_string(input_counter_++);
        smt::ExprRef var = ctx_.var(name, 8);
        uint8_t conc = static_cast<uint8_t>(seed_->get(var->var_id));
        memory_.poke_symbolic(a0 + i, var, conc);
        trace_->input_vars.push_back(var->var_id);
      }
      // Guest-visible memory write like any store: cached code under the
      // input buffer must be dropped.
      if (store_watch_ && a1 != 0) store_watch_->on_guest_store(a0, a1);
      break;
    }
    default:
      stop(ExitReason::kBadSyscall, number);
      break;
  }
}

}  // namespace binsym::core
