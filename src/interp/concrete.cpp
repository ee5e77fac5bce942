#include "interp/concrete.hpp"

namespace binsym::interp {

namespace {

/// run_block policy over ConcreteMachine: everything is concrete, so the
/// register/load guards never fail — bails only come from the switch
/// fallback's default arm (never, for well-formed blocks).
struct ConcretePolicy {
  ConcreteMachine& m;
  BlockCache& cache;

  bool reg(unsigned index, uint32_t* out) {
    *out = index == 0 ? 0 : static_cast<uint32_t>(m.regs_[index].v);
    return true;
  }
  void set_reg(unsigned index, uint32_t value) {
    if (index != 0) m.regs_[index] = cval(value, 32);
  }
  bool load(uint32_t addr, unsigned bytes, uint32_t* out) {
    *out = static_cast<uint32_t>(m.memory_.read(addr, bytes));
    return true;
  }
  void store(uint32_t addr, unsigned bytes, uint32_t value, bool* exit_block) {
    m.memory_.write(addr, bytes, value);
    if (cache.on_guest_store(addr, bytes)) *exit_block = true;
  }
};

}  // namespace

void ConcreteMachine::ecall() {
  uint32_t number = static_cast<uint32_t>(read_register(17).v);  // a7
  uint32_t a0 = static_cast<uint32_t>(read_register(10).v);
  uint32_t a1 = static_cast<uint32_t>(read_register(11).v);
  switch (number) {
    case core::kSysExit:
      stop(core::ExitReason::kExit, a0);
      break;
    case core::kSysPutChar:
      output_.push_back(static_cast<char>(a0 & 0xff));
      break;
    case core::kSysReportFail:
      // The concrete ISS just logs the report into the output stream.
      output_ += "[fail " + std::to_string(a0) + "]";
      break;
    case core::kSysAssert:
      // The property syscalls (oracle interface) log concrete violations
      // and are otherwise no-ops, so asserting workloads run on every
      // machine, not just the observed concolic one.
      if (a0 == 0) output_ += "[assert-fail " + std::to_string(a1) + "]";
      break;
    case core::kSysReach:
      output_ += "[reach " + std::to_string(a0) + "]";
      break;
    case core::kSysSymInput:
      for (uint32_t i = 0; i < a1; ++i) {
        uint8_t value =
            input_provider_ ? input_provider_(input_counter_) : 0;
        ++input_counter_;
        memory_.write8(a0 + i, value);
      }
      // Guest-visible write: cached code under the buffer must be dropped.
      if (store_watch_ && a1 != 0) store_watch_->on_guest_store(a0, a1);
      break;
    default:
      stop(core::ExitReason::kBadSyscall, number);
      break;
  }
}

uint64_t Iss::run(uint64_t max_steps) {
  uint64_t steps = 0;
  driver_.run<ConcretePolicy>(machine_, steps, max_steps,
                              uop_fastpath_ ? &cache_ : nullptr);
  return steps;
}

}  // namespace binsym::interp
