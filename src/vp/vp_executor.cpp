#include "vp/vp_executor.hpp"

namespace binsym::vp {

VpExecutor::VpExecutor(smt::Context& ctx, const isa::Decoder& decoder,
                       const spec::Registry& registry,
                       const core::Program& program,
                       core::MachineConfig config)
    : ctx_(ctx),
      decoder_(decoder),
      registry_(registry),
      program_(program),
      config_(config),
      machine_(ctx, bus_, keeper_),
      ram_(machine_.memory()),
      timer_(keeper_) {
  bus_.map(kRamBase, kRamSize, &ram_);
  bus_.map(kUartBase, 0x1000, &uart_);
  bus_.map(kTimerBase, 0x1000, &timer_);
  bus_.map(kSymInputBase, 0x1000, &sym_input_);
  sym_input_.set_source(
      [this](unsigned bytes) { return machine_.fresh_input(bytes); });
}

void VpExecutor::run(const smt::Assignment& seed, core::PathTrace& trace) {
  trace.clear();
  machine_.reset(program_.image, program_.entry, config_.stack_top, seed,
                 trace);
  uart_.set_sink(&trace.output);
  loop();
}

void VpExecutor::loop() {
  core::PathTrace& trace = machine_.trace();
  while (machine_.running()) {
    if (trace.steps >= config_.max_steps) {
      machine_.stop(core::ExitReason::kMaxSteps);
      break;
    }
    if (!machine_.fetch_mapped()) {
      machine_.stop(core::ExitReason::kBadFetch);
      break;
    }
    uint32_t word = machine_.fetch_through_bus();

    const isa::Decoded* decoded;
    if (auto it = decode_cache_.find(word); it != decode_cache_.end()) {
      decoded = &it->second;
    } else {
      auto result = decoder_.decode(word);
      if (!result) {
        machine_.stop(core::ExitReason::kIllegalInstr);
        break;
      }
      decoded = &decode_cache_.emplace(word, *result).first->second;
    }

    const dsl::Semantics* semantics = registry_.get(decoded->id());
    if (!semantics) {
      machine_.stop(core::ExitReason::kIllegalInstr);
      break;
    }

    if (observer_) observer_->on_instruction(machine_.pc(), *decoded);
    machine_.set_next_pc(machine_.pc() + decoded->size);
    keeper_.advance(1);  // one cycle per retired instruction
    evaluator_.execute(*semantics, *decoded, machine_);
    machine_.advance();
    ++trace.steps;
    ++retired_;
  }
}

}  // namespace binsym::vp
