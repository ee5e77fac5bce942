#include "vp/vp_executor.hpp"

namespace binsym::vp {

VpExecutor::VpExecutor(smt::Context& ctx, const isa::Decoder& decoder,
                       const spec::Registry& registry,
                       const core::Program& program,
                       core::MachineConfig config)
    : ctx_(ctx),
      program_(program),
      config_(config),
      machine_(ctx, bus_, keeper_),
      ram_(machine_.memory()),
      timer_(keeper_),
      driver_(decoder, registry) {
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
  // No block cache: every access travels the modelled bus.
  driver_.run(machine_, trace.steps, config_.max_steps);
  retired_ += trace.steps;
}

}  // namespace binsym::vp
