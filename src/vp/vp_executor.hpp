// The SymEx-VP-like engine: BinSym's spec interpretation behind a modelled
// bus. Instruction fetch and every data access travel as bus transactions;
// a quantum keeper accounts simulated time. Functionally identical to
// BinSymExecutor (same spec, same machine semantics) — Table I counts are
// equal by construction; only Fig. 6 timing differs.
#pragma once

#include <unordered_map>

#include "core/executor.hpp"
#include "vp/peripherals.hpp"

namespace binsym::vp {

/// Memory map of the prototype: RAM at 0 (covers the whole 31-bit RAM
/// space), UART + timer high MMIO windows.
inline constexpr uint32_t kRamBase = 0x0000'0000;
inline constexpr uint32_t kRamSize = 0x4000'0000;
inline constexpr uint32_t kUartBase = 0x1000'0000 + kRamSize;
inline constexpr uint32_t kTimerBase = kUartBase + 0x1000;
inline constexpr uint32_t kSymInputBase = kTimerBase + 0x1000;

/// SymMachine whose data path goes through the bus. The primitive interface
/// is bound statically by Evaluator<VpMachine>, so the shadowed load/store
/// below replace the direct-memory versions at compile time.
class VpMachine : public core::SymMachine {
 public:
  VpMachine(smt::Context& ctx, Bus& bus, QuantumKeeper& keeper)
      : core::SymMachine(ctx), bus_(bus), keeper_(keeper) {}

  Value load(unsigned bytes, const Value& addr) {
    // These shadow SymMachine::load/store (static binding through
    // Evaluator<VpMachine>), so the observer hooks must re-fire here —
    // before concretization, like the direct data path. The oracle bounds
    // map is expected to cover the MMIO windows (mmio_regions()).
    if (core::ExecObserver* obs = observer()) obs->on_load(addr, bytes);
    Transaction txn;
    txn.command = Transaction::Command::kRead;
    txn.address = static_cast<uint32_t>(concretize(addr));
    txn.bytes = bytes;
    if (!bus_.transport(txn)) {
      // Unclaimed addresses read as zero, matching the direct engines'
      // unmapped-memory convention.
      txn.data = interp::sval(0, bytes * 8);
    }
    account(txn);
    return txn.data;
  }

  void store(unsigned bytes, const Value& addr, const Value& value) {
    if (core::ExecObserver* obs = observer()) obs->on_store(addr, bytes, value);
    Transaction txn;
    txn.command = Transaction::Command::kWrite;
    txn.address = static_cast<uint32_t>(concretize(addr));
    txn.bytes = bytes;
    txn.data = value;
    bus_.transport(txn);
    account(txn);
  }

  /// Instruction fetch as a 4-byte bus read (concrete payload).
  uint32_t fetch_through_bus() {
    Transaction txn;
    txn.command = Transaction::Command::kRead;
    txn.address = pc();
    txn.bytes = 4;
    bus_.transport(txn);
    account(txn);
    return static_cast<uint32_t>(txn.data.conc);
  }

 private:
  void account(const Transaction& txn) {
    keeper_.advance(1 + txn.delay_cycles);
    keeper_.schedule(txn.delay_cycles);
    keeper_.maybe_sync();
  }

  Bus& bus_;
  QuantumKeeper& keeper_;
};

class VpExecutor final : public core::Executor {
 public:
  VpExecutor(smt::Context& ctx, const isa::Decoder& decoder,
             const spec::Registry& registry, const core::Program& program,
             core::MachineConfig config = {});

  std::string name() const override { return "symex-vp"; }
  smt::Context& context() override { return ctx_; }
  void run(const smt::Assignment& seed, core::PathTrace& trace) override;
  uint64_t instructions_retired() const override { return retired_; }

  bool supports_observer() const override { return true; }
  void set_observer(core::ExecObserver* observer) override {
    observer_ = observer;
    machine_.set_observer(observer);
  }

  /// The MMIO windows this executor maps. Bug-finding bounds oracles must
  /// register these as valid regions, or every peripheral access would be
  /// flagged out-of-bounds.
  static std::vector<core::MemRegion> mmio_regions() {
    return {{kUartBase, kUartBase + 0x1000},
            {kTimerBase, kTimerBase + 0x1000},
            {kSymInputBase, kSymInputBase + 0x1000}};
  }

  const QuantumKeeper& quantum_keeper() const { return keeper_; }

 private:
  /// The bus-interpretation loop of run(), from the machine's current state.
  void loop();

  core::ExecObserver* observer_ = nullptr;
  smt::Context& ctx_;
  const isa::Decoder& decoder_;
  const spec::Registry& registry_;
  const core::Program& program_;
  core::MachineConfig config_;
  QuantumKeeper keeper_;
  Bus bus_;
  VpMachine machine_;
  MemoryDevice ram_;
  UartDevice uart_;
  TimerDevice timer_;
  SymInputDevice sym_input_;
  interp::Evaluator<VpMachine> evaluator_;
  std::unordered_map<uint32_t, isa::Decoded> decode_cache_;
  uint64_t retired_ = 0;
};

}  // namespace binsym::vp
