// Executor abstraction + the BinSym executor.
//
// An Executor runs the program once, concolically, under a given input seed
// and fills a PathTrace. The DSE driver (engine.hpp) is generic over this
// interface; the four engines of the paper's evaluation are four executors:
//
//   BinSymExecutor      — interprets the formal spec DSL (this file),
//   IrExecutor          — lifts to the mini-IR, optimized  ("BINSEC-like"),
//   BoxedIrExecutor     — boxed, uncached IR interpretation ("angr-like"),
//   VpExecutor          — BinSym behind a modelled bus      ("SymEx-VP-like").
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "core/path.hpp"
#include "interp/block_cache.hpp"
#include "interp/driver.hpp"
#include "interp/uop.hpp"
#include "isa/decoder.hpp"
#include "smt/context.hpp"
#include "spec/registry.hpp"

namespace binsym::core {

/// A byte-exact extent of valid guest memory, half-open: [lo, hi).
/// The out-of-bounds oracles (src/oracles) treat the union of a program's
/// regions (plus the engine-tracked stack, plus any registered MMIO
/// windows) as the only legal targets of a data access.
struct MemRegion {
  // Permission bits, ELF p_flags encoding (elf::kPfX/W/R match these).
  static constexpr uint32_t kExec = 1;
  static constexpr uint32_t kWrite = 2;
  static constexpr uint32_t kRead = 4;
  static constexpr uint32_t kAll = kRead | kWrite | kExec;

  uint32_t lo = 0;
  uint32_t hi = 0;
  /// RWX metadata from the loader (ELF p_flags). The dynamic bounds check
  /// (contains) deliberately ignores it — the machine has no MMU and the
  /// oracles only police extents — but the static analysis layer uses it
  /// to pick which segments to sweep for code vs. treat as data.
  uint32_t flags = kAll;

  /// True when the whole access [addr, addr + bytes) lies inside the
  /// region (bytes >= 1; wrap-around accesses are never contained).
  bool contains(uint32_t addr, unsigned bytes) const {
    return addr >= lo && addr < hi && hi - addr >= bytes;
  }
};

/// A loaded guest program: memory image + entry point + the loaded
/// segments' extents (the shadow bounds the out-of-bounds oracles check
/// against; filled from ELF PT_LOAD segments by elf::to_program and from
/// the raw loaders below).
struct Program {
  ConcreteMemory image;
  uint32_t entry = 0;
  std::vector<MemRegion> regions;

  /// Convenience: place raw words at an address (tests, examples). Both
  /// loaders record the written extent as a region with the given flags.
  void load_words(uint32_t addr, const std::vector<uint32_t>& words,
                  uint32_t flags = MemRegion::kAll);
  void load_bytes(uint32_t addr, const std::vector<uint8_t>& bytes,
                  uint32_t flags = MemRegion::kAll);
};

struct MachineConfig {
  uint32_t stack_top = 0x0010'0000;
  uint64_t max_steps = 10'000'000;
  /// Micro-op fast path (uop.hpp): compile straight-line runs to threaded
  /// micro-op blocks and execute them while all consumed operands are
  /// concrete. Off = pure per-instruction spec interpretation. Behavior is
  /// bit-identical either way; this only trades compile/cache overhead
  /// against per-instruction dispatch cost.
  bool uop_fastpath = true;
};

struct Snapshot;
struct SnapshotPlan;

class Executor {
 public:
  virtual ~Executor() = default;
  virtual std::string name() const = 0;
  virtual smt::Context& context() = 0;
  /// Execute one concrete+symbolic run from the entry point.
  virtual void run(const smt::Assignment& seed, PathTrace& trace) = 0;
  /// Instructions retired across all runs (throughput statistics).
  virtual uint64_t instructions_retired() const = 0;

  // -- Bug-finding observer support (optional; see observer.hpp). ------------

  /// Whether set_observer() actually delivers events. Callers that need
  /// detections (explore --oracles) should warn when this is false.
  virtual bool supports_observer() const { return false; }

  /// Attach an ExecObserver for all subsequent runs (null detaches). The
  /// observer must outlive the executor's runs. Default: ignored.
  virtual void set_observer(ExecObserver* observer) { (void)observer; }

  // Kept only because perfbench/tracing.hpp overrides these four.
  virtual bool supports_snapshots() const { return false; }
  virtual void run_with_snapshots(const smt::Assignment& seed,
                                  PathTrace& trace, const SnapshotPlan& plan) {
    (void)plan;
    run(seed, trace);
  }
  virtual bool resume(const Snapshot& snap, const smt::Assignment& seed,
                      PathTrace& trace, const SnapshotPlan& plan) {
    (void)snap, (void)seed, (void)trace, (void)plan;
    return false;
  }
  virtual uint64_t pages_copied() const { return 0; }

  /// Micro-op fast-path counters across all runs (all zero for executors
  /// without the fast path, or with it disabled).
  virtual interp::UopCounters uop_counters() const { return {}; }
};

/// The paper's engine: per-instruction interpretation of the formal
/// specification AST over the concolic machine.
class BinSymExecutor final : public Executor {
 public:
  BinSymExecutor(smt::Context& ctx, const isa::Decoder& decoder,
                 const spec::Registry& registry, const Program& program,
                 MachineConfig config = {});

  std::string name() const override { return "binsym"; }
  smt::Context& context() override { return ctx_; }
  void run(const smt::Assignment& seed, PathTrace& trace) override;
  uint64_t instructions_retired() const override { return retired_; }

  interp::UopCounters uop_counters() const override {
    interp::UopCounters counters = cache_.counters();
    counters.pages_clean_skipped = machine_.memory().pages_clean_skipped();
    return counters;
  }

  bool supports_observer() const override { return true; }
  void set_observer(ExecObserver* observer) override {
    observer_ = observer;
    machine_.set_observer(observer);
  }

  /// The machine as the last run left it (registers, memory, pc).
  const SymMachine& machine() const { return machine_; }

 private:
  ExecObserver* observer_ = nullptr;
  smt::Context& ctx_;
  const Program& program_;
  MachineConfig config_;
  SymMachine machine_;
  interp::Driver<SymMachine> driver_;
  uint64_t retired_ = 0;
  interp::BlockCache cache_;
};

}  // namespace binsym::core
