// OracleManager: the bridge between the executor's raw ExecObserver events
// and the typed Oracle detectors.
//
// One manager per engine worker (it holds per-context ExprRefs and per-run
// state, both of which are worker-confined). Responsibilities:
//
//   * event routing — forwards memory/arith/assert/reach events to every
//     enabled oracle, and classifies WritePC events into calls, returns
//     and computed jumps using the current instruction;
//   * shadow call stack — pushes the link value at every `jal ra` /
//     `jalr ra` and exposes its depth as the findings' call_depth (the
//     third component of the dedup key); the top entry is the expected
//     return address the stack-smash oracle checks;
//   * per-run dedup — identical detections from one run (loops!) collapse
//     before they reach the trace; the global cross-path dedup lives in
//     core::FindingLog.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/observer.hpp"
#include "core/path.hpp"
#include "oracles/memory_map.hpp"
#include "oracles/oracle.hpp"

namespace binsym::oracles {

class OracleManager final : public core::ExecObserver {
 public:
  OracleManager(smt::Context& ctx, MemoryMap map)
      : ctx_(ctx), map_(std::move(map)) {}

  /// Enable one detector. Adding the same kind twice raises duplicate
  /// events; don't.
  void add(std::unique_ptr<Oracle> oracle);

  /// Build a manager with the detectors named in `spec`: "all", or a
  /// comma-separated list of oracle_kind_name() spellings. Returns null
  /// and sets `*error` for an unknown name or an empty list.
  static std::unique_ptr<OracleManager> make(smt::Context& ctx, MemoryMap map,
                                             const std::string& spec,
                                             std::string* error);

  /// Parse an --oracles spec into kinds (helper for make(), exposed so
  /// CLIs can validate before building workers).
  static bool parse_spec(const std::string& spec,
                         std::vector<core::OracleKind>* kinds,
                         std::string* error);

  // -- Context the detectors read. -------------------------------------------

  smt::Context& context() { return ctx_; }
  const MemoryMap& map() const { return map_; }
  /// pc of the instruction currently executing (the event site).
  uint32_t pc() const { return pc_; }
  /// Opcode id of the instruction currently executing.
  isa::OpcodeId instruction() const { return id_; }
  /// Shadow-call-stack depth at the event.
  uint32_t call_depth() const {
    return static_cast<uint32_t>(run_.shadow.size());
  }

  // -- Detection sinks (called by oracles). ----------------------------------

  /// Record a concretely-observed violation at the current pc/call depth.
  void hit(core::OracleKind kind, smt::ExprRef expr, std::string detail);

  /// Record a feasibility condition for the engine to solve. Candidates
  /// with an identical (kind, pc, depth, cond) were already recorded this
  /// run are dropped — the earliest event point has the weakest (most
  /// feasible) constraint prefix.
  void candidate(core::OracleKind kind, smt::ExprRef cond, smt::ExprRef expr,
                 std::string detail);

  // -- core::ExecObserver. ---------------------------------------------------

  void begin_run(core::PathTrace& trace) override;
  void on_instruction(uint32_t pc, const isa::Decoded& decoded) override;
  void on_load(const interp::SymValue& addr, unsigned bytes) override;
  void on_store(const interp::SymValue& addr, unsigned bytes,
                const interp::SymValue& value) override;
  void on_jump(const interp::SymValue& target) override;
  void on_branch(const interp::SymValue& cond, bool taken) override;
  void on_binop(dsl::ExprOp op, const interp::SymValue& a,
                const interp::SymValue& b) override;
  void on_assert(const interp::SymValue& cond, uint32_t id) override;
  void on_reach(uint32_t id) override;

 private:
  /// Everything per-run (begin_run resets it).
  struct RunState {
    std::vector<uint32_t> shadow;            // expected return addresses
    std::unordered_set<uint64_t> seen_hits;  // finding_key()
    // (finding_key(), cond node id) — an exact pair, not a packed hash:
    // dropping a candidate to a key collision would be a silent miss.
    std::set<std::pair<uint64_t, uint32_t>> seen_cands;
  };

  smt::Context& ctx_;
  MemoryMap map_;
  std::vector<std::unique_ptr<Oracle>> oracles_;
  core::PathTrace* trace_ = nullptr;
  RunState run_;
  // Current instruction (set by on_instruction; classifies jump events).
  uint32_t pc_ = 0;
  unsigned size_ = 4;
  isa::OpcodeId id_ = isa::kNumBuiltinOps;
  uint32_t rd_ = 0, rs1_ = 0;
  int32_t imm_ = 0;
};

}  // namespace binsym::oracles
