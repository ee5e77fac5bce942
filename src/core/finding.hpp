// Bug-finding oracle records.
//
// The detection layer (src/oracles) turns the path explorer into a property
// checker: oracles observe the concolic execution through core::ExecObserver
// and classify suspicious events into two shapes, both stored on the
// PathTrace the run fills in:
//
//   * OracleHit       — a violation that concretely *happened* on this run
//                       (the run's input seed is already a witness);
//   * OracleCandidate — a violation that is *possible* under this path's
//                       constraints (a width-1 feasibility condition the
//                       engine hands to the solver; a sat model yields the
//                       witness input).
//
// The engine finalizes both into Finding records, deduplicated globally by
// (oracle, pc, call_depth) in a FindingLog shared by all workers.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "smt/expr.hpp"

namespace binsym::core {

/// Identity of the detector that raised a finding. Stable values: the
/// dedup key and the findings JSON encode them.
enum class OracleKind : uint8_t {
  kOobLoad,     // load outside every valid memory region
  kOobStore,    // store outside every valid memory region
  kDivByZero,   // division/remainder with a (feasibly) zero divisor
  kOverflow,    // signed overflow in add/sub/mul over tainted operands
  kUnaligned,   // 2/4-byte access at a (feasibly) misaligned address
  kBadJump,     // indirect jump with a symbolic or unmapped target
  kStackSmash,  // return to an address that is not the pushed link value
  kAssertFail,  // user assert(cond) syscall with a (feasibly) false cond
  kReach,       // user reach(id) syscall marker was executed
  kNumOracleKinds,
};

/// Canonical lower-case name ("oob-load", ...). tools/check_docs.py
/// cross-checks these against docs/ORACLES.md through `explore
/// --list-oracles`, so every kind must have a doc section.
const char* oracle_kind_name(OracleKind kind);

/// Inverse of oracle_kind_name; returns kNumOracleKinds for unknown names.
OracleKind oracle_kind_from_name(const std::string& name);

/// A violation observed concretely during a run, recorded in trace order.
/// The seed the run executed under is a replay witness by construction.
struct OracleHit {
  OracleKind oracle = OracleKind::kNumOracleKinds;
  uint32_t pc = 0;          // address of the faulting instruction
  uint32_t call_depth = 0;  // shadow-call-stack depth at the event
  smt::ExprRef expr = nullptr;  // faulting expression (address, divisor,
                                // jump target, assert condition); null when
                                // the faulting value was pure concrete
  std::string detail;           // human-readable one-liner
};

/// A violation that did not happen concretely but may be feasible under the
/// path condition at the event point. The engine asks
///   branches[0, branch_depth) ∧ assumptions[0, assumption_count) ∧ cond
/// through the same answer path as a branch flip (slice, cache, store,
/// scoped check) and promotes a sat result to a Finding whose witness is
/// the slice-restricted model merged over the run's seed.
struct OracleCandidate {
  OracleKind oracle = OracleKind::kNumOracleKinds;
  uint32_t pc = 0;
  uint32_t call_depth = 0;
  smt::ExprRef cond = nullptr;  // width-1: "the violation occurs"
  smt::ExprRef expr = nullptr;  // faulting expression, for the report
  size_t branch_depth = 0;      // trace.branches.size() at the event
  size_t assumption_count = 0;  // trace.assumptions.size() at the event
  std::string detail;
};

/// Where a finding came from: the dynamic exploration (an executed or
/// solver-confirmed violation, with a witness input) or the static lint
/// tier (src/analysis/lint.hpp — proven from the load-time fixpoint alone,
/// before a single instruction executes; carries a `rule` instead of a
/// witness). Static findings are reported separately and never enter the
/// engine's FindingLog, so dynamic finding sets are invariant under them.
enum class FindingOrigin : uint8_t { kDynamic, kStatic };

/// A finalized, deduplicated detection: what engine_stats_report counts,
/// explore prints, and --findings-dir serializes (one JSON record plus one
/// replayable witness input file per finding).
struct Finding {
  OracleKind oracle = OracleKind::kNumOracleKinds;
  uint32_t pc = 0;
  uint32_t call_depth = 0;
  std::string detail;
  std::string expr_text;      // faulting expression, SMT-LIB rendering
  uint64_t path_index = 0;    // global index of the path that raised it
  std::vector<uint8_t> input; // witness input bytes, in sym_input order;
                              // replaying them reproduces the violation
                              // concretely (pinned by tests/test_oracles.cpp)
  FindingOrigin origin = FindingOrigin::kDynamic;
  std::string rule;           // static lint rule name, empty when dynamic
};

/// Packed dedup key: oracle × pc × call-depth.
inline uint64_t finding_key(OracleKind oracle, uint32_t pc,
                            uint32_t call_depth) {
  return (static_cast<uint64_t>(static_cast<uint8_t>(oracle)) << 56) |
         (static_cast<uint64_t>(call_depth & 0xffffff) << 32) | pc;
}

/// Exploration-wide finding collector. Thread-safety: every method locks;
/// workers insert concurrently, the engine reads the result after the pool
/// joins (findings() copies under the lock, so mid-exploration reads are
/// also safe).
class FindingLog {
 public:
  /// True if a finding with this dedup key was already inserted. Used by
  /// workers to skip solver work for already-proven candidates — a miss
  /// here is only a hint (insert() re-checks atomically).
  bool contains(OracleKind oracle, uint32_t pc, uint32_t call_depth) const;

  /// Insert if the key is new; returns false (and drops `finding`) for a
  /// duplicate.
  bool insert(Finding finding);

  std::vector<Finding> findings() const;
  size_t size() const;
  void clear();

 private:
  mutable std::mutex mutex_;
  std::unordered_set<uint64_t> keys_;
  std::vector<Finding> findings_;
};

}  // namespace binsym::core
