// Deterministic fault injection for the robustness test harness.
//
// A FaultPlan names *which occurrence* of an instrumented operation should
// fail: "the 3rd solver check returns unknown", "every 2nd solver check
// starting at the 5th throws", "the 1st child-job allocation throws
// bad_alloc". Sites keep per-site occurrence counters, so a plan is fully
// deterministic for a deterministic exploration — the same run hits the
// same faults in the same places, which is what lets the fault-matrix
// tests assert exact degraded behavior instead of flaky approximations.
//
// Spec grammar (CLI: `explore --fault-inject SPEC`, comma-separated):
//
//   site@N      fail exactly the Nth occurrence (1-based)
//   site@N+     fail the Nth and every later occurrence
//   site@N:M    fail the Nth, then every Mth after it (N, N+M, N+2M, ...)
//
// with site one of:
//
//   solver         the check returns CheckResult::kUnknown
//   solver-throw   the check throws support::FaultInjected
//   alloc          an instrumented allocation throws std::bad_alloc
//
// Thread-safety: fire() is safe from any number of engine workers; the
// occurrence counters are atomics. Note that under several workers the
// *global* occurrence order of a site is scheduling-dependent — plans used
// in determinism-sensitive tests either run with jobs=1 or use open-ended
// (`N+`) rules, which are order-insensitive.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

namespace binsym::support {

/// Instrumented operation classes a plan can target.
enum class FaultSite : uint8_t {
  kSolverUnknown,  // "solver": check degrades to kUnknown
  kSolverThrow,    // "solver-throw": check throws FaultInjected
  kAlloc,          // "alloc": instrumented allocation throws bad_alloc
  kNumFaultSites,
};

/// Spec spelling for a site ("solver", "solver-throw", ...).
const char* fault_site_name(FaultSite site);

/// Thrown by kSolverThrow sites (and catchable distinctly from real backend
/// errors in tests).
class FaultInjected : public std::runtime_error {
 public:
  explicit FaultInjected(const std::string& what) : std::runtime_error(what) {}
};

class FaultPlan {
 public:
  /// One `site@N[...]` clause.
  struct Rule {
    uint64_t start = 1;     // 1-based occurrence the rule first fires at
    uint64_t every = 0;     // 0: fire only at `start`; k: start, start+k, ...
    bool open_ended = false;  // fire at every occurrence >= start
  };

  /// Parse a spec string (see grammar above). Returns null and fills
  /// `*error` (when non-null) on a malformed spec.
  static std::shared_ptr<FaultPlan> parse(const std::string& spec,
                                          std::string* error = nullptr);

  /// Add one rule programmatically (tests).
  void add(FaultSite site, Rule rule);

  /// Count one occurrence of `site` and report whether a rule says this
  /// occurrence must fail. Thread-safe.
  bool fire(FaultSite site);

  /// Occurrences counted at `site` so far (tests/diagnostics).
  uint64_t occurrences(FaultSite site) const;

  /// Times fire() returned true at `site` (tests/diagnostics).
  uint64_t fired(FaultSite site) const;

 private:
  static constexpr size_t kNumSites =
      static_cast<size_t>(FaultSite::kNumFaultSites);

  std::array<std::vector<Rule>, kNumSites> rules_;
  std::array<std::atomic<uint64_t>, kNumSites> counters_{};
  std::array<std::atomic<uint64_t>, kNumSites> fired_{};
};

}  // namespace binsym::support
