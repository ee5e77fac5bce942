// Exploration-level analysis helpers built on PathTrace streams: branch
// coverage accounting and a per-branch-site summary. SE tools report these
// to users ("which branches were only ever taken one way?"), and the
// coverage map doubles as a regression oracle in tests.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "core/engine.hpp"
#include "core/path.hpp"

namespace binsym::core {

/// The lines of engine_stats_report, in order: S(id, name, presence). A
/// counter row's `section` (BINSYM_ENGINE_COUNTERS, BINSYM_SOLVER_COUNTERS)
/// is one of these ids; a line reads `name: label=value ...`, except the
/// header, which has no name. A kOptional line is elided when every
/// counter on it is zero (docs/BENCHMARKS.md lists them; check_docs.py
/// keeps that list in step with this table).
#define BINSYM_REPORT_SECTIONS(S)          \
  S(kHeader, "", kRequired)                \
  S(kFlips, "flips", kRequired)            \
  S(kSolver, "solver", kRequired)          \
  S(kOpts, "opts", kRequired)              \
  S(kSat, "sat", kOptional)                \
  S(kOracles, "oracles", kOptional)        \
  S(kStatic, "static", kOptional)          \
  S(kUops, "uops", kOptional)              \
  S(kQueryNodes, "query-nodes", kOptional) \
  S(kIntern, "intern", kOptional)          \
  S(kStore, "store", kOptional)            \
  S(kRobust, "robust", kOptional)

enum class SectionPresence { kRequired, kOptional };
enum class ReportSection {
#define BINSYM_SECTION_ID(id, name, presence) id,
  BINSYM_REPORT_SECTIONS(BINSYM_SECTION_ID)
#undef BINSYM_SECTION_ID
};

/// Multi-line human-readable exploration report: one line per section
/// above, every counter of the two tables on its section's line, then an
/// `incomplete:` line for a partial run.
std::string engine_stats_report(const EngineStats& stats);

/// Accumulates branch-direction coverage across explored paths, keyed by
/// the branch site's pc.
class BranchCoverage {
 public:
  void record(const PathTrace& trace) {
    for (const BranchRecord& branch : trace.branches) {
      Entry& entry = sites_[branch.pc];
      if (branch.taken) {
        ++entry.taken;
      } else {
        ++entry.not_taken;
      }
    }
  }

  struct Entry {
    uint64_t taken = 0;
    uint64_t not_taken = 0;
    bool both_directions() const { return taken > 0 && not_taken > 0; }
  };

  const std::map<uint32_t, Entry>& sites() const { return sites_; }

  size_t num_sites() const { return sites_.size(); }

  size_t num_fully_covered() const {
    size_t n = 0;
    for (const auto& [pc, entry] : sites_) n += entry.both_directions();
    return n;
  }

  /// Branch sites that only ever resolved one way — where exploration (or
  /// the program) leaves dead arms.
  std::vector<uint32_t> one_sided_sites() const {
    std::vector<uint32_t> out;
    for (const auto& [pc, entry] : sites_)
      if (!entry.both_directions()) out.push_back(pc);
    return out;
  }

  /// Human-readable summary table.
  std::string report() const;

 private:
  std::map<uint32_t, Entry> sites_;
};

}  // namespace binsym::core
