#include "core/stats.hpp"

#include "support/format.hpp"

namespace binsym::core {

namespace {

/// The end of a line the counter tables cannot express: the header's
/// worker count and wall clock, the solver time and two derived averages.
std::string line_tail(ReportSection section, const EngineStats& stats) {
  auto avg = [](uint64_t total, uint64_t n) {
    return n ? static_cast<double>(total) / n : 0.0;
  };
  const smt::SolverStats& s = stats.solver;
  switch (section) {
    case ReportSection::kHeader:
      return strprintf(" workers=%u seconds=%.3f", stats.workers,
                       stats.seconds);
    case ReportSection::kSolver:
      return strprintf(" solve-time=%.3fs", s.solve_seconds);
    case ReportSection::kOpts:
      return strprintf(" (avg depth %.1f)",
                       avg(s.reused_assertions, s.incremental_checks));
    case ReportSection::kQueryNodes:
      return strprintf(" avg=%.1f",
                       avg(stats.query_nodes_total, stats.flip_attempts));
    default:
      return "";
  }
}

}  // namespace

std::string engine_stats_report(const EngineStats& stats) {
  std::string out;
  auto print_line = [&](ReportSection section, const char* name,
                        SectionPresence presence) {
    std::string line = section == ReportSection::kSolver
                           ? strprintf("solver[%s]:", stats.solver_name.c_str())
                       : *name ? std::string(name) + ":"
                               : "";
    bool any_nonzero = false;
    auto add = [&](ReportSection in, const char* label, uint64_t value) {
      if (in != section) return;
      any_nonzero |= value != 0;
      line += strprintf("%s%s=%llu", line.empty() ? "" : " ", label,
                        static_cast<unsigned long long>(value));
    };
    // The engine table's rows in order, with a section's solver rows where
    // its SOLVER(section) mark stands.
#define BINSYM_ENGINE_ITEM(field, merge, in, label) \
  add(ReportSection::in, label, stats.field);
#define BINSYM_SOLVER_ITEM(field, merge, in, label) \
  add(ReportSection::in, label, stats.solver.field);
#define BINSYM_SOLVER_ITEMS(mark)                  \
  if (section == ReportSection::mark) {            \
    BINSYM_SOLVER_COUNTERS(BINSYM_SOLVER_ITEM)     \
  }
    BINSYM_ENGINE_COUNTERS(BINSYM_ENGINE_ITEM, BINSYM_SOLVER_ITEMS)
#undef BINSYM_SOLVER_ITEMS
#undef BINSYM_SOLVER_ITEM
#undef BINSYM_ENGINE_ITEM
    if (presence == SectionPresence::kOptional && !any_nonzero) return;
    out += line + line_tail(section, stats) + "\n";
  };
#define BINSYM_SECTION_LINE(id, name, presence) \
  print_line(ReportSection::id, name, SectionPresence::presence);
  BINSYM_REPORT_SECTIONS(BINSYM_SECTION_LINE)
#undef BINSYM_SECTION_LINE
  // Partial-run marker: any budget stop or worker error flags the report so
  // "0 findings" can never be mistaken for "0 findings in a full search".
  if (stats.incomplete) {
    out += strprintf("incomplete: %s\n",
                     stats.incomplete_reason.empty()
                         ? "(unspecified)"
                         : stats.incomplete_reason.c_str());
  }
  return out;
}

std::string BranchCoverage::report() const {
  std::string out = strprintf(
      "branch sites: %zu, fully covered (both directions): %zu\n",
      num_sites(), num_fully_covered());
  for (const auto& [pc, entry] : sites_) {
    out += strprintf("  %s  taken=%8llu  not-taken=%8llu%s\n",
                     hex32(pc).c_str(),
                     static_cast<unsigned long long>(entry.taken),
                     static_cast<unsigned long long>(entry.not_taken),
                     entry.both_directions() ? "" : "   <- one-sided");
  }
  return out;
}

}  // namespace binsym::core
