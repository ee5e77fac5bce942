#include "core/stats.hpp"

#include "support/format.hpp"

namespace binsym::core {

std::string engine_stats_report(const EngineStats& stats) {
  auto u = [](uint64_t v) { return static_cast<unsigned long long>(v); };
  std::string out = strprintf(
      "paths=%llu failures=%llu instructions=%llu workers=%u seconds=%.3f\n",
      u(stats.paths), u(stats.failures), u(stats.instructions), stats.workers,
      stats.seconds);
  out += strprintf(
      "flips: attempted=%llu feasible=%llu infeasible=%llu divergences=%llu "
      "max-depth=%llu peak-frontier=%llu\n",
      u(stats.flip_attempts), u(stats.feasible_flips),
      u(stats.infeasible_flips), u(stats.divergences),
      u(stats.max_branch_depth), u(stats.peak_frontier));
  const smt::SolverStats& s = stats.solver;
  out += strprintf(
      "solver[%s]: queries=%llu sat=%llu unsat=%llu unknown=%llu "
      "cache-hits=%llu cache-misses=%llu solve-time=%.3fs\n",
      stats.solver_name.c_str(), u(s.queries), u(s.sat), u(s.unsat),
      u(s.unknown), u(s.cache_hits), u(s.cache_misses), s.solve_seconds);
  // The solver-pipeline optimizations (engine.hpp): constraints removed by
  // independence slicing, and how much asserted prefix the incremental
  // scopes let each backend check reuse.
  out += strprintf(
      "opts: sliced-out=%llu incremental-checks=%llu reused-assertions=%llu "
      "(avg depth %.1f)\n",
      u(stats.sliced_constraints), u(s.incremental_checks),
      u(s.reused_assertions),
      s.incremental_checks
          ? static_cast<double>(s.reused_assertions) / s.incremental_checks
          : 0.0);
  // Bug-finding oracles (finding.hpp). Elided when no observer was
  // attached (all four counters zero).
  if (stats.findings || stats.finding_dupes || stats.candidates_checked ||
      stats.candidates_feasible) {
    out += strprintf(
        "oracles: findings=%llu dupes=%llu candidates=%llu feasible=%llu\n",
        u(stats.findings), u(stats.finding_dupes),
        u(stats.candidates_checked), u(stats.candidates_feasible));
  }
  // Static candidate pruning (EngineOptions::candidate_prune). Elided when
  // no prover was installed (all three counters zero); mismatches count
  // proven-yet-sat candidates seen in differential mode and must stay 0.
  if (stats.static_proved || stats.static_unknown || stats.static_mismatches) {
    out += strprintf("static: proved=%llu unknown=%llu mismatches=%llu\n",
                     u(stats.static_proved), u(stats.static_unknown),
                     u(stats.static_mismatches));
  }
  // Micro-op fast path (interp/uop.hpp). Elided when the fast path never
  // ran (disabled via uop_fastpath=false, or a spec-only executor).
  if (stats.uop_blocks_compiled || stats.uop_cache_hits ||
      stats.uop_guard_bails || stats.uop_invalidations ||
      stats.pages_clean_skipped) {
    out += strprintf(
        "uops: blocks=%llu hits=%llu bails=%llu invalidations=%llu "
        "clean-pages=%llu\n",
        u(stats.uop_blocks_compiled), u(stats.uop_cache_hits),
        u(stats.uop_guard_bails), u(stats.uop_invalidations),
        u(stats.pages_clean_skipped));
  }
  if (stats.query_nodes_total) {
    out += strprintf(
        "query-nodes: total=%llu max=%llu avg=%.1f\n",
        u(stats.query_nodes_total), u(stats.query_nodes_max),
        stats.flip_attempts
            ? static_cast<double>(stats.query_nodes_total) / stats.flip_attempts
            : 0.0);
  }
  // Expression arena (smt/context.hpp): nodes allocated across worker
  // contexts, builder calls answered by the intern table, and resident
  // arena + table bytes. Elided when no worker allocated a node.
  if (stats.exprs_interned || stats.intern_hits || stats.arena_bytes) {
    out += strprintf("intern: interned=%llu hits=%llu arena-bytes=%llu\n",
                     u(stats.exprs_interned), u(stats.intern_hits),
                     u(stats.arena_bytes));
  }
  // Solver portfolio (smt/portfolio.hpp): how many checks raced vs were
  // routed to a single member, loser checks cancelled, and decided checks
  // per winning backend. Elided when no portfolio ran (all counters zero).
  if (s.portfolio_races || s.portfolio_routed || s.portfolio_cancelled ||
      !s.portfolio_wins.empty()) {
    out += strprintf("portfolio: races=%llu routed=%llu cancelled=%llu wins=[",
                     u(s.portfolio_races), u(s.portfolio_routed),
                     u(s.portfolio_cancelled));
    bool first = true;
    for (const auto& [backend, wins] : s.portfolio_wins) {
      out += strprintf("%s%s=%llu", first ? "" : " ", backend.c_str(), u(wins));
      first = false;
    }
    out += "]\n";
  }
  // Persistent query/model store (smt/store.hpp). Elided when no store was
  // configured (all three counters zero).
  if (stats.store_hits || stats.store_misses || stats.store_entries) {
    out += strprintf("store: hits=%llu misses=%llu entries=%llu\n",
                     u(stats.store_hits), u(stats.store_misses),
                     u(stats.store_entries));
  }
  // Robustness machinery (docs/ROBUSTNESS.md): unknown-verdict accounting,
  // backend failover rescues, and crash-isolation bookkeeping. Elided on a
  // fully clean run (every counter zero).
  if (stats.queries_unknown || stats.flips_skipped_unknown ||
      stats.solver.failover_rescues || stats.worker_errors ||
      stats.jobs_requeued || stats.jobs_poisoned) {
    out += strprintf(
        "robust: queries-unknown=%llu skipped-unknown=%llu "
        "failover-rescues=%llu worker-errors=%llu requeued=%llu "
        "poisoned=%llu\n",
        u(stats.queries_unknown), u(stats.flips_skipped_unknown),
        u(stats.solver.failover_rescues), u(stats.worker_errors),
        u(stats.jobs_requeued), u(stats.jobs_poisoned));
  }
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
