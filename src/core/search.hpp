// Path-selection strategies for the DSE engine.
//
// The paper's BinSym hard-codes depth-first selection; here selection is a
// pluggable SearchStrategy consuming FlipJobs — pending branch-flip work
// items produced whenever a feasible flip is found. Jobs carry their seed in
// a *portable* form (variable name + width + value, not context node ids) so
// a job produced by one worker's smt::Context can be consumed by another
// worker's: input variables are identified by name ("in_<N>"), which is
// stable across contexts, while node ids are not.
//
// Strategies are intentionally lock-free: the Frontier (frontier.hpp) owns
// one strategy and serializes every call under its own mutex, so strategy
// implementations stay simple single-threaded containers.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/path.hpp"
#include "smt/context.hpp"
#include "smt/eval.hpp"

namespace binsym::core {

/// Which SearchStrategy implementation to instantiate.
enum class SearchKind : uint8_t {
  kDepthFirst,      // the paper's selection: deepest pending flip first
  kBreadthFirst,    // shallowest first (worklist grows wide, finds short paths)
  kRandomPath,      // uniform over pending flips (seeded, reproducible)
  kCoverageGuided,  // fewest-visited flip pc first (novelty-seeking)
};

const char* search_kind_name(SearchKind kind);

/// Parse a --search flag value ("dfs", "bfs", "random", "coverage").
std::optional<SearchKind> parse_search_kind(std::string_view name);

/// All implemented kinds, in declaration order (ablation/test sweeps).
const std::vector<SearchKind>& all_search_kinds();

/// One seed variable in context-independent form.
struct SeedEntry {
  std::string name;
  unsigned width = 8;
  uint64_t value = 0;
};

/// A pending branch-flip work item: execute the program under `seed` and
/// schedule flips only for branches with index >= `bound` (everything below
/// is pinned prefix, already explored elsewhere).
struct FlipJob {
  std::vector<SeedEntry> seed;
  size_t bound = 0;     // first flippable branch index on this run
  uint32_t flip_pc = 0; // pc of the branch whose flip produced this job
  uint64_t seq = 0;     // global insertion order, assigned by the Frontier
  uint32_t retries = 0; // times this job errored and was requeued (the
                        // engine drops it past EngineOptions::max_job_retries)
};

/// Convert an engine-side Assignment (context var ids) into portable form.
FlipJob make_flip_job(const smt::Context& ctx, const smt::Assignment& seed,
                      size_t bound, uint32_t flip_pc);

/// Rebind a portable job onto `ctx`, interning variables as needed.
smt::Assignment seed_from_job(smt::Context& ctx, const FlipJob& job);

/// Static CFG shape for coverage-guided scoring, produced by the analysis
/// layer (analysis::StaticAnalysis::make_hints). Core must not depend on
/// src/analysis, so this is a plain POD: block ids are dense indices,
/// `preds` is the reverse block adjacency (the direction the uncovered-
/// distance BFS walks), and `block_of_pc` maps every statically reached
/// instruction to its block. Immutable once built; shared across workers.
struct CfgHints {
  std::unordered_map<uint32_t, uint32_t> block_of_pc;
  std::vector<std::vector<uint32_t>> preds;

  size_t num_blocks() const { return preds.size(); }
};

/// Path-selection policy over pending FlipJobs. Not thread-safe by itself;
/// the Frontier serializes every call under its own mutex, so
/// implementations stay simple single-threaded containers.
class SearchStrategy {
 public:
  virtual ~SearchStrategy() = default;
  /// Short policy name for reports ("dfs", "bfs", ...).
  virtual const char* name() const = 0;
  /// Accept a pending flip (the Frontier has already stamped `job.seq`).
  virtual void push(FlipJob job) = 0;
  /// Remove and return the next job. Precondition: !empty().
  virtual FlipJob pop() = 0;
  /// True when no job is pending.
  virtual bool empty() const = 0;
  /// Number of pending jobs (worklist-footprint statistics).
  virtual size_t size() const = 0;
  /// Observe a finished path (coverage-guided priorities); default no-op.
  virtual void observe(const PathTrace& trace) { (void)trace; }
};

/// Instantiate a strategy. `rng_seed` only affects kRandomPath; `hints`
/// only affects kCoverageGuided (static distance-to-uncovered-block
/// scoring instead of visit counts; null keeps the classic behavior).
std::unique_ptr<SearchStrategy> make_search_strategy(
    SearchKind kind, uint64_t rng_seed = 0,
    std::shared_ptr<const CfgHints> hints = nullptr);

}  // namespace binsym::core
