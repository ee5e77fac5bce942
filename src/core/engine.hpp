// The DSE engine: offline executor with pluggable path selection and an
// optional worker pool.
//
// Implements the algorithm the paper attributes to BinSym (Sect. III-B):
// "an offline executor, which continuously restarts execution of the SUT
// with input values obtained for branch points from the solver ... dynamic
// symbolic execution with depth-first search path selection and address
// concretization" — generalized into three cooperating components:
//
//   SearchStrategy (search.hpp)  — which pending branch flip to take next;
//   Frontier       (frontier.hpp)— thread-safe work queue of FlipJobs;
//   worker pool    (this file)   — each worker owns an Executor +
//                                  smt::Context + solver backend and drains
//                                  the frontier.
//
// The driver stays generic over Executor, so all four engines of the
// evaluation share one search implementation; only the instruction->SMT
// translation differs, which is the comparison the paper makes. All four
// replay: every FlipJob re-executes its seed from the program entry point
// (Executor::run), so no engine carries a checkpoint/resume advantage. With
// jobs == 1 the same worker loop runs inline on the calling thread and
// reproduces the classic sequential exploration exactly (same path order,
// same counts, same queries).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "core/finding.hpp"
#include "core/frontier.hpp"
#include "core/path.hpp"
#include "core/search.hpp"
#include "smt/cache.hpp"
#include "smt/solver.hpp"
#include "smt/store.hpp"
#include "support/counters.hpp"

namespace binsym::core {

/// Exploration configuration. Plain data, set once before explore();
/// shared read-only across all workers afterwards.
struct EngineOptions {
  /// Stop after this many completed runs (the claim is made before a run
  /// starts, so the count is exact even under parallelism).
  uint64_t max_paths = UINT64_MAX;
  /// Path selection policy (see search.hpp). The paper's BinSym uses DFS.
  SearchKind search = SearchKind::kDepthFirst;
  /// Worker count. 1 = sequential on the calling thread (no threads
  /// spawned); > 1 requires the worker-factory constructor.
  unsigned jobs = 1;
  /// Seed for SearchKind::kRandomPath (reproducible schedules).
  uint64_t rng_seed = 1;
  /// Validate every sat model by concrete evaluation (testing aid).
  bool validate_models = false;
  // -- Flip solving. Every branch flip takes one path: the query is sliced
  // to the prefix constraints variable-connected to the negated branch
  // (smt/slice.hpp), keyed, and answered by the per-worker query cache,
  // then the persistent store below, then the solver's scoped API: each
  // worker keeps one assertion stack across traces and syncs it to the
  // flip's prefix, asserting only what the last backend question did not
  // share, and checks the negated branch as an assumption. The stack is
  // touched only when a flip reaches the backend.
  /// Persistent content-addressed query/model store (smt/store.hpp),
  /// shared across workers (internally locked) and across *processes*:
  /// flip queries answer from it before reaching a solver, definitive
  /// solver verdicts are recorded into it, and explore() flushes it to its
  /// backing file at the end — so a warm rerun of the same target replays
  /// prior solver work instead of redoing it. Like the cache, it can only
  /// change cost, never the explored path set. Null disables.
  /// CLI: --solver-store DIR.
  std::shared_ptr<smt::SolverStore> solver_store;
  /// Measure the effective (post-slicing) flip queries: distinct DAG nodes
  /// per query, accumulated into EngineStats. Costs one DAG walk per flip;
  /// meant for the SMT ablation bench, off in production explorations.
  bool measure_query_nodes = false;
  // -- Static analysis consumers (src/analysis). Like the cache and the
  // store, pruning may change only cost, never behavior: candidates
  // it skips are proven unsat, so path sets and finding sets are invariant
  // (pinned by tests/test_analysis.cpp).
  /// Oracle-candidate pre-prover: return true when the candidate is
  /// statically proven unsat, and the worker skips its solver query.
  /// Must be thread-safe (called concurrently from all workers). Leave
  /// empty to disable; never set it for the vp engine (MMIO loads return
  /// device values outside the static memory model).
  std::function<bool(const OracleCandidate&)> candidate_prune;
  /// Soundness-testing aid: solve statically-proven candidates anyway and
  /// count any sat answer in EngineStats::static_mismatches (which the
  /// differential tests then require to be zero).
  bool static_differential = false;
  /// Static CFG shape for coverage-guided search: score flips by distance
  /// to the nearest statically-uncovered block instead of raw visit
  /// counts. Independent of candidate_prune so schedules stay identical
  /// across prune on/off. Null = visit-count scoring.
  std::shared_ptr<const CfgHints> cfg_hints;
  // -- Robustness (docs/ROBUSTNESS.md). Hardening changes only how an
  // exploration *degrades*; a fault-free run within budget explores a
  // bit-identical path set with these at their defaults or not.
  /// Wall-clock budget for the whole exploration in seconds (0 = none).
  /// On expiry workers cooperatively stop, completed work is kept, and
  /// the result is marked incomplete. CLI: --deadline-secs.
  uint64_t deadline_secs = 0;
  /// RSS watermark in MiB (0 = none), polled by the workers between jobs.
  /// Crossing it stops the exploration like the deadline does. On
  /// platforms without an RSS probe the budget is never enforced.
  /// CLI: --memory-budget-mb.
  uint64_t memory_budget_mb = 0;
  /// Deterministic fault injection (support/fault.hpp): fail the Nth
  /// solver check / instrumented allocation. Null disables every site.
  /// CLI: explore --fault-inject SPEC.
  std::shared_ptr<support::FaultPlan> fault_plan;
};

/// Every exploration counter, declared once. A row is X(field, merge,
/// section, label):
///   field   — the EngineStats member (uint64_t, starts at 0);
///   merge   — how EngineStats::merge folds a worker's value in: `sum`,
///             `max`, or `set` (written by the engine after the workers
///             join, so merge leaves it alone);
///   section — the engine_stats_report line it prints on (core/stats.hpp);
///   label   — its `label=value` key on that line.
/// SOLVER(section) marks where that section's smt::SolverStats counters
/// (BINSYM_SOLVER_COUNTERS) go on the line. Adding a counter is one row
/// plus its write site: merge(), the report and tests/test_stats.cpp
/// follow the table.
#define BINSYM_ENGINE_COUNTERS(X, SOLVER)                                     \
  X(paths, sum, kHeader, "paths") /* completed runs == explored paths */      \
  X(failures, sum, kHeader, "failures") /* report_fail events, all paths */   \
  X(instructions, sum, kHeader, "instructions")                               \
  X(flip_attempts, sum, kFlips, "attempted") /* queries for branch flips */   \
  X(feasible_flips, sum, kFlips, "feasible")                                  \
  X(infeasible_flips, sum, kFlips, "infeasible")                              \
  /* reruns that did not reach the flip depth */                              \
  X(divergences, sum, kFlips, "divergences")                                  \
  X(max_branch_depth, max, kFlips, "max-depth")                               \
  /* worklist high-water mark (pending jobs) */                               \
  X(peak_frontier, set, kFlips, "peak-frontier")                              \
  SOLVER(kSolver)                                                             \
  /* prefix constraints dropped by slicing, summed over all flip queries */   \
  X(sliced_constraints, sum, kOpts, "sliced-out")                             \
  SOLVER(kOpts)                                                               \
  SOLVER(kSat)                                                                \
  /* -- Bug-finding oracles (finding.hpp). Zero unless an ExecObserver was    \
     attached to the executors. */                                            \
  X(findings, sum, kOracles, "findings") /* unique findings inserted */       \
  X(finding_dupes, sum, kOracles, "dupes") /* collapsed by the dedup key */   \
  /* candidates through the answer path, and those that came back sat */      \
  X(candidates_checked, sum, kOracles, "candidates")                          \
  X(candidates_feasible, sum, kOracles, "feasible")                           \
  /* -- Static candidate pruning (EngineOptions::candidate_prune). Zero       \
     unless a prover was installed. */                                        \
  X(static_proved, sum, kStatic, "proved") /* proven unsat, solver skipped */ \
  X(static_unknown, sum, kStatic, "unknown") /* the prover passed through */  \
  /* differential mode: proven-yet-sat (bug!) */                              \
  X(static_mismatches, sum, kStatic, "mismatches")                            \
  /* -- Micro-op fast path (interp/uop.hpp). Zero with uop_fastpath off or    \
     for executors without the fast path. */                                  \
  X(uop_blocks_compiled, sum, kUops, "blocks") /* straight-line blocks */     \
  X(uop_cache_hits, sum, kUops, "hits") /* block lookups from the cache */    \
  X(uop_guard_bails, sum, kUops, "bails") /* mid-block exits to spec */       \
  X(uop_invalidations, sum, kUops, "invalidations") /* dropped by stores */   \
  /* shadow lookups skipped via clean page summaries */                       \
  X(pages_clean_skipped, sum, kUops, "clean-pages")                           \
  /* effective query DAG nodes, summed, and the largest single query (both    \
     only with measure_query_nodes) */                                        \
  X(query_nodes_total, sum, kQueryNodes, "total")                             \
  X(query_nodes_max, max, kQueryNodes, "max")                                 \
  /* -- Expression arena (smt/context.hpp), summed over worker contexts:      \
     nodes allocated, builder calls answered from the intern table, and       \
     bytes held by arenas + intern tables. */                                 \
  X(exprs_interned, sum, kIntern, "interned")                                 \
  X(intern_hits, sum, kIntern, "hits")                                        \
  X(arena_bytes, sum, kIntern, "arena-bytes")                                 \
  /* -- Persistent store (EngineOptions::solver_store). Zero without one. */  \
  X(store_hits, sum, kStore, "hits") /* flips answered by the store */        \
  X(store_misses, sum, kStore, "misses") /* consulted, then went further */   \
  X(store_entries, sum, kStore, "entries") /* held after the final flush */   \
  /* -- Robustness (docs/ROBUSTNESS.md). Zero on a healthy run with no        \
     deadlines configured. Checks that came back kUnknown (deadline,          \
     theory limit, injected), and flips explicitly skipped on kUnknown        \
     (never counted as infeasible). */                                        \
  X(queries_unknown, sum, kRobust, "queries-unknown")                         \
  X(flips_skipped_unknown, sum, kRobust, "skipped-unknown")                   \
  SOLVER(kRobust)                                                             \
  X(worker_errors, sum, kRobust, "worker-errors") /* jobs that threw */       \
  X(jobs_requeued, sum, kRobust, "requeued") /* retried on the frontier */    \
  /* errored jobs dropped after their one retry (kMaxJobRetries) */          \
  X(jobs_poisoned, sum, kRobust, "poisoned")

/// Expands SOLVER(section) to nothing, for the uses of
/// BINSYM_ENGINE_COUNTERS that concern EngineStats's own members only.
#define BINSYM_NO_SOLVER_ROWS(section)

/// Exploration-wide counters. Each worker accumulates a private copy;
/// merge() folds them under the engine's sink mutex, so readers only ever
/// see the final merged value explore() returns.
struct EngineStats {
  BINSYM_ENGINE_COUNTERS(BINSYM_COUNTER_FIELD, BINSYM_NO_SOLVER_ROWS)
  // Always 0: no model-reuse pre-check exists, and snapshot/fork execution
  // is gone; perfbench/bench_e2e reads them.
  uint64_t presolve_hits = 0, presolve_misses = 0;
  uint64_t snapshot_hits = 0, snapshot_misses = 0, snapshot_captures = 0,
           snapshot_evictions = 0, snapshot_pages_copied = 0;
  unsigned workers = 1;          // worker count the exploration ran with
  double seconds = 0;            // wall-clock for the whole exploration
  /// True when the exploration ended before exhausting the frontier for a
  /// reason other than the configured path budget: wall-clock deadline,
  /// memory budget, or a worker error. The counters above then describe a
  /// *partial* exploration; `incomplete_reason` names the first cause.
  bool incomplete = false;
  std::string incomplete_reason;
  std::string solver_name;       // backend name incl. wrappers, for reports
  smt::SolverStats solver;       // merged across workers

  /// Fold one worker's partial stats in, row by row as the table says
  /// (solver stats merge too; `workers` and `seconds` are set by the
  /// engine, and the first incomplete_reason wins).
  void merge(const EngineStats& other);
};

/// One finished path, handed to the per-path callback. `index` is the
/// global path claim order; with several workers callbacks arrive in
/// completion order (serialized, but indices may interleave).
struct PathResult {
  const PathTrace& trace;
  const smt::Assignment& seed;
  uint64_t index;
};

/// Everything one worker owns. `keepalive` carries any extra per-worker
/// state the executor borrows (e.g. a baseline Lifter) and is declared
/// first so it is destroyed last; likewise the context outlives the
/// executor and solver built over it.
struct WorkerResources {
  std::shared_ptr<void> keepalive;
  std::unique_ptr<smt::Context> ctx;
  std::unique_ptr<Executor> executor;
  std::unique_ptr<smt::Solver> solver;  // raw backend over *ctx
};

/// Builds the resources for worker `index`; called once per worker, from
/// the engine's thread before the pool starts (the factory itself need not
/// be thread-safe). A backend may defer expensive set-up to its first call,
/// which then runs on the worker's thread (the z3 backend builds its
/// context there).
using WorkerFactory = std::function<WorkerResources(unsigned index)>;

/// Thread-safety: construct, explore() once, read the result — all from
/// one thread; the engine spawns and joins its own workers internally.
/// The PathCallback is invoked under a mutex (never concurrently), but
/// from worker threads, so it must not touch the caller's thread-local
/// state.
class DseEngine {
 public:
  using PathCallback = std::function<void(const PathResult&)>;

  /// Single-executor form: exploration borrows `executor` and runs
  /// sequentially on the calling thread. `solver` is the raw backend (e.g.
  /// from smt::make_z3_solver); ownership is taken so the engine can layer
  /// the validation and fault-injection wrappers. Requires options.jobs == 1.
  DseEngine(Executor& executor, std::unique_ptr<smt::Solver> solver,
            EngineOptions options = {});

  /// Worker-pool form: `factory` builds one executor + context + solver per
  /// worker (options.jobs of them). With jobs == 1 this behaves exactly
  /// like the single-executor form over factory(0)'s resources.
  DseEngine(WorkerFactory factory, EngineOptions options = {});

  ~DseEngine();

  /// Run the exploration to completion (or `max_paths`) starting from the
  /// all-zero input seed.
  EngineStats explore(const PathCallback& on_path = nullptr);

  /// Deduplicated findings collected by the last explore() (empty when no
  /// ExecObserver was attached to the executors). Findings are inserted in
  /// completion order; with several workers the order is nondeterministic,
  /// the *set* of (oracle, pc, call_depth) keys is not.
  std::vector<Finding> findings() const { return findings_.findings(); }

 private:
  struct Shared;  // exploration-wide mutable state (engine.cpp)

  std::unique_ptr<smt::Solver> wrap_solver(std::unique_ptr<smt::Solver> raw);
  void worker_loop(Executor& executor, smt::Solver& solver, Shared& shared);

  Executor* executor_ = nullptr;          // single-executor form
  std::unique_ptr<smt::Solver> solver_;   // single-executor form (wrapped)
  WorkerFactory factory_;                 // worker-pool form
  EngineOptions options_;
  FindingLog findings_;                   // shared, internally locked
};

/// Build the constraint set that pins branches [0, flip_index) as executed,
/// includes assumptions made up to the flip point, and negates branch
/// `flip_index`. Exposed for tests and tooling.
std::vector<smt::ExprRef> flip_query(smt::Context& ctx, const PathTrace& trace,
                                     size_t flip_index);

}  // namespace binsym::core
