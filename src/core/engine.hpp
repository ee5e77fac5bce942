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
  /// When non-empty: write every effective (sliced) query, branch flips and
  /// oracle candidates alike, as a standalone SMT-LIB file
  /// (query-000001.smt2, ...) into this directory — a reproducibility
  /// artifact (any SMT-LIB solver can replay the exploration's queries).
  /// Numbering is a global claim order across workers.
  std::string smtlib_dump_dir;
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
  /// How many times a FlipJob whose processing threw is requeued before it
  /// is dropped as poisonous (so a deterministic crasher cannot loop the
  /// run forever). Every such error marks the result incomplete.
  unsigned max_job_retries = 1;
  /// Deterministic fault injection (support/fault.hpp): fail the Nth
  /// solver check / instrumented allocation. Null disables every site.
  /// CLI: explore --fault-inject SPEC.
  std::shared_ptr<support::FaultPlan> fault_plan;
};

/// Exploration-wide counters. Each worker accumulates a private copy;
/// merge() folds them under the engine's sink mutex, so readers only ever
/// see the final merged value explore() returns.
struct EngineStats {
  uint64_t paths = 0;            // completed runs == explored paths
  uint64_t flip_attempts = 0;    // solver queries issued for branch flips
  uint64_t feasible_flips = 0;
  uint64_t infeasible_flips = 0;
  uint64_t divergences = 0;      // reruns that did not reach the flip depth
  uint64_t failures = 0;         // report_fail events across all paths
  uint64_t max_branch_depth = 0;
  uint64_t instructions = 0;
  // Always 0: no model-reuse pre-check exists; perfbench/bench_e2e reads them.
  uint64_t presolve_hits = 0, presolve_misses = 0;
  // -- Persistent store (EngineOptions::solver_store). Zero without one.
  uint64_t store_hits = 0;     // flips answered by the persistent store
  uint64_t store_misses = 0;   // store-consulted flips that went further
  uint64_t store_entries = 0;  // entries held after the final flush
  uint64_t sliced_constraints = 0;  // prefix constraints dropped by slicing,
                                    // summed over all flip queries
  uint64_t query_nodes_total = 0;   // effective query DAG nodes, summed
  uint64_t query_nodes_max = 0;     // ... and the largest single query
                                    // (both only with measure_query_nodes)
  // Always 0: snapshot/fork execution is gone; perfbench/bench_e2e reads them.
  uint64_t snapshot_hits = 0, snapshot_misses = 0, snapshot_captures = 0,
           snapshot_evictions = 0, snapshot_pages_copied = 0;
  // -- Bug-finding oracles (finding.hpp). Zero unless an ExecObserver was
  // attached to the executors.
  uint64_t findings = 0;             // unique findings this engine inserted
  uint64_t finding_dupes = 0;        // detections collapsed by the dedup key
  uint64_t candidates_checked = 0;   // candidates through the answer path
  uint64_t candidates_feasible = 0;  // ... that came back sat (=> finding)
  // -- Static candidate pruning (EngineOptions::candidate_prune). Zero
  // unless a prover was installed.
  uint64_t static_proved = 0;     // candidates proven unsat, solver skipped
  uint64_t static_unknown = 0;    // candidates the prover passed through
  uint64_t static_mismatches = 0; // differential mode: proven-yet-sat (bug!)
  // -- Micro-op fast path (interp/uop.hpp). Zero with uop_fastpath off or
  // for executors without the fast path.
  uint64_t uop_blocks_compiled = 0;  // straight-line blocks lowered
  uint64_t uop_cache_hits = 0;       // block lookups served from the cache
  uint64_t uop_guard_bails = 0;      // mid-block exits to the spec path
  uint64_t uop_invalidations = 0;    // blocks dropped by stores into them
  uint64_t pages_clean_skipped = 0;  // shadow lookups skipped via clean
                                     // page summaries
  // -- Expression arena (smt/context.hpp), summed over worker contexts.
  uint64_t exprs_interned = 0;  // nodes allocated in the arena
  uint64_t intern_hits = 0;     // builder calls answered from the intern
                                // table
  uint64_t arena_bytes = 0;     // bytes held by arenas + intern tables
  // -- Robustness (docs/ROBUSTNESS.md). Zero on a healthy run with no
  // deadlines configured.
  uint64_t queries_unknown = 0;      // solver checks that came back kUnknown
                                     // (deadline, theory limit, injected)
  uint64_t flips_skipped_unknown = 0;  // flips explicitly skipped on kUnknown
                                       // (never counted as infeasible)
  uint64_t worker_errors = 0;        // jobs whose processing threw
  uint64_t jobs_requeued = 0;        // errored jobs retried on the frontier
  uint64_t jobs_poisoned = 0;        // errored jobs dropped after the retry
                                     // budget (max_job_retries)
  uint64_t peak_frontier = 0;    // worklist high-water mark (pending jobs)
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

  /// Fold one worker's partial stats in (solver stats merge too; wall-clock
  /// `seconds`, `workers` and `peak_frontier` are set by the engine).
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

  /// The wrapped solver of the single-executor form. Only valid for that
  /// constructor (workers own their solvers privately).
  smt::Solver& solver();

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
