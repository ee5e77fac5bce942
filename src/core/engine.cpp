#include "core/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <new>
#include <span>
#include <stdexcept>
#include <thread>

#include "smt/slice.hpp"
#include "smt/smtlib.hpp"
#include "support/fault.hpp"
#include "support/format.hpp"
#include "support/resource.hpp"

namespace binsym::core {

namespace {

/// Assemble the final Finding record for a detection (an OracleHit or an
/// OracleCandidate) on `trace`: dedup-key fields, SMT-LIB rendering of the
/// faulting expression, and the witness input bytes (in sym_input creation
/// order) under `witness`.
template <typename Detection>
Finding finalize_finding(const smt::Context& ctx, const Detection& event,
                         const PathTrace& trace,
                         const smt::Assignment& witness, uint64_t index) {
  Finding f;
  f.oracle = event.oracle;
  f.pc = event.pc;
  f.call_depth = event.call_depth;
  f.detail = event.detail;
  if (event.expr) f.expr_text = smt::to_smtlib(ctx, event.expr);
  f.path_index = index;
  f.input.reserve(trace.input_vars.size());
  for (uint32_t var : trace.input_vars)
    f.input.push_back(static_cast<uint8_t>(witness.get(var)));
  return f;
}

/// A worker's solver assertion stack, kept across traces: one pushed level
/// per asserted constraint, mirrored here (wrappers need not keep
/// scoped_assertions()). Under DFS the next trace is a child of the last
/// one and hash-consing makes their shared prefix pointer-identical, so
/// sync() re-asserts only the constraints the two questions do not share.
/// Every level is popped when the stack goes out of scope.
class AssertionStack {
 public:
  explicit AssertionStack(smt::Solver& solver) : solver_(solver) {}
  ~AssertionStack() { pop_to(0); }
  AssertionStack(const AssertionStack&) = delete;
  AssertionStack& operator=(const AssertionStack&) = delete;

  /// Make the live assertions exactly `prefix`: pop down to the longest
  /// common prefix, then push and assert the rest, one level each.
  void sync(std::span<const smt::ExprRef> prefix) {
    size_t common = 0;
    const size_t shared = std::min(levels_.size(), prefix.size());
    while (common < shared && levels_[common] == prefix[common]) ++common;
    pop_to(common);
    levels_.reserve(prefix.size());  // push_back below cannot throw
    for (size_t i = common; i < prefix.size(); ++i) {
      solver_.push();
      levels_.push_back(prefix[i]);
      solver_.assert_(prefix[i]);
    }
  }

  /// Pop every level (after a job error, the stack may be out of sync).
  void clear() { pop_to(0); }

 private:
  void pop_to(size_t depth) {
    for (; levels_.size() > depth; levels_.pop_back()) solver_.pop();
  }

  smt::Solver& solver_;
  std::vector<smt::ExprRef> levels_;  // one per pushed level, oldest first
};

}  // namespace

void EngineStats::merge(const EngineStats& other) {
  BINSYM_ENGINE_COUNTERS(BINSYM_COUNTER_MERGE, BINSYM_NO_SOLVER_ROWS)
  if (other.incomplete) {
    incomplete = true;
    if (incomplete_reason.empty()) incomplete_reason = other.incomplete_reason;
  }
  solver.merge(other.solver);
}

std::vector<smt::ExprRef> flip_query(smt::Context& ctx, const PathTrace& trace,
                                     size_t flip_index) {
  std::vector<smt::ExprRef> constraints;
  constraints.reserve(flip_index + trace.assumptions.size() + 1);
  // Branch prefix, in as-taken form.
  for (size_t j = 0; j < flip_index; ++j) {
    const BranchRecord& branch = trace.branches[j];
    constraints.push_back(branch.taken ? branch.cond : ctx.not_(branch.cond));
  }
  // Assumptions made before the flip point (address concretizations).
  for (const Assumption& assumption : trace.assumptions) {
    if (assumption.branch_index <= flip_index)
      constraints.push_back(assumption.expr);
  }
  // The negated branch.
  const BranchRecord& flip = trace.branches[flip_index];
  constraints.push_back(flip.taken ? ctx.not_(flip.cond) : flip.cond);
  return constraints;
}

/// Exploration-wide state every worker touches. The frontier has its own
/// lock; the path counter is atomic; callback invocation and stats
/// merging serialize on `sink_mutex`.
struct DseEngine::Shared {
  Frontier frontier;
  const EngineOptions& options;
  const PathCallback& on_path;
  FindingLog& findings;  // internally locked (finding.hpp)
  std::atomic<uint64_t> path_counter{0};
  std::mutex sink_mutex;
  EngineStats totals;
  // Resource budgets (worker_loop polls both between jobs).
  std::chrono::steady_clock::time_point deadline{};
  bool has_deadline = false;

  Shared(std::unique_ptr<SearchStrategy> strategy, const EngineOptions& opts,
         const PathCallback& callback, FindingLog& log)
      : frontier(std::move(strategy)),
        options(opts),
        on_path(callback),
        findings(log) {}

  /// Flag the exploration as partial; the first reason wins.
  void mark_incomplete(std::string reason) {
    std::lock_guard<std::mutex> lock(sink_mutex);
    totals.incomplete = true;
    if (totals.incomplete_reason.empty())
      totals.incomplete_reason = std::move(reason);
  }
};

DseEngine::DseEngine(Executor& executor, std::unique_ptr<smt::Solver> solver,
                     EngineOptions options)
    : executor_(&executor), options_(options) {
  solver_ = wrap_solver(std::move(solver));
}

DseEngine::DseEngine(WorkerFactory factory, EngineOptions options)
    : factory_(std::move(factory)), options_(options) {
  if (!factory_)
    throw std::invalid_argument("DseEngine: null worker factory");
}

DseEngine::~DseEngine() = default;

std::unique_ptr<smt::Solver> DseEngine::wrap_solver(
    std::unique_ptr<smt::Solver> raw) {
  if (options_.validate_models)
    raw = std::make_unique<smt::ValidatingSolver>(std::move(raw));
  // Fault injection wraps innermost-facing: injected kUnknown/throws reach
  // the worker loop exactly as a real backend failure would (through any
  // validating wrapper above).
  if (options_.fault_plan)
    raw = std::make_unique<smt::FaultInjectingSolver>(std::move(raw),
                                                      options_.fault_plan);
  // Query caching is not a wrapper: the worker loop keys its cache by the
  // *effective* (sliced) query and serves hits before the scoped solver.
  return raw;
}

void DseEngine::worker_loop(Executor& executor, smt::Solver& solver,
                            Shared& shared) {
  smt::Context& ctx = executor.context();
  EngineStats local;
  PathTrace trace;
  const uint64_t instructions_before = executor.instructions_retired();
  const interp::UopCounters uop_before = executor.uop_counters();
  const uint64_t nodes_before = ctx.num_nodes();
  const uint64_t intern_hits_before = ctx.intern_hits();

  // Per-worker solver-pipeline state (workers never share any of it, so
  // the query cache is a plain map with no locking).
  const EngineOptions& opts = shared.options;
  smt::QuerySlicer slicer;
  smt::QueryCache cache;
  smt::SolverStore* const store = opts.solver_store.get();
  uint64_t cache_hits = 0, cache_misses = 0;
  uint64_t upstream_sat = 0, upstream_unsat = 0;  // cache or store answers
  // The trace's constraints in event order: as-taken branches, with
  // assumption k just before branch assumptions[k].branch_index. Every
  // question a trace asks is "a prefix of `events` ∧ target".
  std::vector<smt::ExprRef> events;
  AssertionStack stack(solver);

  // Per-job crash isolation: a job whose processing threw is recorded and
  // requeued until its retry budget is spent, then dropped as poisonous.
  // Either way the run continues and the merged result is marked
  // incomplete.
  FlipJob job;
  auto on_job_error = [&](const char* what) {
    // The throw may have left the solver's stack and its mirror apart.
    stack.clear();
    ++local.worker_errors;
    shared.mark_incomplete(std::string("worker error: ") + what);
    if (job.retries < opts.max_job_retries) {
      FlipJob retry = job;
      ++retry.retries;
      ++local.jobs_requeued;
      shared.frontier.push(std::move(retry));
    } else {
      ++local.jobs_poisoned;
    }
  };

  while (shared.frontier.pop(&job)) {
    // Cooperative resource budgets, polled between jobs (the granularity
    // every stop already has: a path run is never interrupted mid-flight).
    if (shared.has_deadline &&
        std::chrono::steady_clock::now() >= shared.deadline) {
      shared.mark_incomplete("wall-clock deadline (--deadline-secs) reached");
      shared.frontier.stop();
      break;
    }
    if (opts.memory_budget_mb > 0) {
      const uint64_t rss = support::current_rss_bytes();
      if (rss > opts.memory_budget_mb * 1024 * 1024) {
        shared.mark_incomplete(strprintf(
            "memory budget exceeded: rss %llu MiB > --memory-budget-mb %llu",
            static_cast<unsigned long long>(rss >> 20),
            static_cast<unsigned long long>(opts.memory_budget_mb)));
        shared.frontier.stop();
        break;
      }
    }

    // Claim a slot in the path budget before running; the first claim past
    // the budget ends the whole exploration.
    const uint64_t index = shared.path_counter.fetch_add(1);
    if (index >= shared.options.max_paths) {
      shared.frontier.stop();
      break;
    }

    try {
    // Offline execution: every job replays its seed from the entry point.
    smt::Assignment seed = seed_from_job(ctx, job);
    executor.run(seed, trace);
    ++local.paths;
    local.failures += trace.failures.size();
    local.max_branch_depth =
        std::max<uint64_t>(local.max_branch_depth, trace.branches.size());

    // A rerun must at least reach the branch it was scheduled to flip;
    // otherwise the program diverged from the predicted prefix.
    if (job.bound > 0 && trace.branches.size() < job.bound)
      ++local.divergences;

    if (shared.on_path) {
      std::lock_guard<std::mutex> lock(shared.sink_mutex);
      shared.on_path(PathResult{trace, seed, index});
    }
    shared.frontier.observe(trace);

    // The one answer path for every question a trace asks, "prefix ∧
    // target" (a negated branch or an oracle candidate's violation
    // condition), cheapest source first:
    //   1. query cache, keyed by the effective query: the target's
    //      variable-connected component(s) of the prefix (smt/slice.hpp) —
    //      questions over disjoint constraint groups collapse onto one key;
    //   2. the persistent store (same key — content hashes survive the
    //      process boundary), its name-keyed model translated back through
    //      this context's variable table — but only after the entry
    //      survives the collision checks below;
    //   3. the solver, through the scoped API: the worker's assertion
    //      stack is synced to the (unsliced) prefix, re-asserting only what
    //      the last question to get this far did not share, and the target
    //      ships as an assumption.
    // A sat model comes back restricted to the effective query's variables;
    // merged over the seed, it satisfies the whole query.
    auto answer = [&](std::span<const smt::ExprRef> prefix,
                      smt::ExprRef target) {
      const smt::QuerySlicer::Result sliced = slicer.slice(prefix, target);
      const std::vector<smt::ExprRef>& query = sliced.query;
      local.sliced_constraints += sliced.dropped;
      if (opts.measure_query_nodes) {
        uint64_t nodes = smt::node_count(std::span<const smt::ExprRef>(query));
        local.query_nodes_total += nodes;
        local.query_nodes_max = std::max(local.query_nodes_max, nodes);
      }

      const smt::QueryCache::Key key = smt::QueryCache::key_for(query);
      // The query's distinct variables are the store's collision
      // discriminator (lookup and insert both record their count).
      const auto var_count = static_cast<uint32_t>(sliced.vars.size());
      smt::QueryCache::Entry out;
      smt::Assignment& model = out.model;
      bool answered = cache.lookup(key, &out);
      ++(answered ? cache_hits : cache_misses);
      if (!answered && store) {
        // The key is a content hash, and a persisted keyspace shared across
        // targets and runs widens the collision exposure, so a hit is never
        // trusted blindly: the lookup itself rejects entries whose recorded
        // variable count differs, and a kSat entry's translated model must
        // satisfy the query under concrete evaluation. Either mismatch is a
        // colliding key from a different query — treated as a miss, the
        // solver decides (a wrong unsat would silently prune feasible
        // paths or drop a finding; a wrong model would corrupt a seed).
        smt::SolverStore::Entry stored;
        bool hit = store->lookup(key, var_count, &stored);
        if (hit && stored.verdict == smt::CheckResult::kSat) {
          // Stored models are name-keyed; every variable of a query is
          // declared in this context by the time the query exists, so the
          // translation back to var_ids is total for a genuine hit (an
          // unknown name can only come from a colliding key, which the
          // evaluation below rejects).
          for (const auto& [name, value] : stored.model)
            if (smt::ExprRef var = ctx.lookup_var(name))
              model.set(var->var_id, value);
          if (!smt::satisfies(query, model)) {
            hit = false;
            model.values.clear();
          }
        }
        if (hit) {
          out.result = stored.verdict;
          // Promote into the session cache so later questions re-answer
          // without the store's lock.
          cache.insert(key, out);
          answered = true;
          ++local.store_hits;
        } else {
          ++local.store_misses;
        }
      }
      if (answered) {
        ++(out.result == smt::CheckResult::kSat ? upstream_sat
                                                : upstream_unsat);
      } else {
        stack.sync(prefix);
        out.result = solver.check_assuming(std::span(&target, 1), &model);
        if (out.result == smt::CheckResult::kUnknown) {
          ++local.queries_unknown;
        } else {
          cache.insert(key, out);
        }
        // Record the definitive verdict for future *processes* (kUnknown is
        // rejected both here and inside the store — a weak answer is never
        // worth persisting). Models go in by variable name; var_ids are
        // meaningless outside this context.
        if (store && out.result != smt::CheckResult::kUnknown) {
          smt::SolverStore::Entry persisted;
          persisted.verdict = out.result;
          persisted.var_count = var_count;
          if (out.result == smt::CheckResult::kSat) {
            persisted.model.reserve(model.values.size());
            for (const auto& [var, value] : model.values)
              persisted.model.emplace_back(ctx.var_info(var).name, value);
          }
          store->insert(key, std::move(persisted));
        }
      }
      // A cached model may come from a question with other sliced-out
      // constraints, which the seed already satisfies.
      if (out.result == smt::CheckResult::kSat)
        smt::restrict_to_vars(&model, sliced.vars);
      return out;
    };
    // The run's seed, overridden by a restricted model: a witness or a
    // child seed.
    auto over_seed = [&seed](const smt::Assignment& model) {
      smt::Assignment merged = seed;
      for (const auto& [var, value] : model.values) merged.set(var, value);
      return merged;
    };
    auto record = [&](const auto& detection, const smt::Assignment& witness) {
      if (shared.findings.insert(
              finalize_finding(ctx, detection, trace, witness, index))) {
        ++local.findings;
      } else {
        ++local.finding_dupes;
      }
    };

    // This trace's constraints, built once in event order (see `events`).
    events.clear();
    const std::vector<Assumption>& assumptions = trace.assumptions;
    size_t assumed = 0;  // assumptions placed so far
    for (size_t b = 0; b < trace.branches.size(); ++b) {
      for (; assumed < assumptions.size() &&
             assumptions[assumed].branch_index <= b;
           ++assumed)
        events.push_back(assumptions[assumed].expr);
      const BranchRecord& branch = trace.branches[b];
      events.push_back(branch.taken ? branch.cond : ctx.not_(branch.cond));
    }
    for (; assumed < assumptions.size(); ++assumed)  // after the last branch
      events.push_back(assumptions[assumed].expr);
    const std::span<const smt::ExprRef> constraints(events);

    // Finalize this run's oracle detections (finding.hpp). Concrete hits
    // carry the run's seed as their witness; a candidate asks whether its
    // violation is feasible under the constraints that held at the event
    // point, branches[0, d) ∧ assumptions[0, a) ∧ cond — the first d + a
    // events — and a sat model over the seed becomes the witness.
    for (const OracleHit& hit : trace.oracle_hits) record(hit, seed);
    for (const OracleCandidate& c : trace.oracle_candidates) {
      // Already proven by some other path: skip the solver work. A racing
      // insert below still dedups correctly — this is only a fast path.
      if (shared.findings.contains(c.oracle, c.pc, c.call_depth)) continue;
      // Static pre-prover (EngineOptions::candidate_prune): a candidate
      // proven unsat never reaches the solver. In differential mode it
      // does anyway, and a sat answer is counted as a soundness mismatch
      // (the finding is still recorded, so behavior matches prune-off).
      bool statically_proved = false;
      if (opts.candidate_prune) {
        statically_proved = opts.candidate_prune(c);
        if (statically_proved) {
          ++local.static_proved;
          if (!opts.static_differential) continue;
        } else {
          ++local.static_unknown;
        }
      }
      ++local.candidates_checked;
      const smt::QueryCache::Entry feasible = answer(
          constraints.first(c.branch_depth + c.assumption_count), c.cond);
      if (feasible.result != smt::CheckResult::kSat) continue;
      if (statically_proved) ++local.static_mismatches;
      ++local.candidates_feasible;
      record(c, over_seed(feasible.model));
    }

    // Schedule flips. Under DFS, pushing shallow flips first leaves the
    // deepest flip on top of the stack: the paper's selection order, and
    // the next trace then shares this one's events up to the flipped
    // branch, which the assertion stack keeps asserted.
    assumed = 0;
    for (size_t i = job.bound; i < trace.branches.size(); ++i) {
      // Once the exploration is stopped (budget hit, worker error) the
      // remaining flips of this trace would only feed a dead frontier;
      // wind down instead of spending solver time on them.
      if (shared.frontier.stopped()) break;

      // Flip point i's prefix: the events before branch i, i.e. branches
      // [0, i) in as-taken form plus the assumptions made up to i.
      while (assumed < assumptions.size() &&
             assumptions[assumed].branch_index <= i)
        ++assumed;
      const BranchRecord& flip = trace.branches[i];
      ++local.flip_attempts;
      const smt::QueryCache::Entry flipped =
          answer(constraints.first(i + assumed),
                 flip.taken ? ctx.not_(flip.cond) : flip.cond);
      // An unknown verdict (deadline expiry, exhausted failover) is *not*
      // infeasible: the flip is skipped explicitly, never cached, and
      // counted so a timeout cannot silently masquerade as unsat.
      if (flipped.result == smt::CheckResult::kUnknown) {
        ++local.flips_skipped_unknown;
        continue;
      }
      if (flipped.result != smt::CheckResult::kSat) {
        ++local.infeasible_flips;
        continue;
      }
      ++local.feasible_flips;
      smt::Assignment next_seed = over_seed(flipped.model);
      // Fault site: building the child job is the allocation-heaviest step
      // of the flip loop (portable seed copy), so the kAlloc site fires here.
      if (opts.fault_plan &&
          opts.fault_plan->fire(support::FaultSite::kAlloc))
        throw std::bad_alloc();
      shared.frontier.push(
          make_flip_job(ctx, next_seed, i + 1, trace.branches[i].pc));
    }
    } catch (const std::exception& e) {
      on_job_error(e.what());
    } catch (...) {
      on_job_error("unknown exception");
    }
    shared.frontier.job_done();
  }

  local.instructions = executor.instructions_retired() - instructions_before;
  const interp::UopCounters uop_after = executor.uop_counters();
  local.uop_blocks_compiled = uop_after.blocks_compiled - uop_before.blocks_compiled;
  local.uop_cache_hits = uop_after.cache_hits - uop_before.cache_hits;
  local.uop_guard_bails = uop_after.guard_bails - uop_before.guard_bails;
  local.uop_invalidations = uop_after.invalidations - uop_before.invalidations;
  local.pages_clean_skipped =
      uop_after.pages_clean_skipped - uop_before.pages_clean_skipped;
  local.exprs_interned = ctx.num_nodes() - nodes_before;
  local.intern_hits = ctx.intern_hits() - intern_hits_before;
  local.arena_bytes = ctx.arena_bytes();
  local.solver = solver.stats();
  // Questions answered from the cache (or the persistent store — a cache
  // whose hits crossed a process boundary) count as logical solver queries
  // with their verdict, just like the ones the backend decided.
  local.solver.queries += upstream_sat + upstream_unsat;
  local.solver.sat += upstream_sat;
  local.solver.unsat += upstream_unsat;
  local.solver.cache_hits = cache_hits;
  local.solver.cache_misses = cache_misses;
  std::lock_guard<std::mutex> lock(shared.sink_mutex);
  shared.totals.merge(local);
}

EngineStats DseEngine::explore(const PathCallback& on_path) {
  const auto start = std::chrono::steady_clock::now();
  const unsigned jobs = std::max(1u, options_.jobs);
  if (jobs > 1 && !factory_)
    throw std::invalid_argument(
        "DseEngine: jobs > 1 requires the worker-factory constructor (each "
        "worker needs its own executor and context)");

  findings_.clear();
  Shared shared(make_search_strategy(options_.search, options_.rng_seed,
                                     options_.cfg_hints),
                options_, on_path, findings_);
  // The root job: all-zero input seed (every sym_input byte defaults to 0
  // under Assignment::get), nothing pinned.
  shared.frontier.push(FlipJob{});
  if (options_.deadline_secs > 0) {
    shared.has_deadline = true;
    shared.deadline = start + std::chrono::seconds(options_.deadline_secs);
  }

  // Crash isolation, outer ring: worker_loop already isolates per-job
  // failures, so anything escaping it is infrastructure-level (executor
  // construction state, frontier corruption, bad_alloc outside a job).
  // The run degrades to a partial report instead of rethrowing.
  auto guarded_loop = [this, &shared](Executor& executor,
                                      smt::Solver& solver) {
    try {
      worker_loop(executor, solver, shared);
    } catch (const std::exception& e) {
      shared.mark_incomplete(std::string("worker died: ") + e.what());
      {
        std::lock_guard<std::mutex> lock(shared.sink_mutex);
        ++shared.totals.worker_errors;
      }
      shared.frontier.stop();
    } catch (...) {
      shared.mark_incomplete("worker died: unknown exception");
      {
        std::lock_guard<std::mutex> lock(shared.sink_mutex);
        ++shared.totals.worker_errors;
      }
      shared.frontier.stop();
    }
  };

  std::string solver_name;
  if (jobs == 1) {
    // Sequential fast path: the same loop, inline on the calling thread —
    // single-thread behavior is identical to the classic offline engine.
    if (factory_) {
      WorkerResources res = factory_(0);
      std::unique_ptr<smt::Solver> solver = wrap_solver(std::move(res.solver));
      solver_name = solver->name();
      guarded_loop(*res.executor, *solver);
    } else {
      solver_name = solver_->name();
      guarded_loop(*executor_, *solver_);
    }
  } else {
    // Build every worker's resources up front (the factory need not be
    // thread-safe), then let the pool drain the frontier. Backends defer
    // their expensive set-up (z3's context) to their first call, on the
    // worker's thread.
    struct Worker {
      WorkerResources res;
      std::unique_ptr<smt::Solver> solver;
    };
    std::vector<Worker> workers;
    workers.reserve(jobs);
    for (unsigned i = 0; i < jobs; ++i) {
      Worker w;
      w.res = factory_(i);
      w.solver = wrap_solver(std::move(w.res.solver));
      workers.push_back(std::move(w));
    }
    solver_name = workers.front().solver->name();

    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned i = 0; i < jobs; ++i) {
      Worker& w = workers[i];
      pool.emplace_back(
          [&guarded_loop, &w] { guarded_loop(*w.res.executor, *w.solver); });
    }
    for (std::thread& t : pool) t.join();
  }

  // The engine-managed query cache is part of the effective solver stack;
  // reports keep the wrapper-style suffix.
  solver_name += "+cache";
  if (options_.solver_store) solver_name += "+store";

  EngineStats stats = std::move(shared.totals);
  if (options_.solver_store) {
    // One atomic flush at the end of the exploration (partial runs flush
    // too: their verdicts are just as definitive). A failed write keeps
    // the in-memory store and the previous file intact.
    options_.solver_store->flush();
    stats.store_entries = options_.solver_store->size();
  }
  stats.workers = jobs;
  stats.peak_frontier = shared.frontier.peak_size();
  stats.solver_name = std::move(solver_name);
  stats.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return stats;
}

}  // namespace binsym::core
