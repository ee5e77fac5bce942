// Shared benchmark plumbing: construct each of the four engines of the
// paper's evaluation for a given workload.
//
//   angr-like   = BoxedIrExecutor (re-lift + boxed values); Table I uses
//                 LifterBugs::all(), Fig. 6 the fixed lifter
//   binsec-like = IrExecutor (cached lifting, correct)
//   symex-vp    = VpExecutor (spec interpretation behind a modelled bus)
//   binsym      = BinSymExecutor (spec interpretation, direct)
//
// Every construction path funnels through build_worker(), so the owned
// single-instance form (EngineInstance) and the per-worker parallel form
// (WorkerFactory) can never drift apart.
#pragma once

#include <algorithm>
#include <charconv>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "baseline/ir_exec.hpp"
#include "core/engine.hpp"
#include "isa/decoder.hpp"
#include "oracles/manager.hpp"
#include "smt/pipe.hpp"
#include "smt/portfolio.hpp"
#include "smt/solver.hpp"
#include "spec/registry.hpp"
#include "vp/vp_executor.hpp"
#include "workloads/workloads.hpp"

namespace binsym::bench {

/// Solver-robustness knobs (docs/ROBUSTNESS.md) applied to every worker's
/// backend stack. With a per-query deadline set, each worker's solver is
/// wrapped in a FailoverSolver: a kUnknown (timeout) or thrown backend
/// failure on the primary retries once, statelessly, on the other backend.
struct RobustnessOptions {
  std::string solver = "z3";      // primary backend: "z3" | "bitblast" |
                                  // "pipe:CMD" (docs/SOLVERS.md)
  uint32_t query_timeout_ms = 0;  // per-query deadline; 0 = none
  bool failover = true;           // retry unknowns on the other backend
  // -- Solver portfolio (smt/portfolio.hpp). When on, each worker's backend
  // is a portfolio racing `portfolio_backends` per query; `solver` and
  // `failover` are ignored (a portfolio is already as strong as its
  // strongest member, so layering a failover on top would be redundant).
  bool portfolio = false;                          // CLI: --portfolio
  std::string portfolio_backends = "z3,bitblast";  // comma list of backend
                                                   // names as in `solver`
};

/// Split a --portfolio-backends comma list into backend names.
inline std::vector<std::string> split_backend_list(const std::string& list) {
  std::vector<std::string> names;
  size_t pos = 0;
  while (pos <= list.size()) {
    size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    if (comma > pos) names.push_back(list.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return names;
}

struct EngineSetup {
  const isa::Decoder& decoder;
  const spec::Registry& registry;
  const core::Program& program;
  /// Per-machine knobs (micro-op fast path, step budget, stack top) applied
  /// to every worker built from this setup. Defaulted so three-member
  /// aggregate initialization keeps working.
  core::MachineConfig config{};
  /// Solver deadline/failover knobs, also defaulted (no deadline, plain z3
  /// backend) so existing aggregate initializations keep working.
  RobustnessOptions robust{};
  /// Hash-cons expression nodes in every worker Context built from this
  /// setup (smt/context.hpp). Off = legacy fresh-node-per-call allocator,
  /// for the differential harness and the --no-intern ablation.
  bool intern_exprs = true;
};

/// A backend by CLI name — "z3", "bitblast", or "pipe:CMD" (an external
/// SMT-LIB solver command, e.g. "pipe:z3 -in"; see smt/pipe.hpp); null on
/// other names.
inline std::unique_ptr<smt::Solver> make_named_solver(const std::string& name,
                                                      smt::Context& ctx) {
  if (name == "z3") return smt::make_z3_solver(ctx);
  if (name == "bitblast") return smt::make_bitblast_solver(ctx);
  if (name.rfind("pipe:", 0) == 0)
    return smt::make_pipe_solver(ctx, name.substr(5));
  return nullptr;
}

/// True when `name` is a backend make_named_solver can build.
inline bool known_backend(const std::string& name) {
  return name == "z3" || name == "bitblast" || name.rfind("pipe:", 0) == 0;
}

/// Build the worker solver stack described by `robust` on `ctx`: the named
/// primary, with the per-query deadline applied, wrapped in a FailoverSolver
/// (lazily constructing the *other* backend) when a deadline is set and
/// failover is on. Without a deadline the stack is just the primary, so the
/// default configuration is byte-identical to the pre-robustness one.
inline std::unique_ptr<smt::Solver> make_robust_solver(
    const RobustnessOptions& robust, smt::Context& ctx) {
  if (robust.portfolio) {
    std::vector<std::unique_ptr<smt::Solver>> members;
    for (const std::string& name : split_backend_list(robust.portfolio_backends)) {
      std::unique_ptr<smt::Solver> member = make_named_solver(name, ctx);
      if (!member) return nullptr;
      members.push_back(std::move(member));
    }
    if (members.empty()) return nullptr;
    std::unique_ptr<smt::Solver> solver =
        smt::make_portfolio_solver(std::move(members));
    if (robust.query_timeout_ms > 0)
      solver->set_deadline_ms(robust.query_timeout_ms);
    return solver;
  }
  std::unique_ptr<smt::Solver> solver = make_named_solver(robust.solver, ctx);
  if (!solver) return nullptr;
  if (robust.query_timeout_ms == 0) return solver;
  if (robust.failover) {
    const std::string secondary = robust.solver == "z3" ? "bitblast" : "z3";
    solver = std::make_unique<smt::FailoverSolver>(
        std::move(solver),
        [secondary, &ctx] { return make_named_solver(secondary, ctx); });
  }
  solver->set_deadline_ms(robust.query_timeout_ms);
  return solver;
}

/// CLI spellings accepted by every harness: binsym, vp, binsec, angr,
/// angr-buggy.
inline bool known_engine(const std::string& engine) {
  return engine == "binsym" || engine == "vp" || engine == "binsec" ||
         engine == "angr" || engine == "angr-buggy";
}

/// The one per-engine construction path. Returns resources with a null
/// executor for unknown names. `bugs` applies to the lifter-based engines
/// ("angr-buggy" forces LifterBugs::all()); `with_solver` skips backend
/// construction for callers that bring their own.
inline core::WorkerResources build_worker(
    const std::string& engine, const EngineSetup& s,
    baseline::LifterBugs bugs = baseline::LifterBugs::none(),
    bool with_solver = true) {
  core::WorkerResources r;
  if (!known_engine(engine)) return r;
  r.ctx = std::make_unique<smt::Context>(s.intern_exprs);
  if (engine == "binsym") {
    r.executor = std::make_unique<core::BinSymExecutor>(
        *r.ctx, s.decoder, s.registry, s.program, s.config);
  } else if (engine == "vp") {
    r.executor = std::make_unique<vp::VpExecutor>(*r.ctx, s.decoder,
                                                  s.registry, s.program,
                                                  s.config);
  } else if (engine == "binsec" || engine == "angr" ||
             engine == "angr-buggy") {
    if (engine == "angr-buggy") bugs = baseline::LifterBugs::all();
    auto lifter = std::make_shared<baseline::Lifter>(bugs);
    if (engine == "binsec") {
      r.executor = std::make_unique<baseline::IrExecutor>(*r.ctx, s.decoder,
                                                          *lifter, s.program);
    } else {
      r.executor = std::make_unique<baseline::BoxedIrExecutor>(
          *r.ctx, s.decoder, *lifter, s.program);
    }
    r.keepalive = std::move(lifter);
  }
  if (with_solver) r.solver = make_robust_solver(s.robust, *r.ctx);
  return r;
}

/// Everything one engine instance needs, with owned lifetimes.
struct EngineInstance {
  std::string label;
  std::shared_ptr<void> keepalive;  // extra executor state (e.g. the lifter)
  std::unique_ptr<smt::Context> ctx;
  std::unique_ptr<core::Executor> executor;

  core::EngineStats explore(core::EngineOptions options = {}) {
    core::DseEngine engine(*executor, smt::make_z3_solver(*ctx), options);
    return engine.explore();
  }
};

inline EngineInstance make_engine(std::string label, const std::string& engine,
                                  const EngineSetup& s,
                                  baseline::LifterBugs bugs = {}) {
  core::WorkerResources r =
      build_worker(engine, s, bugs, /*with_solver=*/false);
  EngineInstance e;
  e.label = std::move(label);
  e.keepalive = std::move(r.keepalive);
  e.ctx = std::move(r.ctx);
  e.executor = std::move(r.executor);
  return e;
}

inline EngineInstance make_binsym(const EngineSetup& s) {
  return make_engine("BinSym", "binsym", s);
}

inline EngineInstance make_vp(const EngineSetup& s) {
  return make_engine("SymEx-VP", "vp", s);
}

inline EngineInstance make_binsec(const EngineSetup& s) {
  return make_engine("BinSec", "binsec", s);
}

inline EngineInstance make_angr(const EngineSetup& s, baseline::LifterBugs bugs) {
  return make_engine(bugs.any() ? "angr(buggy)" : "angr(fixed)", "angr", s,
                     bugs);
}

// -- Worker factories (parallel exploration). -------------------------------

/// The bounds map the oracle layer checks data accesses against: the
/// program's loaded segments, the default stack region, and — for the VP
/// engine — its MMIO windows.
inline oracles::MemoryMap make_memory_map(const std::string& engine,
                                          const EngineSetup& s) {
  oracles::MemoryMap map =
      oracles::MemoryMap::for_program(s.program, core::MachineConfig{}.stack_top);
  if (engine == "vp")
    for (const core::MemRegion& region : vp::VpExecutor::mmio_regions())
      map.add_region(region);
  return map;
}

/// Attach the oracles named by `spec` ("all" or a comma list; "" = none)
/// to a freshly built worker. The manager joins the worker's keepalive so
/// it outlives every run of the executor observing it. Returns false for
/// an invalid spec or an executor without observer support.
inline bool attach_oracles(const std::string& engine, const EngineSetup& s,
                           const std::string& spec, core::WorkerResources* r,
                           std::string* error = nullptr) {
  if (spec.empty()) return true;
  if (!r->executor || !r->executor->supports_observer()) {
    if (error)
      *error = "engine '" + engine + "' does not support execution observers";
    return false;
  }
  auto manager = oracles::OracleManager::make(*r->ctx,
                                              make_memory_map(engine, s),
                                              spec, error);
  if (!manager) return false;
  r->executor->set_observer(manager.get());
  struct Keep {
    std::shared_ptr<void> prev;
    std::unique_ptr<oracles::OracleManager> manager;
  };
  auto keep = std::make_shared<Keep>();
  keep->prev = std::move(r->keepalive);
  keep->manager = std::move(manager);
  r->keepalive = std::move(keep);
  return true;
}

/// A WorkerFactory builds one context + executor + solver per worker; the
/// EngineSetup's decoder/registry/program are shared read-only across the
/// pool. `oracles_spec` optionally enables bug-finding oracles on every
/// worker ("all" or a comma list of oracle names; validate it up front
/// with OracleManager::parse_spec — the factory aborts on a bad spec,
/// since it has no error channel). Returns a null factory for unknown
/// engine names.
inline core::WorkerFactory make_worker_factory(
    const std::string& engine, const EngineSetup& s,
    const std::string& oracles_spec = "") {
  if (!known_engine(engine)) return nullptr;
  return [engine, s, oracles_spec](unsigned) {
    core::WorkerResources r = build_worker(engine, s);
    std::string error;
    if (!attach_oracles(engine, s, oracles_spec, &r, &error)) {
      std::fprintf(stderr, "oracle setup failed: %s\n", error.c_str());
      std::abort();
    }
    return r;
  };
}

/// One-call parallel exploration for benches: build the factory, run the
/// engine with `options`, return merged stats.
inline core::EngineStats explore_parallel(
    const std::string& engine, const EngineSetup& s,
    core::EngineOptions options,
    const core::DseEngine::PathCallback& on_path = nullptr) {
  // The intern toggle lives on EngineOptions for CLI/engine consumers, but
  // contexts are built by the factory — mirror it into the setup so the two
  // can never disagree for a run.
  EngineSetup setup = s;
  setup.intern_exprs = options.intern_exprs;
  core::DseEngine dse(make_worker_factory(engine, setup), options);
  return dse.explore(on_path);
}

// -- Shared CLI flag parsing (--jobs / --search). ---------------------------

/// Parse the value of numeric flag `flag`: decimal digits only (no sign,
/// no spaces, no trailing characters), at most `max`. Anything else is a
/// usage error: prints "invalid value 'X' for FLAG" and exits with status 2.
inline uint64_t parse_unsigned_arg(const char* flag, std::string_view text,
                                   uint64_t max = UINT64_MAX) {
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  auto [stop, error] = std::from_chars(text.data(), end, value);
  if (text.empty() || error != std::errc() || stop != end || value > max) {
    std::fprintf(stderr, "invalid value '%.*s' for %s\n",
                 static_cast<int>(text.size()), text.data(), flag);
    std::exit(2);
  }
  return value;
}

/// Parse a --search value; prints a diagnostic and returns false on an
/// unknown strategy name.
inline bool parse_search_arg(const char* arg, core::SearchKind* out) {
  auto kind = core::parse_search_kind(arg);
  if (!kind) {
    std::fprintf(stderr, "unknown search strategy '%s'\n", arg);
    return false;
  }
  *out = *kind;
  return true;
}

/// Parse a --jobs value (see parse_unsigned_arg); zero clamps to one
/// worker.
inline unsigned parse_jobs_arg(std::string_view arg) {
  return std::max(1u, static_cast<unsigned>(
                          parse_unsigned_arg("--jobs", arg, UINT_MAX)));
}

/// Expression-layer toggle, shared by every harness: --no-intern (fresh
/// expression nodes per builder call instead of hash-consing). Returns
/// false when `arg` is anything else.
inline bool parse_solver_opt_flag(const char* arg,
                                  core::EngineOptions* options) {
  if (std::strcmp(arg, "--no-intern") != 0) return false;
  options->intern_exprs = false;
  return true;
}

/// Micro-op fast-path knobs, shared by every harness: --no-uop disables the
/// block-compiled fast path (pure per-instruction spec interpretation),
/// --uop-cache-size N bounds the per-worker block cache. Consumes the value
/// argument (advancing *i) for the latter. Returns false when argv[*i] is
/// neither.
inline bool parse_uop_flag(int argc, char** argv, int* i,
                           core::MachineConfig* config) {
  const char* arg = argv[*i];
  if (std::strcmp(arg, "--no-uop") == 0) {
    config->uop_fastpath = false;
  } else if (std::strcmp(arg, "--uop-cache-size") == 0 && *i + 1 < argc) {
    config->uop_cache_blocks = std::max(
        1u, static_cast<unsigned>(parse_unsigned_arg(
                "--uop-cache-size", argv[++*i], UINT32_MAX)));
  } else {
    return false;
  }
  return true;
}

/// Robustness knobs, shared by every harness (docs/ROBUSTNESS.md,
/// docs/SOLVERS.md):
///   --solver NAME             primary backend (z3 | bitblast | pipe:CMD)
///   --query-timeout-ms N      per-solver-query deadline (0 = none)
///   --no-failover             don't retry unknowns on the other backend
///   --portfolio               race backends per query (smt/portfolio.hpp)
///   --portfolio-backends LIST comma list of portfolio members
///   --deadline-secs N         wall-clock budget for the whole exploration
///   --memory-budget-mb N      stop when resident set exceeds N MiB
/// Consumes the value argument (advancing *i) for the valued flags. Returns
/// false when argv[*i] is none of them; prints a diagnostic and sets *ok to
/// false on a bad value (unknown solver name, missing argument). A bad
/// numeric value exits instead (parse_unsigned_arg).
inline bool parse_robustness_flag(int argc, char** argv, int* i,
                                  RobustnessOptions* robust,
                                  core::EngineOptions* options, bool* ok) {
  const char* arg = argv[*i];
  *ok = true;
  if (std::strcmp(arg, "--solver") == 0 && *i + 1 < argc) {
    robust->solver = argv[++*i];
    if (!known_backend(robust->solver)) {
      std::fprintf(stderr,
                   "unknown solver '%s' (want z3, bitblast or pipe:CMD)\n",
                   robust->solver.c_str());
      *ok = false;
    }
  } else if (std::strcmp(arg, "--portfolio") == 0) {
    robust->portfolio = true;
  } else if (std::strcmp(arg, "--portfolio-backends") == 0 && *i + 1 < argc) {
    robust->portfolio_backends = argv[++*i];
    robust->portfolio = true;  // naming members implies wanting the portfolio
    const std::vector<std::string> names =
        split_backend_list(robust->portfolio_backends);
    if (names.empty()) {
      std::fprintf(stderr, "--portfolio-backends: empty backend list\n");
      *ok = false;
    }
    for (const std::string& name : names) {
      if (!known_backend(name)) {
        std::fprintf(
            stderr,
            "unknown portfolio backend '%s' (want z3, bitblast or pipe:CMD)\n",
            name.c_str());
        *ok = false;
      }
    }
  } else if (std::strcmp(arg, "--query-timeout-ms") == 0 && *i + 1 < argc) {
    robust->query_timeout_ms = static_cast<uint32_t>(
        parse_unsigned_arg("--query-timeout-ms", argv[++*i], UINT32_MAX));
  } else if (std::strcmp(arg, "--no-failover") == 0) {
    robust->failover = false;
  } else if (std::strcmp(arg, "--deadline-secs") == 0 && *i + 1 < argc) {
    options->deadline_secs = parse_unsigned_arg("--deadline-secs", argv[++*i]);
  } else if (std::strcmp(arg, "--memory-budget-mb") == 0 && *i + 1 < argc) {
    // Capped so the MiB-to-bytes conversion cannot wrap.
    options->memory_budget_mb =
        parse_unsigned_arg("--memory-budget-mb", argv[++*i], UINT64_MAX >> 20);
  } else {
    return false;
  }
  return true;
}

}  // namespace binsym::bench
