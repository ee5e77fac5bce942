// Ablation: SMT query complexity and solver cost per optimization stage.
//
// Two questions share this harness. The paper's future-work question
// (Sect. V-B): does translating through formal ISA semantics change SMT
// query complexity compared to an IR-based translation? And this repo's
// own: what do expression interning and the backend layer change about the
// per-flip solver cost?
//
// For every Table I workload the harness explores with BinSym (DSL
// semantics) and the BINSEC-like engine (lifter IR) under the "default"
// flip pipeline (sliced query, cache, scoped solver) — plus a "no-intern"
// row re-running it with expression hash-consing disabled
// (smt/context.hpp) — and measures the *effective* branch-flip queries:
// distinct DAG nodes per query, cumulative solver seconds and cache hits.
// Path counts are printed so every row doubles as a determinism check —
// they must not move across configurations, the intern toggle included.
//
// Two backend-layer rows extend the sweep (see docs/SOLVERS.md): a
// "portfolio" row re-running the default pipeline with the racing solver
// portfolio (path counts must not move — the race may only change who
// answers, never what is explored), and a "persistent" row running the
// default pipeline twice over one content-addressed solver store — the
// reported stats are the warm second run, and on the query-heavy
// base64-encode/uri-parser workloads the warm run must issue at least 5x
// fewer backend checks than its cold twin while exploring the identical
// path count.
//
// Besides the table, each row is emitted as a JSON line into
// BENCH_smt_queries.json (cwd), the trajectory file CI's perf-smoke step
// appends to.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "engines.hpp"
#include "smt/store.hpp"

using namespace binsym;

namespace {

struct Config {
  const char* name;
  bool intern = true;
  bool portfolio = false;   // race z3 + bitblast per query
  bool persistent = false;  // cold + warm pair over one solver store
};

// "default" is the exploration every other row is compared against. The
// "no-intern" row re-runs it with expression hash-consing off (the legacy
// fresh-node-per-call allocator), isolating how much of the query DAG size
// the intern arena's structural sharing removes; the "portfolio" and
// "persistent" rows swap the backend layer under it (docs/SOLVERS.md).
constexpr Config kConfigs[] = {
    {"default"},
    {"no-intern", /*intern=*/false},
    {"portfolio", true, /*portfolio=*/true},
    {"persistent", true, false, /*persistent=*/true},
};

/// Checks the backend actually ran: queries it neither answered from the
/// in-memory cache nor from the persistent store.
uint64_t backend_calls(const core::EngineStats& s) {
  return s.solver.queries - s.solver.cache_hits - s.store_hits;
}

/// One measured exploration. A "persistent" config runs twice over one
/// private store directory — cold (populates the store; stats to
/// *cold_out) then warm (returned) — so the row shows what a restart pays.
core::EngineStats measure(const std::string& engine,
                          const bench::EngineSetup& setup,
                          const Config& config, uint64_t max_paths,
                          const std::string& store_tag,
                          core::EngineStats* cold_out) {
  core::EngineOptions options;
  options.max_paths = max_paths;
  options.intern_exprs = config.intern;
  options.measure_query_nodes = true;

  bench::EngineSetup local = setup;
  local.robust.portfolio = config.portfolio;
  if (!config.persistent)
    return bench::explore_parallel(engine, local, options);

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("binsym-bench-store-" + store_tag))
          .string();
  std::filesystem::remove_all(dir);
  options.solver_store = smt::SolverStore::open(dir);
  *cold_out = bench::explore_parallel(engine, local, options);
  options.solver_store = smt::SolverStore::open(dir);
  core::EngineStats warm = bench::explore_parallel(engine, local, options);
  std::filesystem::remove_all(dir);
  return warm;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  const uint64_t max_paths = quick ? 100 : 400;

  isa::OpcodeTable table;
  isa::Decoder decoder(table);
  spec::Registry registry;
  spec::install_rv32im(registry, table);

  std::FILE* json = std::fopen("BENCH_smt_queries.json", "w");

  std::printf(
      "ABLATION: SMT QUERY COMPLEXITY — translation strategy x solver "
      "pipeline {default, no-intern, portfolio, persistent}%s\n",
      quick ? " (quick)" : "");
  std::printf("%-16s %-8s %-13s %8s %8s %10s %9s %10s %10s\n", "Benchmark",
              "engine", "config", "paths", "queries", "avg nodes", "max nodes",
              "solver(s)", "cache-hit");

  int failures = 0;
  for (const workloads::WorkloadInfo& info : workloads::table1_workloads()) {
    core::Program program = workloads::load_workload_or_exit(table, info.name);
    bench::EngineSetup setup{decoder, registry, program};

    for (const char* engine : {"binsym", "binsec"}) {
      uint64_t default_paths = 0;
      uint64_t interned_nodes_total = 0;  // "default" row (intern on)
      for (const Config& config : kConfigs) {
        core::EngineStats cold{};
        core::EngineStats s =
            measure(engine, setup, config, max_paths,
                    info.name + "-" + engine, &cold);
        // Determinism guard: no row may change the explored path set's
        // size. The intern toggle is held to the same bar — hash-consing
        // must be purely representational.
        if (&config == &kConfigs[0]) {
          default_paths = s.paths;
          interned_nodes_total = s.query_nodes_total;
        }
        if (s.paths != default_paths) ++failures;
        // Sharing guard: the legacy allocator duplicates structurally equal
        // nodes (re-read bytes, re-minted constants), so on the byte-heavy
        // workloads the interned pipeline must ship strictly smaller query
        // DAGs than the otherwise identical no-intern row.
        if (std::strcmp(config.name, "no-intern") == 0 &&
            (info.name == "base64-encode" || info.name == "uri-parser") &&
            interned_nodes_total >= s.query_nodes_total) {
          std::printf("FAIL: %s/%s intern on did not reduce query nodes "
                      "(%llu >= %llu)\n",
                      info.name.c_str(), engine,
                      static_cast<unsigned long long>(interned_nodes_total),
                      static_cast<unsigned long long>(s.query_nodes_total));
          ++failures;
        }
        // Warm-vs-cold guard: the persistent row's reported stats are the
        // warm second run; its cold twin must have explored the same path
        // count, and on the query-heavy workloads the store must absorb at
        // least 80% of the backend traffic a restart would otherwise repay.
        if (config.persistent) {
          if (cold.paths != default_paths) ++failures;
          if ((info.name == "base64-encode" || info.name == "uri-parser") &&
              5 * backend_calls(s) > backend_calls(cold)) {
            std::printf(
                "FAIL: %s/%s warm store run did not cut backend calls 5x "
                "(cold %llu, warm %llu)\n",
                info.name.c_str(), engine,
                static_cast<unsigned long long>(backend_calls(cold)),
                static_cast<unsigned long long>(backend_calls(s)));
            ++failures;
          }
        }

        double avg_nodes =
            s.flip_attempts
                ? static_cast<double>(s.query_nodes_total) / s.flip_attempts
                : 0.0;
        std::printf(
            "%-16s %-8s %-13s %8llu %8llu %10.1f %9llu %10.3f %10llu%s\n",
            info.name.c_str(), engine, config.name,
            static_cast<unsigned long long>(s.paths),
            static_cast<unsigned long long>(s.flip_attempts), avg_nodes,
            static_cast<unsigned long long>(s.query_nodes_max),
            s.solver.solve_seconds,
            static_cast<unsigned long long>(s.solver.cache_hits),
            s.paths != default_paths ? "  <- PATH-COUNT DRIFT" : "");
        if (json) {
          std::fprintf(
              json,
              "{\"workload\":\"%s\",\"engine\":\"%s\",\"config\":\"%s\","
              "\"quick\":%s,\"intern\":%s,\"paths\":%llu,\"queries\":%llu,"
              "\"query_nodes_total\":%llu,"
              "\"avg_query_nodes\":%.2f,\"max_query_nodes\":%llu,"
              "\"solver_seconds\":%.6f,"
              "\"cache_hits\":%llu,\"sliced_out\":%llu,"
              "\"store_hits\":%llu,\"backend_calls\":%llu}\n",
              info.name.c_str(), engine, config.name, quick ? "true" : "false",
              config.intern ? "true" : "false",
              static_cast<unsigned long long>(s.paths),
              static_cast<unsigned long long>(s.flip_attempts),
              static_cast<unsigned long long>(s.query_nodes_total), avg_nodes,
              static_cast<unsigned long long>(s.query_nodes_max),
              s.solver.solve_seconds,
              static_cast<unsigned long long>(s.solver.cache_hits),
              static_cast<unsigned long long>(s.sliced_constraints),
              static_cast<unsigned long long>(s.store_hits),
              static_cast<unsigned long long>(backend_calls(s)));
        }
      }
    }
  }
  if (json) std::fclose(json);

  std::printf(
      "\nNotes: identical expression layer + folding on both engines, so "
      "equal node counts answer the paper's open question. The no-intern "
      "row re-runs the default pipeline with hash-consing off; paths must "
      "not move and query nodes must not shrink. The portfolio row races "
      "z3 + bitblast per query; the persistent row is the warm second run "
      "over a solver store its cold twin populated (docs/SOLVERS.md) — on "
      "base64-encode/uri-parser the warm run must issue >=5x fewer "
      "backend calls. JSON lines: BENCH_smt_queries.json\n");
  if (failures) {
    std::printf("FAIL: %d configuration(s) drifted from the default path "
                "count\n", failures);
    return 1;
  }
  return 0;
}
