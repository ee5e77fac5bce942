// Ablation: SMT query complexity and solver cost per optimization stage.
//
// Two questions share this harness. The paper's future-work question
// (Sect. V-B): does translating through formal ISA semantics change SMT
// query complexity compared to an IR-based translation? And this repo's
// own: what does the persistent solver store change about the per-flip
// solver cost?
//
// For every Table I workload the harness explores with BinSym (DSL
// semantics) and the BINSEC-like engine (lifter IR) under the "default"
// flip pipeline (sliced query, cache, scoped solver) and measures the
// *effective* branch-flip queries: distinct DAG nodes per query, cumulative
// solver seconds and cache hits. Path counts are printed so every row
// doubles as a determinism check — they must not move across
// configurations.
//
// A "persistent" row extends the sweep (see docs/SOLVERS.md): it runs the
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
  bool persistent = false;  // cold + warm pair over one solver store
};

// "default" is the exploration every other row is compared against; the
// "persistent" row puts a solver store under it (docs/SOLVERS.md).
constexpr Config kConfigs[] = {
    {"default"},
    {"persistent", /*persistent=*/true},
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
  options.measure_query_nodes = true;

  if (!config.persistent)
    return bench::explore_parallel(engine, setup, options);

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("binsym-bench-store-" + store_tag))
          .string();
  std::filesystem::remove_all(dir);
  options.solver_store = smt::SolverStore::open(dir);
  *cold_out = bench::explore_parallel(engine, setup, options);
  options.solver_store = smt::SolverStore::open(dir);
  core::EngineStats warm = bench::explore_parallel(engine, setup, options);
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
      "pipeline {default, persistent}%s\n",
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
      for (const Config& config : kConfigs) {
        core::EngineStats cold{};
        core::EngineStats s =
            measure(engine, setup, config, max_paths,
                    info.name + "-" + engine, &cold);
        // Determinism guard: no row may change the explored path set's
        // size.
        if (&config == &kConfigs[0]) default_paths = s.paths;
        if (s.paths != default_paths) ++failures;
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
              "\"quick\":%s,\"paths\":%llu,\"queries\":%llu,"
              "\"query_nodes_total\":%llu,"
              "\"avg_query_nodes\":%.2f,\"max_query_nodes\":%llu,"
              "\"solver_seconds\":%.6f,"
              "\"cache_hits\":%llu,\"sliced_out\":%llu,"
              "\"store_hits\":%llu,\"backend_calls\":%llu}\n",
              info.name.c_str(), engine, config.name, quick ? "true" : "false",
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
      "equal node counts answer the paper's open question. The persistent "
      "row is the warm second run over a solver store its cold twin "
      "populated (docs/SOLVERS.md) — on "
      "base64-encode/uri-parser the warm run must issue >=5x fewer "
      "backend calls. JSON lines: BENCH_smt_queries.json\n");
  if (failures) {
    std::printf("FAIL: %d configuration(s) drifted from the default path "
                "count\n", failures);
    return 1;
  }
  return 0;
}
