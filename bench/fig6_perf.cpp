// Regenerates Fig. 6: "Total execution time as an arithmetic mean over
// five executions per benchmark" (paper Sect. V-B).
//
// Engines (fixed lifter everywhere, as the paper benchmarks the *fixed*
// angr): BINSEC-like, BinSym, SymEx-VP-like, angr-like. Every engine runs
// the same DFS driver and the same solver — the default bitblast backend,
// built by bench::make_robust_solver — so solver time is identical by
// construction (the paper configures every engine with the same Z3 "to
// avoid benchmarking the solver"); the interesting signal is the engine
// execution time, reported alongside the totals. Expected shape, from the
// paper: binsec < binsym < symex-vp < angr on every benchmark.
//
// Reps default to 1 (paper: 5); override with BINSYM_FIG6_REPS. Pass
// --quick to cap path counts for a fast smoke run.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

#include "engines.hpp"

using namespace binsym;

namespace {

struct Measurement {
  double total_seconds = 0;
  double solver_seconds = 0;
  uint64_t paths = 0;
  double exec_seconds() const { return total_seconds - solver_seconds; }
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  int reps = 1;
  if (const char* env = std::getenv("BINSYM_FIG6_REPS")) reps = std::atoi(env);
  if (reps < 1) reps = 1;

  isa::OpcodeTable table;
  isa::Decoder decoder(table);
  spec::Registry registry;
  spec::install_rv32im(registry, table);

  struct EngineDef {
    const char* label;
    bench::EngineInstance (*make)(const bench::EngineSetup&);
  };
  const EngineDef engines[] = {
      {"BinSec", [](const bench::EngineSetup& s) { return bench::make_binsec(s); }},
      {"BinSym", [](const bench::EngineSetup& s) { return bench::make_binsym(s); }},
      {"SymEx-VP", [](const bench::EngineSetup& s) { return bench::make_vp(s); }},
      {"angr", [](const bench::EngineSetup& s) {
         return bench::make_angr(s, baseline::LifterBugs::none());
       }},
  };

  std::printf(
      "FIG 6: TOTAL EXECUTION TIME PER BENCHMARK AND ENGINE "
      "(mean over %d run%s)\n",
      reps, reps == 1 ? "" : "s");
  std::printf(
      "columns: total seconds (engine-only seconds, solver excluded)\n\n");
  std::printf("%-16s %18s %18s %18s %18s\n", "Benchmark", "BinSec", "BinSym",
              "SymEx-VP", "angr");

  // aggregate engine-only time across all benchmarks, per engine
  std::map<std::string, double> aggregate_exec;

  for (const workloads::WorkloadInfo& info : workloads::table1_workloads()) {
    core::Program program = workloads::load_workload_or_exit(table, info.name);
    bench::EngineSetup setup{decoder, registry, program};

    std::printf("%-16s", info.name.c_str());
    for (const EngineDef& def : engines) {
      Measurement mean;
      for (int rep = 0; rep < reps; ++rep) {
        bench::EngineInstance engine = def.make(setup);
        core::EngineOptions options;
        if (quick) options.max_paths = 150;
        core::EngineStats stats = engine.explore(options);
        mean.total_seconds += stats.seconds;
        mean.solver_seconds += stats.solver.solve_seconds;
        mean.paths = stats.paths;
      }
      mean.total_seconds /= reps;
      mean.solver_seconds /= reps;
      aggregate_exec[def.label] += mean.exec_seconds();
      std::printf(" %9.3f (%6.3f)", mean.total_seconds, mean.exec_seconds());
    }
    std::printf("\n");
  }

  std::printf("\naggregate engine-only seconds: BinSec=%.3f BinSym=%.3f "
              "SymEx-VP=%.3f angr=%.3f\n",
              aggregate_exec["BinSec"], aggregate_exec["BinSym"],
              aggregate_exec["SymEx-VP"], aggregate_exec["angr"]);

  bool shape_ok = aggregate_exec["BinSec"] < aggregate_exec["BinSym"] &&
                  aggregate_exec["BinSym"] < aggregate_exec["SymEx-VP"] &&
                  aggregate_exec["SymEx-VP"] < aggregate_exec["angr"];
  std::printf("shape %s: %s\n", shape_ok ? "OK" : "MISMATCH",
              "paper ordering is binsec < binsym < symex-vp < angr");
  return shape_ok ? 0 : 1;
}
