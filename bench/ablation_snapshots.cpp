// Ablation: snapshot/fork execution vs full replay-per-flip.
//
// The offline DSE engine classically re-executes every scheduled flip from
// the program entry point; the snapshot subsystem (core/snapshot.hpp)
// resumes from the deepest reusable copy-on-write checkpoint instead. This
// harness measures what that buys on every Table I workload, for both
// snapshot-capable engines (binsym and the SymEx-VP-like one): instructions
// retired (the re-interpretation work — the headline metric), wall-clock,
// and the snapshot counters (hits/misses/captures/evictions/pages-copied).
//
// Path counts are printed per row and checked against the replay
// configuration — snapshots may only change cost, never the explored path
// set; the harness exits non-zero on drift.
//
// Each row is also emitted as a JSON line into BENCH_snapshots.json (cwd),
// the trajectory file CI's perf-smoke step archives.
//
//   bench_ablation_snapshots [--quick] [--jobs N]
//
// --quick caps the paths per exploration (CI smoke); scheduling is
// identical with snapshots on and off, so the drift check stays exact even
// under a path budget.
#include <cstdio>
#include <cstring>

#include "engines.hpp"

using namespace binsym;

int main(int argc, char** argv) {
  bool quick = false;
  unsigned jobs = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = bench::parse_jobs_arg(argv[++i]);
    }
  }
  const uint64_t max_paths = quick ? 400 : UINT64_MAX;

  isa::OpcodeTable table;
  isa::Decoder decoder(table);
  spec::Registry registry;
  spec::install_rv32im(registry, table);

  std::FILE* json = std::fopen("BENCH_snapshots.json", "w");

  std::printf(
      "ABLATION: SNAPSHOT/FORK EXECUTION — replay-per-flip vs checkpoint "
      "resume%s\n",
      quick ? " (quick)" : "");
  std::printf("%-16s %-8s %-8s %8s %12s %8s %9s %8s %8s %9s %7s\n",
              "Benchmark", "engine", "config", "paths", "instructions",
              "speedup", "seconds", "hits", "misses", "captures", "pages");

  int failures = 0;
  for (const workloads::WorkloadInfo& info : workloads::table1_workloads()) {
    core::Program program = workloads::load_workload_or_exit(table, info.name);
    bench::EngineSetup setup{decoder, registry, program};

    for (const char* engine : {"binsym", "vp"}) {
      uint64_t replay_paths = 0, replay_instructions = 0;
      for (bool snapshots : {false, true}) {
        core::EngineOptions options;
        options.max_paths = max_paths;
        options.jobs = jobs;
        if (!snapshots) options.snapshot_budget = 0;
        core::EngineStats s = bench::explore_parallel(engine, setup, options);

        if (!snapshots) {
          replay_paths = s.paths;
          replay_instructions = s.instructions;
        }
        if (s.paths != replay_paths) ++failures;
        double speedup =
            s.instructions ? static_cast<double>(replay_instructions) /
                                 static_cast<double>(s.instructions)
                           : 0.0;

        auto u = [](uint64_t v) { return static_cast<unsigned long long>(v); };
        std::printf(
            "%-16s %-8s %-8s %8llu %12llu %7.2fx %9.3f %8llu %8llu %9llu "
            "%7llu%s\n",
            info.name.c_str(), engine, snapshots ? "snapshot" : "replay",
            u(s.paths), u(s.instructions), speedup, s.seconds,
            u(s.snapshot_hits), u(s.snapshot_misses), u(s.snapshot_captures),
            u(s.snapshot_pages_copied),
            s.paths != replay_paths ? "  <- PATH-COUNT DRIFT" : "");
        if (json) {
          std::fprintf(
              json,
              "{\"workload\":\"%s\",\"engine\":\"%s\",\"config\":\"%s\","
              "\"quick\":%s,\"jobs\":%u,\"paths\":%llu,"
              "\"instructions\":%llu,\"speedup_instructions\":%.3f,"
              "\"seconds\":%.6f,\"snapshot_hits\":%llu,"
              "\"snapshot_misses\":%llu,\"snapshot_captures\":%llu,"
              "\"snapshot_evictions\":%llu,\"snapshot_pages_copied\":%llu}\n",
              info.name.c_str(), engine, snapshots ? "snapshot" : "replay",
              quick ? "true" : "false", jobs, u(s.paths), u(s.instructions),
              speedup, s.seconds, u(s.snapshot_hits), u(s.snapshot_misses),
              u(s.snapshot_captures), u(s.snapshot_evictions),
              u(s.snapshot_pages_copied));
        }
      }
    }
  }
  if (json) std::fclose(json);

  std::printf(
      "\nNotes: `speedup` is replay-instructions / snapshot-instructions — "
      "the share of re-interpretation work the checkpoints eliminate "
      "(deep workloads are the interesting rows; the path budget in quick "
      "mode truncates depth). Path counts must not move between configs. "
      "JSON lines: BENCH_snapshots.json\n");
  if (failures) {
    std::printf(
        "FAIL: %d configuration(s) drifted from the replay path count\n",
        failures);
    return 1;
  }
  return 0;
}
