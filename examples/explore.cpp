// explore: command-line driver — symbolically execute a shipped workload
// (or any RISC-V ELF produced by the in-tree assembler) with a chosen
// engine and print exploration statistics.
//
//   explore <workload|path.elf> [binsym|vp|binsec|angr|angr-buggy]
//           [--max-paths N] [--jobs N] [--search dfs|bfs|random|coverage]
//           [--no-uop]
//           [--solver bitblast|z3] [--query-timeout-ms N]
//           [--solver-store DIR]
//           [--deadline-secs N] [--memory-budget-mb N] [--fault-inject SPEC]
//           [--show-failures] [--oracles LIST] [--findings-dir DIR]
//           [--replay FILE] [--list-oracles] [--static-lint]
//           [--no-static-prune]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>

#include "../bench/engines.hpp"
#include "analysis/analysis.hpp"
#include "core/stats.hpp"
#include "elf/elf32.hpp"
#include "oracles/report.hpp"
#include "support/fault.hpp"

using namespace binsym;

namespace {

// Every flag listed here must be documented in docs/BENCHMARKS.md — CI's
// docs job diffs this help text against the docs.
void print_usage(std::FILE* out, const char* prog) {
  std::fprintf(
      out,
      "usage: %s <workload|file.elf> [engine] [options]\n"
      "  engines: binsym (default), vp, binsec, angr, angr-buggy\n"
      "  --max-paths N            stop after N explored paths\n"
      "  --jobs N                 worker count (1 = sequential)\n"
      "  --search dfs|bfs|random|coverage\n"
      "                           path-selection strategy\n"
      "  --no-uop                 disable the micro-op block fast path\n"
      "                           (pure per-instruction spec interpretation)\n"
      "  --solver NAME            primary SMT backend (default bitblast);\n"
      "                           one of bitblast, z3 (see docs/SOLVERS.md)\n"
      "  --query-timeout-ms N     per-solver-query deadline; a query that\n"
      "                           exceeds it returns unknown and the flip\n"
      "                           is skipped, never treated as infeasible\n"
      "  --solver-store DIR       persistent content-addressed query/model\n"
      "                           store: load prior verdicts from\n"
      "                           DIR/store.bin, record new ones, flush at\n"
      "                           exit (see docs/SOLVERS.md)\n"
      "  --deadline-secs N        wall-clock budget for the exploration;\n"
      "                           the partial report is marked incomplete\n"
      "  --memory-budget-mb N     stop exploring when resident memory\n"
      "                           exceeds N MiB (partial report, as above)\n"
      "  --fault-inject SPEC      deterministic fault injection for testing\n"
      "                           (comma list of site@N / site@N+ /\n"
      "                           site@N:M; sites: solver, solver-throw,\n"
      "                           alloc — see docs/ROBUSTNESS.md)\n"
      "  --show-failures          print report_fail events with inputs\n"
      "  --oracles LIST           enable bug-finding oracles: 'all' or a\n"
      "                           comma list (see --list-oracles and\n"
      "                           docs/ORACLES.md)\n"
      "  --findings-dir DIR       write findings.json + a replayable\n"
      "                           witness corpus into DIR (implies\n"
      "                           --oracles all unless --oracles is given)\n"
      "  --replay FILE            run the witness input FILE once,\n"
      "                           concretely, and print the detections it\n"
      "                           triggers (no exploration)\n"
      "  --list-oracles           print one oracle name per line and exit\n"
      "  --static-lint            print the load-time static lint findings\n"
      "                           (see docs/ANALYSIS.md and the analyze\n"
      "                           tool) before exploring\n"
      "  --no-static-prune        do not pre-prove oracle candidates with\n"
      "                           the static analysis (every candidate\n"
      "                           goes to the solver)\n"
      "  --help                   this text\n",
      prog);
}

/// Replay one witness file concretely: a single run under the recorded
/// input bytes, all requested oracles attached. Prints every concrete
/// detection; exits 0 when the replay triggered at least one.
int replay_witness(const std::string& engine, const bench::EngineSetup& setup,
                   const std::string& oracles_spec, const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    std::fprintf(stderr, "cannot open witness %s\n", path.c_str());
    return 1;
  }
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(file)),
                             std::istreambuf_iterator<char>());

  core::WorkerResources r = bench::build_worker(engine, setup,
                                                baseline::LifterBugs::none(),
                                                /*with_solver=*/false);
  std::string error;
  if (!bench::attach_oracles(engine, setup, oracles_spec, &r, &error)) {
    std::fprintf(stderr, "oracle setup failed: %s\n", error.c_str());
    return 1;
  }
  smt::Assignment seed = oracles::witness_seed(*r.ctx, bytes);
  core::PathTrace trace;
  r.executor->run(seed, trace);

  // A witness of the wrong length silently replays the wrong input (short
  // files zero-fill, long files have bytes ignored) — diagnose instead.
  if (bytes.size() != trace.input_vars.size()) {
    std::fprintf(stderr,
                 "witness %s is %zu byte(s) but the program consumed %zu "
                 "input byte(s): truncated or mismatched witness file\n",
                 path.c_str(), bytes.size(), trace.input_vars.size());
    return 1;
  }

  std::printf("replay %s: %zu input byte(s), exit=%s, %zu detection(s)\n",
              path.c_str(), bytes.size(), core::exit_reason_name(trace.exit),
              trace.oracle_hits.size());
  for (const core::OracleHit& hit : trace.oracle_hits)
    std::printf("  %s pc=0x%x depth=%u: %s\n",
                core::oracle_kind_name(hit.oracle), hit.pc, hit.call_depth,
                hit.detail.c_str());
  return trace.oracle_hits.empty() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      print_usage(stdout, argv[0]);
      return 0;
    }
    if (std::strcmp(argv[i], "--list-oracles") == 0) {
      for (uint8_t k = 0;
           k < static_cast<uint8_t>(core::OracleKind::kNumOracleKinds); ++k)
        std::printf("%s\n",
                    core::oracle_kind_name(static_cast<core::OracleKind>(k)));
      return 0;
    }
  }
  if (argc < 2) {
    print_usage(stderr, argv[0]);
    return 2;
  }
  std::string target = argv[1];
  std::string engine_name = "binsym";
  core::EngineOptions options;
  core::MachineConfig mconfig;
  bench::RobustnessOptions robust;
  bool show_failures = false;
  bool static_lint = false;
  bool static_prune = true;
  std::string oracles_spec;
  std::string findings_dir;
  std::string replay_file;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--max-paths") == 0 && i + 1 < argc) {
      options.max_paths = bench::parse_unsigned_arg("--max-paths", argv[++i]);
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      options.jobs = bench::parse_jobs_arg(argv[++i]);
    } else if (std::strcmp(argv[i], "--search") == 0 && i + 1 < argc) {
      if (!bench::parse_search_arg(argv[++i], &options.search)) return 2;
    } else if (bool ok;
               bench::parse_robustness_flag(argc, argv, &i, &robust, &options,
                                            &ok)) {
      if (!ok) return 2;
    } else if (std::strcmp(argv[i], "--solver-store") == 0 && i + 1 < argc) {
      options.solver_store = smt::SolverStore::open(argv[++i]);
      if (!options.solver_store->load_error().empty())
        std::fprintf(stderr,
                     "--solver-store: ignoring invalid %s (%s), starting "
                     "cold\n",
                     options.solver_store->path().c_str(),
                     options.solver_store->load_error().c_str());
    } else if (std::strcmp(argv[i], "--fault-inject") == 0 && i + 1 < argc) {
      std::string error;
      options.fault_plan = support::FaultPlan::parse(argv[++i], &error);
      if (!options.fault_plan) {
        std::fprintf(stderr, "--fault-inject: %s\n", error.c_str());
        return 2;
      }
    } else if (std::strcmp(argv[i], "--no-uop") == 0) {
      mconfig.uop_fastpath = false;
    } else if (std::strcmp(argv[i], "--show-failures") == 0) {
      show_failures = true;
    } else if (std::strcmp(argv[i], "--static-lint") == 0) {
      static_lint = true;
    } else if (std::strcmp(argv[i], "--no-static-prune") == 0) {
      static_prune = false;
    } else if (std::strcmp(argv[i], "--oracles") == 0 && i + 1 < argc) {
      oracles_spec = argv[++i];
    } else if (std::strcmp(argv[i], "--findings-dir") == 0 && i + 1 < argc) {
      findings_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--replay") == 0 && i + 1 < argc) {
      replay_file = argv[++i];
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "unknown option '%s' (or missing value)\n",
                   argv[i]);
      return 2;
    } else {
      engine_name = argv[i];
    }
  }
  // Detection campaigns and replays default to the full detector set.
  if (oracles_spec.empty() && (!findings_dir.empty() || !replay_file.empty()))
    oracles_spec = "all";
  if (!oracles_spec.empty()) {
    std::vector<core::OracleKind> kinds;
    std::string error;
    if (!oracles::OracleManager::parse_spec(oracles_spec, &kinds, &error)) {
      std::fprintf(stderr, "--oracles: %s\n", error.c_str());
      return 2;
    }
    // The lifter-based baselines execute IR, not the observed spec
    // machine; fail up front instead of aborting inside the worker
    // factory.
    if (engine_name != "binsym" && engine_name != "vp") {
      std::fprintf(stderr,
                   "--oracles: engine '%s' does not support execution "
                   "observers (use binsym or vp)\n",
                   engine_name.c_str());
      return 2;
    }
  }

  isa::OpcodeTable table;
  isa::Decoder decoder(table);
  spec::Registry registry;
  spec::install_rv32im(registry, table);
  // Custom instructions and runtime extensions participate in everything,
  // including this driver.
  spec::install_custom_madd(table, registry);
  spec::install_zbb(table, registry);

  core::Program program;
  if (target.size() > 4 && target.substr(target.size() - 4) == ".elf") {
    std::string error;
    auto image = elf::read_elf_file(target, &error);
    if (!image) {
      std::fprintf(stderr, "cannot load %s: %s\n", target.c_str(),
                   error.c_str());
      return 1;
    }
    program = elf::to_program(*image);
  } else {
    try {
      program = workloads::load_workload(table, target);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cannot load workload '%s': %s\n", target.c_str(),
                   e.what());
      return 1;
    }
  }

  bench::EngineSetup setup{decoder, registry, program, mconfig, robust};
  if (!bench::known_engine(engine_name)) {
    std::fprintf(stderr, "unknown engine '%s'\n", engine_name.c_str());
    return 2;
  }
  if (!replay_file.empty())
    return replay_witness(engine_name, setup, oracles_spec, replay_file);

  // Static analysis (src/analysis) runs once at load time. The candidate
  // pre-prover is sound only for engines whose memory the static model
  // covers — vp MMIO loads return device values, so vp never gets it. CFG
  // hints for coverage scoring are wired whenever the analysis ran, and
  // independently of pruning (so prune on/off explores identical paths).
  std::optional<analysis::StaticAnalysis> sa;
  if ((static_lint || !oracles_spec.empty()) && engine_name == "binsym") {
    sa = analysis::StaticAnalysis::run(
        program, decoder, bench::make_memory_map(engine_name, setup));
    if (static_lint) {
      std::vector<core::Finding> lints = sa->lint(program, decoder);
      if (!sa->absint.complete)
        std::printf("static: fixpoint incomplete (%s), lint tier skipped\n",
                    sa->absint.incomplete_reason.c_str());
      for (const core::Finding& f : lints)
        std::printf("%s\n", oracles::finding_to_line(f).c_str());
    }
    if (!oracles_spec.empty() && static_prune)
      options.candidate_prune = sa->make_prune();
    options.cfg_hints = sa->make_hints();
  } else if (static_lint) {
    std::fprintf(stderr,
                 "--static-lint: engine '%s' is outside the static memory "
                 "model (use binsym)\n",
                 engine_name.c_str());
    return 2;
  }

  core::WorkerFactory factory =
      bench::make_worker_factory(engine_name, setup, oracles_spec);
  core::DseEngine dse(std::move(factory), options);
  core::EngineStats stats = dse.explore([&](const core::PathResult& path) {
    if (show_failures && !path.trace.failures.empty()) {
      for (const core::Failure& f : path.trace.failures) {
        std::printf("failure id=%u at pc=0x%x on path %llu, inputs:", f.id,
                    f.pc, static_cast<unsigned long long>(path.index));
        for (uint32_t var : path.trace.input_vars)
          std::printf(" %02x",
                      static_cast<unsigned>(path.seed.get(var) & 0xff));
        std::printf("\n");
      }
    }
  });

  std::printf("engine=%s target=%s search=%s\n%s", engine_name.c_str(),
              target.c_str(), core::search_kind_name(options.search),
              core::engine_stats_report(stats).c_str());

  if (!oracles_spec.empty()) {
    std::vector<core::Finding> findings = dse.findings();
    for (const core::Finding& finding : findings)
      std::printf("%s\n", oracles::finding_to_line(finding).c_str());
    if (!findings_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(findings_dir, ec);
      std::string error;
      if (ec || !oracles::write_findings_dir(findings_dir, target, engine_name,
                                             findings, &error)) {
        std::fprintf(stderr, "cannot write findings: %s\n",
                     ec ? ec.message().c_str() : error.c_str());
        return 1;
      }
      std::printf("wrote %zu finding(s) to %s/findings.json\n",
                  findings.size(), findings_dir.c_str());
    }
  }
  return 0;
}
