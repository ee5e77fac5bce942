// Regenerates Table I: "Amount of execution paths found by different SE
// engines" (paper Sect. V-A).
//
// Rows: the five evaluation programs. Columns: angr (with the five real
// lifter bugs injected), BINSEC-like, SymEx-VP-like and BinSym. The paper's
// reference numbers print alongside the measured ones. The expected shape:
// the three correct engines agree on every row; the buggy angr column
// misses paths on base64-encode (large miss, load-extension bug) and
// uri-parser (small miss, signed-comparison bug).
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "engines.hpp"

using namespace binsym;

int main(int argc, char** argv) {
  bool quick = false;
  core::EngineOptions base_options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      base_options.jobs = bench::parse_jobs_arg(argv[++i]);
    } else if (std::strcmp(argv[i], "--search") == 0 && i + 1 < argc) {
      if (!bench::parse_search_arg(argv[++i], &base_options.search)) return 2;
    } else if (bench::parse_solver_opt_flag(argv[i], &base_options)) {
      // Path counts must be bit-identical with interning on or off; the
      // flag exists so sweeps can prove it.
    } else {
      std::fprintf(stderr, "unknown option '%s' (or missing value)\n",
                   argv[i]);
      return 2;
    }
  }

  isa::OpcodeTable table;
  isa::Decoder decoder(table);
  spec::Registry registry;
  spec::install_rv32im(registry, table);

  std::printf(
      "TABLE I: AMOUNT OF EXECUTION PATHS FOUND BY DIFFERENT SE ENGINES\n");
  std::printf("%-16s %12s %12s %12s %12s   %s\n", "Benchmark", "angr",
              "BinSec", "SymEx-VP", "BinSym", "paper(angr/others)");

  bool shape_ok = true;
  for (const workloads::WorkloadInfo& info : workloads::table1_workloads()) {
    core::Program program = workloads::load_workload_or_exit(table, info.name);
    bench::EngineSetup setup{decoder, registry, program};

    core::EngineOptions options = base_options;
    if (quick) options.max_paths = 200;

    uint64_t angr_paths =
        bench::explore_parallel("angr-buggy", setup, options).paths;
    uint64_t binsec_paths = bench::explore_parallel("binsec", setup, options).paths;
    uint64_t vp_paths = bench::explore_parallel("vp", setup, options).paths;
    uint64_t binsym_paths = bench::explore_parallel("binsym", setup, options).paths;

    const char* mark =
        angr_paths != binsym_paths ? " \xe2\x80\xa0" : "";  // dagger
    std::printf("%-16s %10llu%s %12llu %12llu %12llu   (%llu/%llu)\n",
                info.name.c_str(),
                static_cast<unsigned long long>(angr_paths), mark,
                static_cast<unsigned long long>(binsec_paths),
                static_cast<unsigned long long>(vp_paths),
                static_cast<unsigned long long>(binsym_paths),
                static_cast<unsigned long long>(info.paper_paths_angr),
                static_cast<unsigned long long>(info.paper_paths));

    bool correct_engines_agree =
        binsec_paths == binsym_paths && vp_paths == binsym_paths;
    bool angr_should_miss = info.paper_paths_angr != info.paper_paths;
    bool angr_misses = angr_paths < binsym_paths;
    if (!correct_engines_agree) shape_ok = false;
    if (!quick && angr_should_miss != angr_misses) shape_ok = false;
  }

  std::printf("shape %s: correct engines agree%s\n",
              shape_ok ? "OK" : "MISMATCH",
              quick ? " (quick mode: path counts truncated)" :
                      "; buggy angr misses paths exactly where the paper reports");
  return shape_ok ? 0 : 1;
}
