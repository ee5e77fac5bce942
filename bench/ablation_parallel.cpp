// Ablation: parallel exploration throughput.
//
// Sweeps the DSE worker count over the Table I workloads and reports path
// throughput (paths/sec) per configuration, one machine-readable JSON line
// each, so successive PRs have a perf trajectory to regress against:
//
//   {"bench":"ablation_parallel","workload":"bubble-sort","engine":"binsym",
//    "search":"dfs","jobs":4,"paths":720,"seconds":1.234,
//    "paths_per_sec":583.4,"baseline_jobs":1,"speedup_vs_baseline":2.31}
//
// A trailing summary line reports the best speedup observed at each worker
// count. Every configuration must explore the same path *set* (asserted via
// branch-decision strings on full runs; when a --quick path budget truncates
// the exploration, only counts are compared — sets legitimately differ under
// truncation), so the comparison is throughput-only by construction.
//
//   ablation_parallel [--quick] [--engine E] [--search K] [--jobs a,b,c]
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "engines.hpp"

using namespace binsym;

namespace {

std::vector<unsigned> parse_jobs_list(std::string_view arg) {
  std::vector<unsigned> jobs;
  size_t comma;
  while ((comma = arg.find(',')) != std::string_view::npos) {
    jobs.push_back(bench::parse_jobs_arg(arg.substr(0, comma)));
    arg.remove_prefix(comma + 1);
  }
  jobs.push_back(bench::parse_jobs_arg(arg));
  return jobs;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string engine = "binsym";
  core::SearchKind search = core::SearchKind::kDepthFirst;
  std::vector<unsigned> jobs_sweep = {1, 2, 4, 8};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--engine") == 0 && i + 1 < argc) {
      engine = argv[++i];
    } else if (std::strcmp(argv[i], "--search") == 0 && i + 1 < argc) {
      if (!bench::parse_search_arg(argv[++i], &search)) return 2;
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs_sweep = parse_jobs_list(argv[++i]);
    }
  }

  if (!bench::known_engine(engine)) {
    std::fprintf(stderr, "unknown engine '%s'\n", engine.c_str());
    return 2;
  }

  isa::OpcodeTable table;
  isa::Decoder decoder(table);
  spec::Registry registry;
  spec::install_rv32im(registry, table);

  std::vector<std::string> names;
  for (const workloads::WorkloadInfo& info : workloads::table1_workloads())
    names.push_back(info.name);
  if (quick) names = {"base64-encode", "bubble-sort"};

  bool consistent = true;
  std::map<unsigned, double> best_speedup;
  for (const std::string& name : names) {
    core::Program program = workloads::load_workload_or_exit(table, name);
    bench::EngineSetup setup{decoder, registry, program};

    uint64_t reference_paths = 0;
    std::set<std::string> reference_keys;
    double baseline_pps = 0;
    for (unsigned jobs : jobs_sweep) {
      core::EngineOptions options;
      options.jobs = jobs;
      options.search = search;
      if (quick) options.max_paths = 200;
      std::set<std::string> keys;
      core::EngineStats stats = bench::explore_parallel(
          engine, setup, options, [&](const core::PathResult& path) {
            std::string key;
            key.reserve(path.trace.branches.size());
            for (const core::BranchRecord& b : path.trace.branches)
              key += b.taken ? '1' : '0';
            keys.insert(std::move(key));
          });
      // A truncated run (budget hit) has an order-dependent path set; only
      // full explorations are comparable set-wise.
      bool truncated = stats.paths >= options.max_paths;
      double pps = stats.seconds > 0 ? static_cast<double>(stats.paths) /
                                           stats.seconds
                                     : 0;
      if (jobs == jobs_sweep.front()) {
        reference_paths = stats.paths;
        reference_keys = std::move(keys);
        baseline_pps = pps;
      } else if (stats.paths != reference_paths ||
                 (!truncated && keys != reference_keys)) {
        consistent = false;
      }
      double speedup = baseline_pps > 0 ? pps / baseline_pps : 0;
      if (speedup > best_speedup[jobs]) best_speedup[jobs] = speedup;
      std::printf(
          "{\"bench\":\"ablation_parallel\",\"workload\":\"%s\","
          "\"engine\":\"%s\",\"search\":\"%s\",\"jobs\":%u,"
          "\"paths\":%llu,\"seconds\":%.3f,\"paths_per_sec\":%.1f,"
          "\"baseline_jobs\":%u,\"speedup_vs_baseline\":%.2f}\n",
          name.c_str(), engine.c_str(), core::search_kind_name(search), jobs,
          static_cast<unsigned long long>(stats.paths), stats.seconds, pps,
          jobs_sweep.front(), speedup);
      std::fflush(stdout);
    }
  }

  std::printf("# best speedup per worker count:");
  for (const auto& [jobs, speedup] : best_speedup)
    if (jobs != jobs_sweep.front())
      std::printf(" %ux=%.2f", jobs, speedup);
  std::printf("\n# path sets job-count independent: %s\n",
              consistent ? "yes" : "NO (bug!)");
  return consistent ? 0 : 1;
}
