// One exploration harness for the engine-level tests: run a DseEngine over
// a worker factory and collect what the tests compare across runs — the
// set of branch-decision keys, the failure ids and the finding keys.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <utility>

#include "core/engine.hpp"
#include "core/finding.hpp"

namespace binsym::test {

/// A path's branch-decision string: '1' per taken branch, '0' per
/// fall-through, in execution order. Within one program it names the path.
inline std::string path_key(const core::PathTrace& trace) {
  std::string key;
  key.reserve(trace.branches.size());
  for (const core::BranchRecord& b : trace.branches) key += b.taken ? '1' : '0';
  return key;
}

struct Exploration {
  core::EngineStats stats;
  /// Fewer keys than stats.paths means a path was enumerated twice.
  std::set<std::string> path_keys;
  std::multiset<uint32_t> failures;  // failure ids across all paths
  std::set<uint64_t> findings;       // core::finding_key of each finding
};

inline Exploration explore(core::WorkerFactory factory,
                           const core::EngineOptions& options = {}) {
  core::DseEngine engine(std::move(factory), options);
  Exploration result;
  result.stats = engine.explore([&](const core::PathResult& path) {
    result.path_keys.insert(path_key(path.trace));
    for (const core::Failure& f : path.trace.failures)
      result.failures.insert(f.id);
  });
  for (const core::Finding& f : engine.findings())
    result.findings.insert(core::finding_key(f.oracle, f.pc, f.call_depth));
  return result;
}

}  // namespace binsym::test
