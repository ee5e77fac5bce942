// Expansions shared by the declared counter tables, BINSYM_ENGINE_COUNTERS
// (core/engine.hpp) and BINSYM_SOLVER_COUNTERS (smt/solver.hpp), whose rows
// are X(field, merge, section, label): a row as a struct member, and as a
// statement of merge(const T& other) applying its merge rule.
#pragma once

#include <algorithm>
#include <cstdint>

namespace binsym::counters {
inline void merge_sum(uint64_t& into, uint64_t v) { into += v; }
inline void merge_max(uint64_t& into, uint64_t v) { into = std::max(into, v); }
inline void merge_set(uint64_t&, uint64_t) {}  // the engine sets it
}  // namespace binsym::counters

#define BINSYM_COUNTER_FIELD(field, merge, section, label) uint64_t field = 0;
#define BINSYM_COUNTER_MERGE(field, merge, section, label) \
  ::binsym::counters::merge_##merge(field, other.field);
