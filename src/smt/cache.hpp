// Query cache.
//
// DFS path exploration re-checks many structurally identical prefixes; a
// query is identified by the sorted set of its assertions' 64-bit structural
// content hashes (computed once at node construction by the Context arena),
// making cache lookups O(n log n) in the number of assertions with no
// re-hashing of the DAG. Sat results keep their model so a hit can reseed
// execution without a solver round trip.
//
// Each engine worker owns one QueryCache: a plain map, never shared, so
// nothing locks, and the worker loop counts its own hits and misses.
// Because content hashes are stable across contexts and across the intern
// toggle (see context.hpp), keys survive a context teardown — the property
// the persistent store (store.hpp) builds on.
#pragma once

#include <map>
#include <span>
#include <vector>

#include "smt/solver.hpp"

namespace binsym::smt {

class QueryCache {
 public:
  struct Entry {
    CheckResult result = CheckResult::kUnknown;
    Assignment model;  // valid when result == kSat
  };

  /// Canonical query key: the sorted, deduplicated content hashes of the
  /// assertions, with `true` assertions dropped (they cannot affect
  /// satisfiability and would fragment keys).
  using Key = std::vector<uint64_t>;

  static Key key_for(std::span<const ExprRef> assertions);

  /// Same canonical key over the conjunction of two assertion lists (the
  /// incremental path: scoped assertions ∧ check assumptions).
  static Key key_for(std::span<const ExprRef> scoped,
                     std::span<const ExprRef> assumptions);

  /// True (and fills *out) on a hit.
  bool lookup(const Key& key, Entry* out) const;

  /// Insert; an existing entry for `key` is kept.
  void insert(const Key& key, Entry entry);

 private:
  std::map<Key, Entry> entries_;
};

}  // namespace binsym::smt
