// Persistent content-addressed query/model store.
//
// The QueryCache (cache.hpp) keys a query by the sorted content hashes of
// its assertions — stable across contexts and across process restarts.
// That makes the cache's keyspace durable: this store maps the same keys to
// {verdict, model, variable count} in a single file, so a
// second exploration of the same target starts with every previously solved
// query already answered.
//
// Models are persisted *by variable name*, not var_id: ids are dense
// per-context indices and mean nothing in the next process, while names are
// stable (the engine derives them from the input layout). At lookup time
// the engine translates names back through Context::lookup_var — every
// variable of a query is declared by the time the query is built, so the
// translation is total for any query the engine replays.
//
// Durability model: load-on-open, mutate in memory, one atomic flush
// (write-to-temp + rename) at engine exit. The file carries a magic, a
// format version and a trailing checksum; any anomaly — truncation,
// corruption, version skew — degrades to an empty store with a diagnostic
// in load_error(), never a crash and never a partial load. kUnknown is
// never admitted: a persisted verdict must be worth believing forever.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "smt/cache.hpp"

namespace binsym::smt {

class SolverStore {
 public:
  struct Entry {
    CheckResult verdict = CheckResult::kUnknown;
    /// Model by (variable name, canonical value); meaningful for kSat.
    std::vector<std::pair<std::string, uint64_t>> model;
    /// Distinct free variables in the query — a cheap discriminator against
    /// content-hash key collisions, stable across contexts, the intern
    /// toggle and restarts (unlike node counts, which depend on sharing).
    /// The discriminating lookup() overload treats a mismatch as a miss.
    uint32_t var_count = 0;
  };

  /// On-disk format version; bumped on any layout change. A file with a
  /// different version is ignored (cold start), not migrated.
  /// v2: entries carry the query's variable count as a collision check.
  /// v3: entries no longer carry the deciding backend and solve time.
  static constexpr uint32_t kFormatVersion = 3;
  static constexpr const char* kFileName = "store.bin";

  /// Open (and load) the store under `dir`, creating the directory if
  /// needed. Never fails: an unreadable or invalid file yields an empty
  /// store with the reason in load_error().
  static std::shared_ptr<SolverStore> open(const std::string& dir);

  /// True (and fills *out) on a hit; counts a hit or a miss.
  bool lookup(const QueryCache::Key& key, Entry* out);

  /// Discriminating lookup: a key match whose stored var_count differs from
  /// `var_count` is a hash collision with a different query — counted and
  /// reported as a miss, never surfaced. The engine uses this overload; the
  /// plain one exists for tests and callers without the query at hand.
  bool lookup(const QueryCache::Key& key, uint32_t var_count, Entry* out);

  /// Record a decided query. kUnknown entries are rejected (dropped), and
  /// an existing entry for the key is kept — first verdict wins.
  void insert(const QueryCache::Key& key, Entry entry);

  /// Serialize to the backing file (temp + rename, so readers never see a
  /// torn file). Returns false when the write failed; the in-memory store
  /// is unaffected either way.
  bool flush();

  size_t size() const;
  uint64_t hits() const;
  uint64_t misses() const;

  /// Empty when the backing file loaded cleanly (or did not exist yet).
  const std::string& load_error() const { return load_error_; }
  const std::string& path() const { return path_; }

  // Serialization core, exposed for tests: encode the entry map to the
  // on-disk byte string (including header and checksum) and decode one.
  std::string serialize() const;
  bool deserialize(const std::string& bytes, std::string* error);

 private:
  explicit SolverStore(std::string path) : path_(std::move(path)) {}

  std::string path_;        // backing file (dir + "/" + kFileName)
  std::string load_error_;  // set once at open()
  mutable std::mutex mutex_;
  std::map<QueryCache::Key, Entry> entries_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace binsym::smt
