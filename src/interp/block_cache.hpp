// Per-interpreter cache of lowered micro-op blocks, keyed by leader pc.
//
// Soundness against self-modifying code rests on one invariant: a block is
// only ever cached over pages that have *never* been stored to. The cache
// is its own GuestStoreWatch — every guest store (fast path, spec path,
// sym_input) reports here; the touched pages drop their blocks and are
// poisoned permanently, and lowering refuses to read from poisoned pages.
// Because poisoned pages survive cache flushes and machine resets, a cached
// block's bytes always equal the program image's bytes no matter which run
// the machine is currently executing — so resets need no image comparison
// and no cache flush.
//
// Thread-safety: none — one BlockCache per interpreter per worker, like the
// machine it watches. Debug builds assert single-thread ownership.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "interp/uop.hpp"

namespace binsym::interp {

/// Chunked bump allocator for micro-op buffers: blocks get stable pointers
/// (chunks never relocate), freeing is wholesale (clear on cache flush).
class UopArena {
 public:
  static constexpr unsigned kChunkUops = 4096;

  /// Contiguous scratch space for up to `n` micro-ops (n <= kChunkUops).
  /// Only the prefix later passed to commit() becomes permanent.
  Uop* reserve(unsigned n) {
    assert(n <= kChunkUops);
    if (chunks_.empty() || kChunkUops - used_ < n) {
      chunks_.push_back(std::make_unique<Uop[]>(kChunkUops));
      used_ = 0;
    }
    return chunks_.back().get() + used_;
  }

  void commit(unsigned n) { used_ += n; }

  void clear() {
    chunks_.clear();
    used_ = 0;
  }

 private:
  std::vector<std::unique_ptr<Uop[]>> chunks_;
  unsigned used_ = 0;
};

class BlockCache final : public GuestStoreWatch {
 public:
  /// Blocks end at kMaxBlockUops even without a terminator; the next
  /// lookup continues from the fall-through pc.
  static constexpr unsigned kMaxBlockUops = 256;
  /// Page granularity of store tracking; mirrors guest memory paging.
  static constexpr uint32_t kPageBits = 12;

  struct Block {
    uint32_t start = 0;   // leader pc
    uint32_t bytes = 0;   // guest byte length of the lowered run
    uint32_t count = 0;   // micro-ops; 0 = negative entry (leader is
                          // unsupported — skip straight to the spec path)
    const Uop* uops = nullptr;
  };

  explicit BlockCache(uint32_t max_blocks = 4096)
      : max_blocks_(max_blocks ? max_blocks : 1) {}

  /// Cached block starting at `pc`, or null. Counts a hit for any entry,
  /// negative ones included (both save a lowering attempt).
  const Block* lookup(uint32_t pc) {
    assert_owner();
    auto it = blocks_.find(pc);
    if (it == blocks_.end()) return nullptr;
    ++cache_hits_;
    return &it->second;
  }

  /// Whether `addr`'s page has ever been stored to. Lowering must refuse
  /// to fetch from poisoned pages and callers must not compile leaders on
  /// them — that is what keeps on_guest_store's bookkeeping sound.
  bool page_poisoned(uint32_t addr) const {
    return !poisoned_.empty() && poisoned_.count(addr >> kPageBits) != 0;
  }

  /// Scratch buffer for lower_block (capacity kMaxBlockUops). Flushes the
  /// cache first when at capacity, so the buffer is always valid.
  Uop* begin_compile() {
    assert_owner();
    if (blocks_.size() >= max_blocks_) flush();
    pending_ = arena_.reserve(kMaxBlockUops);
    return pending_;
  }

  /// Publish the block lowered into the begin_compile() buffer. `count`
  /// may be 0 (negative entry). Returns the cached entry.
  const Block* finish_compile(uint32_t pc, unsigned count, uint32_t bytes);

  /// GuestStoreWatch: drop every block on the touched pages and poison
  /// them. Returns true when a block was actually dropped (the running
  /// fast path must then exit its block — it may have dropped itself).
  bool on_guest_store(uint32_t addr, uint64_t bytes) override;

  uint64_t blocks_compiled() const { return blocks_compiled_; }
  uint64_t cache_hits() const { return cache_hits_; }
  uint64_t invalidations() const { return invalidations_; }
  size_t size() const { return blocks_.size(); }

 private:
  void flush() {
    blocks_.clear();
    page_index_.clear();
    arena_.clear();
    // poisoned_ and the counters survive: poisoning is a property of the
    // guest's store history, not of the cache contents.
  }

  void assert_owner() {
#ifndef NDEBUG
    if (owner_ == std::thread::id{}) owner_ = std::this_thread::get_id();
    assert(owner_ == std::this_thread::get_id() &&
           "BlockCache is per-worker state; it must never cross threads");
#endif
  }

  uint32_t max_blocks_;
  UopArena arena_;
  std::unordered_map<uint32_t, Block> blocks_;
  // page -> leader pcs of blocks overlapping it (blocks may span pages and
  // are indexed under each). Entries may go stale after a partial drop;
  // stale leaders just miss blocks_ on erase, harmlessly.
  std::unordered_map<uint32_t, std::vector<uint32_t>> page_index_;
  std::unordered_set<uint32_t> poisoned_;
  // One-entry filter for the overwhelmingly common case: repeated stores
  // into the same already-poisoned, block-free page (stack traffic).
  uint32_t last_clean_store_page_ = 0xffffffffu;
  Uop* pending_ = nullptr;
  uint64_t blocks_compiled_ = 0;
  uint64_t cache_hits_ = 0;
  uint64_t invalidations_ = 0;
#ifndef NDEBUG
  std::thread::id owner_{};
#endif
};

}  // namespace binsym::interp
