#include "interp/block_cache.hpp"

namespace binsym::interp {

const BlockCache::Block* BlockCache::compile(uint32_t pc,
                                             const isa::Decoder& decoder,
                                             const spec::Registry& registry,
                                             const UopFetchFn& code_word) {
  // Only the leader byte's page must be mapped, as for the spec path's
  // fetch (reads zero-fill past it). Poisoned pages are refused for the
  // whole word so a block never covers a page that has been stored to.
  auto fetch = [&](uint32_t p, uint32_t* word) {
    return !page_poisoned(p) && !page_poisoned(p + 3) && code_word(p, word);
  };
  Uop* buffer = begin_compile();
  uint32_t bytes = 0;
  unsigned count = lower_block(decoder, registry, fetch, pc, buffer,
                               kMaxBlockUops, &bytes);
  return finish_compile(pc, count, bytes);
}

const BlockCache::Block* BlockCache::finish_compile(uint32_t pc, unsigned count,
                                                    uint32_t bytes) {
  assert_owner();
  assert(pending_ != nullptr && "finish_compile without begin_compile");
  arena_.commit(count);
  Block block{pc, bytes, count, count ? pending_ : nullptr};
  pending_ = nullptr;
  auto [it, inserted] = blocks_.insert_or_assign(pc, block);
  (void)inserted;
  if (count) ++blocks_compiled_;
  // Index the block under every page its bytes touch (negative entries
  // under the leader's page only), so stores can find and drop it.
  uint32_t first = pc >> kPageBits;
  uint32_t last = bytes ? (pc + bytes - 1) >> kPageBits : first;
  for (uint32_t page = first; page <= last; ++page)
    page_index_[page].push_back(pc);
  return &it->second;
}

bool BlockCache::on_guest_store(uint32_t addr, uint64_t bytes) {
  assert_owner();
  if (bytes == 0) return false;
  uint32_t first = addr >> kPageBits;
  uint32_t last = static_cast<uint32_t>(
      (static_cast<uint64_t>(addr) + bytes - 1) >> kPageBits);
  if (first == last && first == last_clean_store_page_) return false;
  bool dropped = false;
  for (uint32_t page = first; page <= last; ++page) {
    if (auto it = page_index_.find(page); it != page_index_.end()) {
      for (uint32_t start : it->second) {
        // A leader may be stale (block already dropped via another page it
        // spanned); only count real erasures.
        if (blocks_.erase(start)) {
          ++invalidations_;
          dropped = true;
        }
      }
      page_index_.erase(it);
    }
    poisoned_.insert(page);
  }
  if (first == last) last_clean_store_page_ = first;
  return dropped;
}

}  // namespace binsym::interp
