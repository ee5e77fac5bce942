// Guest memory.
//
// ConcreteMemory is a sparse paged byte store with copy-on-write value
// semantics: pages are immutable shared buffers, copying a memory (or
// rebinding it to a program image) copies only the page *table*, and a page
// is physically duplicated the first time a writer that shares it stores a
// byte. This is what makes reset-per-run O(dirty pages) instead of
// O(image).
//
// ConcolicMemory layers a symbolic shadow over it: any byte may
// additionally carry an 8-bit expression; loads reassemble wide values from
// the shadow, stores scatter them. Unwritten, unmapped bytes read as zero —
// the deterministic initial-state convention shared by all engines here.
//
// Thread-safety: a ConcreteMemory instance is single-threaded, but its
// pages may be shared across threads *read-only* (each worker rebinds its
// machine memory to the one shared Program image). That is safe: the
// copy-on-write break only needs to distinguish "uniquely owned" from
// "shared", and a page reachable from a live image can never appear
// uniquely owned to a worker (the image itself always holds a reference),
// so cross-thread writes always copy first.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "interp/value.hpp"
#include "smt/context.hpp"

namespace binsym::core {

class ConcreteMemory {
 public:
  static constexpr uint32_t kPageBits = 12;
  static constexpr uint32_t kPageSize = 1u << kPageBits;
  using Page = std::array<uint8_t, kPageSize>;

  /// Single-byte read; unmapped addresses read as zero (the shared
  /// deterministic initial-state convention).
  uint8_t read8(uint32_t addr) const {
    auto it = pages_.find(addr >> kPageBits);
    if (it == pages_.end()) return 0;
    return (*it->second)[addr & (kPageSize - 1)];
  }

  /// Single-byte write; maps a fresh zero page or breaks copy-on-write
  /// sharing as needed (see writable_page).
  void write8(uint32_t addr, uint8_t value) {
    writable_page(addr)[addr & (kPageSize - 1)] = value;
  }

  /// Little-endian multi-byte read (bytes in [1, 8]).
  uint64_t read(uint32_t addr, unsigned bytes) const;

  /// Little-endian multi-byte write.
  void write(uint32_t addr, unsigned bytes, uint64_t value);

  /// True if the page containing `addr` has ever been written/loaded.
  bool mapped(uint32_t addr) const {
    return pages_.count(addr >> kPageBits) != 0;
  }

  /// Bulk byte copy at `addr` (program loading); same mapping/CoW rules
  /// as write8.
  void load_image(uint32_t addr, const std::vector<uint8_t>& bytes);

  /// Share `other`'s pages without copying any of them — O(page table).
  /// This is the reset-per-run primitive: subsequent writes copy-on-write
  /// the affected page only. Unlike plain assignment it preserves this
  /// instance's pages_copied() counter, which tracks physical copy work
  /// across the instance's lifetime.
  void rebind(const ConcreteMemory& other) { pages_ = other.pages_; }

  /// Mapped (ever-touched) pages — a size metric, not a bounds check:
  /// the bug-finding oracles use byte-exact Program::regions instead.
  size_t num_pages() const { return pages_.size(); }

  /// Pages physically duplicated by copy-on-write breaks over this
  /// instance's lifetime (fresh zero pages are not counted). Survives
  /// rebind(); plain copies inherit the source's count.
  uint64_t pages_copied() const { return pages_copied_; }

 private:
  Page& writable_page(uint32_t addr) {
    auto [it, inserted] = pages_.try_emplace(addr >> kPageBits);
    if (inserted) {
      it->second = std::make_shared<Page>();
      it->second->fill(0);
    } else if (it->second.use_count() > 1) {
      // Copy-on-write break: someone else (the program image, a copy)
      // still references this page.
      it->second = std::make_shared<Page>(*it->second);
      ++pages_copied_;
    }
    return *it->second;
  }

  std::unordered_map<uint32_t, std::shared_ptr<Page>> pages_;
  uint64_t pages_copied_ = 0;
};

class ConcolicMemory {
 public:
  explicit ConcolicMemory(smt::Context& ctx) : ctx_(ctx) {}

  /// Reset to a concrete image (start of a new path). O(page table): the
  /// image's pages are shared copy-on-write, never copied here.
  void reset(const ConcreteMemory& image) {
    concrete_.rebind(image);
    symbolic_.clear();
    symbolic_page_counts_.clear();
  }

  const ConcreteMemory& concrete() const { return concrete_; }

  /// Concrete n-byte load of the shadow (used for instruction fetch).
  uint64_t read_concrete(uint32_t addr, unsigned bytes) const {
    return concrete_.read(addr, bytes);
  }

  bool mapped(uint32_t addr) const { return concrete_.mapped(addr); }

  /// Load `bytes` bytes at a concrete address, reassembling symbolic bytes
  /// into a (bytes*8)-wide value.
  interp::SymValue load(uint32_t addr, unsigned bytes) const;

  /// Store a (bytes*8)-wide value at a concrete address.
  void store(uint32_t addr, unsigned bytes, const interp::SymValue& value);

  /// Fully-concrete store: writes the concrete bytes and clears any shadow
  /// under them. The micro-op fast path's store primitive.
  void store_concrete(uint32_t addr, unsigned bytes, uint64_t value);

  /// True when no byte of [addr, addr+bytes) carries a symbolic expression,
  /// decided from per-page symbolic-byte counts alone — the clean-page
  /// summary that lets hot loads/stores skip per-byte shadow lookups.
  /// Conservative: a dirty page makes it return false even if the specific
  /// bytes are concrete. Counts every positive answer in
  /// pages_clean_skipped().
  bool range_concrete(uint32_t addr, unsigned bytes) const {
    if (!symbolic_page_counts_.empty()) {
      uint32_t first = addr >> ConcreteMemory::kPageBits;
      uint32_t last = (addr + bytes - 1) >> ConcreteMemory::kPageBits;
      if (last < first) return false;  // address-space wrap: stay byte-exact
      for (uint32_t page = first; page <= last; ++page)
        if (symbolic_page_counts_.count(page) != 0) return false;
    }
    ++pages_clean_skipped_;
    return true;
  }

  /// Accesses answered by the clean-page summary (skipped per-byte lookups).
  uint64_t pages_clean_skipped() const { return pages_clean_skipped_; }

  /// Bind one byte to a symbolic expression with concrete shadow `conc`
  /// (used by sym_input).
  void poke_symbolic(uint32_t addr, smt::ExprRef byte_expr, uint8_t conc);

  size_t num_symbolic_bytes() const { return symbolic_.size(); }

 private:
  // All shadow mutation funnels through these two so the per-page counts
  // can never drift from symbolic_.
  void set_symbolic_byte(uint32_t addr, smt::ExprRef expr) {
    auto [it, inserted] = symbolic_.insert_or_assign(addr, std::move(expr));
    (void)it;
    if (inserted)
      ++symbolic_page_counts_[addr >> ConcreteMemory::kPageBits];
  }

  void erase_symbolic_byte(uint32_t addr) {
    if (symbolic_.erase(addr) == 0) return;
    auto it = symbolic_page_counts_.find(addr >> ConcreteMemory::kPageBits);
    if (--it->second == 0) symbolic_page_counts_.erase(it);
  }

  smt::Context& ctx_;
  ConcreteMemory concrete_;
  std::unordered_map<uint32_t, smt::ExprRef> symbolic_;
  // page -> number of symbolic bytes on it; absent = clean page.
  std::unordered_map<uint32_t, uint32_t> symbolic_page_counts_;
  mutable uint64_t pages_clean_skipped_ = 0;
};

}  // namespace binsym::core
