#include "core/executor.hpp"

#include <stdexcept>

#include "support/format.hpp"

namespace binsym::core {

namespace {

/// run_block policy over SymMachine: guards fail on any symbolic consumed
/// operand (register or shadowed memory page), so the fast path only ever
/// runs through fully-concrete dataflow. That is why it adds no branch
/// records and no assumptions — exactly what the spec path computes for the
/// same concrete values.
struct ConcolicPolicy {
  SymMachine& m;
  interp::BlockCache& cache;

  bool reg(unsigned index, uint32_t* out) { return m.reg_concrete(index, out); }
  void set_reg(unsigned index, uint32_t value) {
    m.set_reg_concrete(index, value);
  }
  bool load(uint32_t addr, unsigned bytes, uint32_t* out) {
    const ConcolicMemory& mem = m.memory();
    if (!mem.range_concrete(addr, bytes)) return false;
    *out = static_cast<uint32_t>(mem.read_concrete(addr, bytes));
    return true;
  }
  void store(uint32_t addr, unsigned bytes, uint32_t value, bool* exit_block) {
    m.memory().store_concrete(addr, bytes, value);
    if (cache.on_guest_store(addr, bytes)) *exit_block = true;
  }
};

}  // namespace

namespace {

/// Loader hardening, shared by both raw loaders: a payload whose end would
/// wrap the 32-bit address space would alias low memory (and record a
/// region with hi < lo, which `contains` can never match).
void check_load_extent(const char* loader, uint32_t addr, size_t size) {
  if (static_cast<uint64_t>(addr) + size > 0x100000000ull)
    throw std::runtime_error(strprintf(
        "%s: load of %llu byte(s) at 0x%x wraps the 32-bit address space",
        loader, static_cast<unsigned long long>(size), addr));
}

}  // namespace

void Program::load_words(uint32_t addr, const std::vector<uint32_t>& words,
                         uint32_t flags) {
  check_load_extent("load_words", addr, 4 * words.size());
  for (size_t i = 0; i < words.size(); ++i)
    image.write(addr + static_cast<uint32_t>(4 * i), 4, words[i]);
  if (!words.empty())
    regions.push_back(
        MemRegion{addr, addr + static_cast<uint32_t>(4 * words.size()), flags});
}

void Program::load_bytes(uint32_t addr, const std::vector<uint8_t>& bytes,
                         uint32_t flags) {
  check_load_extent("load_bytes", addr, bytes.size());
  image.load_image(addr, bytes);
  if (!bytes.empty())
    regions.push_back(
        MemRegion{addr, addr + static_cast<uint32_t>(bytes.size()), flags});
}

BinSymExecutor::BinSymExecutor(smt::Context& ctx, const isa::Decoder& decoder,
                               const spec::Registry& registry,
                               const Program& program, MachineConfig config)
    : ctx_(ctx),
      program_(program),
      config_(config),
      machine_(ctx),
      driver_(decoder, registry) {
  if (config_.uop_fastpath) machine_.set_store_watch(&cache_);
}

void BinSymExecutor::run(const smt::Assignment& seed, PathTrace& trace) {
  trace.clear();
  machine_.reset(program_.image, program_.entry, config_.stack_top, seed,
                 trace);
  // The fast path never fires the per-instruction hooks, so it must stay
  // off while an observer is attached.
  const bool fast = config_.uop_fastpath && !observer_;
  driver_.run<ConcolicPolicy>(machine_, trace.steps, config_.max_steps,
                              fast ? &cache_ : nullptr);
  retired_ += trace.steps;
}

}  // namespace binsym::core
