#include "core/executor.hpp"

#include <stdexcept>

#include "interp/uop_run.hpp"
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
      decoder_(decoder),
      registry_(registry),
      program_(program),
      config_(config),
      machine_(ctx),
      cache_(config.uop_cache_blocks) {
  if (config_.uop_fastpath) machine_.set_store_watch(&cache_);
}

void BinSymExecutor::run(const smt::Assignment& seed, PathTrace& trace) {
  trace.clear();
  machine_.reset(program_.image, program_.entry, config_.stack_top, seed,
                 trace);
  loop();
}

const interp::BlockCache::Block* BinSymExecutor::lookup_or_compile(
    uint32_t pc) {
  if (cache_.page_poisoned(pc)) return nullptr;
  if (const interp::BlockCache::Block* block = cache_.lookup(pc)) return block;
  // Lowering fetch mirrors the slow loop: only the leader byte's page must
  // be mapped (reads zero-fill past it), and fetch never consults the
  // symbolic shadow (like fetch_word). Poisoned pages are refused for the
  // whole word so a block never covers a page that has been stored to.
  auto fetch = [this](uint32_t p, uint32_t* word) {
    if (!machine_.memory().mapped(p)) return false;
    if (cache_.page_poisoned(p) || cache_.page_poisoned(p + 3)) return false;
    *word = static_cast<uint32_t>(machine_.memory().read_concrete(p, 4));
    return true;
  };
  interp::Uop* buffer = cache_.begin_compile();
  uint32_t bytes = 0;
  unsigned count =
      lower_block(decoder_, registry_, fetch, pc, buffer,
                  interp::BlockCache::kMaxBlockUops, &bytes);
  return cache_.finish_compile(pc, count, bytes);
}

void BinSymExecutor::loop() {
  PathTrace& trace = machine_.trace();
  // The fast path never fires the per-instruction hooks, so it must stay
  // off while any are attached.
  const bool fast = config_.uop_fastpath && !trace_hook_ && !observer_;
  ConcolicPolicy policy{machine_, cache_};
  while (machine_.running()) {
    if (trace.steps >= config_.max_steps) {
      machine_.stop(ExitReason::kMaxSteps);
      break;
    }
    if (!machine_.fetch_mapped()) {
      machine_.stop(ExitReason::kBadFetch);
      break;
    }
    if (fast) {
      const interp::BlockCache::Block* block =
          lookup_or_compile(machine_.pc());
      if (block && block->count) {
        interp::UopRun r = interp::run_block(
            block->uops, block->count, config_.max_steps - trace.steps,
            policy);
        trace.steps += r.steps;
        retired_ += r.steps;
        if (r.exit != interp::UopExit::kBail) {
          machine_.set_next_pc(r.next_pc);
          machine_.advance();
          continue;  // kStepLimit re-enters the budget check above
        }
        // Re-execute the bailing instruction on the spec path in this same
        // iteration (continuing would re-enter the block and bail forever).
        machine_.set_next_pc(r.bail_pc);
        machine_.advance();
        ++guard_bails_;
      }
    }
    uint32_t word = machine_.fetch_word();

    const isa::Decoded* decoded;
    if (auto it = decode_cache_.find(word); it != decode_cache_.end()) {
      decoded = &it->second;
    } else {
      auto result = decoder_.decode(word);
      if (!result) {
        machine_.stop(ExitReason::kIllegalInstr);
        break;
      }
      decoded = &decode_cache_.emplace(word, *result).first->second;
    }

    const dsl::Semantics* semantics = registry_.get(decoded->id());
    if (!semantics) {
      machine_.stop(ExitReason::kIllegalInstr);
      break;
    }

    if (trace_hook_) trace_hook_(machine_.pc(), *decoded);
    if (observer_) observer_->on_instruction(machine_.pc(), *decoded);
    machine_.set_next_pc(machine_.pc() + decoded->size);
    evaluator_.execute(*semantics, *decoded, machine_);
    machine_.advance();
    ++trace.steps;
    ++retired_;
  }
}

}  // namespace binsym::core
