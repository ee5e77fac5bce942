#include "core/memory.hpp"

#include <cassert>

#include "support/bits.hpp"

namespace binsym::core {

uint64_t ConcreteMemory::read(uint32_t addr, unsigned bytes) const {
  assert(bytes >= 1 && bytes <= 8);
  uint64_t value = 0;
  for (unsigned i = 0; i < bytes; ++i)
    value |= static_cast<uint64_t>(read8(addr + i)) << (8 * i);
  return value;
}

void ConcreteMemory::write(uint32_t addr, unsigned bytes, uint64_t value) {
  assert(bytes >= 1 && bytes <= 8);
  for (unsigned i = 0; i < bytes; ++i)
    write8(addr + i, static_cast<uint8_t>(value >> (8 * i)));
}

void ConcreteMemory::load_image(uint32_t addr,
                                const std::vector<uint8_t>& bytes) {
  for (size_t i = 0; i < bytes.size(); ++i)
    write8(addr + static_cast<uint32_t>(i), bytes[i]);
}

interp::SymValue ConcolicMemory::load(uint32_t addr, unsigned bytes) const {
  uint64_t conc = concrete_.read(addr, bytes);

  // Clean-page summary first (one lookup per page), per-byte check only on
  // dirty pages.
  if (range_concrete(addr, bytes)) return interp::sval(conc, bytes * 8);
  bool any_symbolic = false;
  for (unsigned i = 0; i < bytes && !any_symbolic; ++i)
    any_symbolic = symbolic_.count(addr + i) != 0;
  if (!any_symbolic) return interp::sval(conc, bytes * 8);

  // Reassemble: byte at the lowest address is the least significant
  // (little-endian), so build the concat from the highest byte down.
  smt::ExprRef expr = nullptr;
  for (unsigned i = 0; i < bytes; ++i) {
    unsigned byte_index = bytes - 1 - i;
    uint32_t byte_addr = addr + byte_index;
    smt::ExprRef byte_expr;
    if (auto it = symbolic_.find(byte_addr); it != symbolic_.end()) {
      byte_expr = it->second;
    } else {
      byte_expr = ctx_.constant(concrete_.read8(byte_addr), 8);
    }
    expr = expr ? ctx_.concat(expr, byte_expr) : byte_expr;
  }
  return interp::sval_expr(expr, conc);
}

void ConcolicMemory::store(uint32_t addr, unsigned bytes,
                           const interp::SymValue& value) {
  assert(value.width == bytes * 8);
  if (!value.symbolic()) {
    store_concrete(addr, bytes, value.conc);
    return;
  }
  concrete_.write(addr, bytes, value.conc);
  for (unsigned i = 0; i < bytes; ++i) {
    smt::ExprRef byte_expr = ctx_.extract(value.sym, 8 * i + 7, 8 * i);
    if (byte_expr->is_const()) {
      erase_symbolic_byte(addr + i);
    } else {
      set_symbolic_byte(addr + i, byte_expr);
    }
  }
}

void ConcolicMemory::store_concrete(uint32_t addr, unsigned bytes,
                                    uint64_t value) {
  concrete_.write(addr, bytes, value);
  if (range_concrete(addr, bytes)) return;  // clean pages: no shadow to clear
  for (unsigned i = 0; i < bytes; ++i) erase_symbolic_byte(addr + i);
}

void ConcolicMemory::poke_symbolic(uint32_t addr, smt::ExprRef byte_expr,
                                   uint8_t conc) {
  concrete_.write8(addr, conc);
  if (byte_expr->is_const()) {
    erase_symbolic_byte(addr);
  } else {
    set_symbolic_byte(addr, byte_expr);
  }
}

}  // namespace binsym::core
