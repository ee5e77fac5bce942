// Bit manipulation helpers shared by every layer of the library.
//
// All bitvector values in the project are carried in a uint64_t whose bits
// above the nominal width are zero ("canonical form"). The helpers here
// create, check and convert such values.
#pragma once

#include <cassert>
#include <cstdint>

namespace binsym {

/// Maximum bitvector width supported by the expression layer.
inline constexpr unsigned kMaxWidth = 64;

/// Bitmask with the low `width` bits set. `width` must be in [1, 64].
constexpr uint64_t mask_bits(unsigned width) {
  assert(width >= 1 && width <= kMaxWidth);
  return width == 64 ? ~uint64_t{0} : ((uint64_t{1} << width) - 1);
}

/// Truncate `value` to `width` bits (canonical form).
constexpr uint64_t truncate(uint64_t value, unsigned width) {
  return value & mask_bits(width);
}

/// True if `value` is already canonical for `width`.
constexpr bool is_canonical(uint64_t value, unsigned width) {
  return truncate(value, width) == value;
}

/// Sign bit of a `width`-bit value.
constexpr bool sign_bit(uint64_t value, unsigned width) {
  return (value >> (width - 1)) & 1;
}

/// Sign-extend a `width`-bit value to 64 bits, then truncate to `to` bits.
constexpr uint64_t sext(uint64_t value, unsigned width, unsigned to = 64) {
  assert(width <= to);
  uint64_t v = truncate(value, width);
  if (sign_bit(v, width)) v |= ~mask_bits(width);
  return truncate(v, to);
}

/// Zero-extend is truncation of an already-canonical value; provided for
/// symmetry at call sites that want to make intent explicit.
constexpr uint64_t zext(uint64_t value, unsigned width, unsigned to = 64) {
  assert(width <= to);
  (void)to;
  return truncate(value, width);
}

/// Interpret a canonical `width`-bit value as a signed integer.
constexpr int64_t to_signed(uint64_t value, unsigned width) {
  return static_cast<int64_t>(sext(value, width, 64));
}

/// Extract bits [hi:lo] (inclusive) of `value`.
constexpr uint64_t extract_bits(uint64_t value, unsigned hi, unsigned lo) {
  assert(hi >= lo && hi < kMaxWidth);
  return (value >> lo) & mask_bits(hi - lo + 1);
}

/// Extract a single bit.
constexpr bool test_bit(uint64_t value, unsigned bit) {
  return (value >> bit) & 1;
}

// -- Saturating SMT-style shifts (amount >= width yields 0 / sign-fill). ----

constexpr uint64_t shl_bv(uint64_t a, uint64_t amount, unsigned width) {
  if (amount >= width) return 0;
  return truncate(a << amount, width);
}

constexpr uint64_t lshr_bv(uint64_t a, uint64_t amount, unsigned width) {
  if (amount >= width) return 0;
  return truncate(a, width) >> amount;
}

constexpr uint64_t ashr_bv(uint64_t a, uint64_t amount, unsigned width) {
  bool neg = sign_bit(truncate(a, width), width);
  if (amount >= width) return neg ? mask_bits(width) : 0;
  uint64_t shifted = sext(a, width, 64) >> amount;
  return truncate(shifted, width);
}

// -- SMT bitvector division semantics (division by zero is total). ----------

/// bvudiv: x / 0 == all-ones.
constexpr uint64_t udiv_bv(uint64_t a, uint64_t b, unsigned width) {
  if (truncate(b, width) == 0) return mask_bits(width);
  return truncate(truncate(a, width) / truncate(b, width), width);
}

/// bvurem: x % 0 == x.
constexpr uint64_t urem_bv(uint64_t a, uint64_t b, unsigned width) {
  if (truncate(b, width) == 0) return truncate(a, width);
  return truncate(truncate(a, width) % truncate(b, width), width);
}

/// SMT-LIB bvsdiv: INT_MIN / -1 wraps to INT_MIN; division by zero yields
/// -1 for non-negative dividends and +1 for negative ones. (RISC-V's DIV
/// returns -1 on /0 unconditionally — the formal spec encodes that with an
/// explicit divisor==0 branch, exactly like LibRISCV does, so this helper
/// deliberately keeps the SMT-LIB semantics to stay aligned with Z3.)
constexpr uint64_t sdiv_bv(uint64_t a, uint64_t b, unsigned width) {
  int64_t sa = to_signed(a, width), sb = to_signed(b, width);
  if (sb == 0) return sa < 0 ? 1 : mask_bits(width);
  int64_t int_min = to_signed(uint64_t{1} << (width - 1), width);
  if (sa == int_min && sb == -1) return truncate(static_cast<uint64_t>(sa), width);
  return truncate(static_cast<uint64_t>(sa / sb), width);
}

/// SMT-LIB bvsrem (sign follows dividend): x % 0 == x; INT_MIN % -1 == 0.
/// These edge cases coincide with RISC-V REM semantics.
constexpr uint64_t srem_bv(uint64_t a, uint64_t b, unsigned width) {
  int64_t sa = to_signed(a, width), sb = to_signed(b, width);
  if (sb == 0) return truncate(a, width);
  int64_t int_min = to_signed(uint64_t{1} << (width - 1), width);
  if (sa == int_min && sb == -1) return 0;
  return truncate(static_cast<uint64_t>(sa % sb), width);
}

}  // namespace binsym
