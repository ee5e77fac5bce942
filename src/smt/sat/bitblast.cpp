#include "smt/sat/bitblast.hpp"

#include <cassert>

#include "support/bits.hpp"

namespace binsym::smt::sat {

BitBlaster::BitBlaster(CdclSolver& solver) : solver_(solver) {
  Var true_var = solver_.new_var(/*decision=*/false);
  true_lit_ = make_lit(true_var, false);
  clause({true_lit_});
}

Lit BitBlaster::input() { return make_lit(solver_.new_var(), false); }

Lit BitBlaster::gate() {
  return make_lit(solver_.new_var(/*decision=*/false), false);
}

void BitBlaster::clause(std::vector<Lit> lits) {
  solver_.add_clause(std::move(lits));
}

// -- Gates (with constant short-circuiting). ----------------------------------

Lit BitBlaster::g_and(Lit a, Lit b) {
  if (is_const(a, false) || is_const(b, false)) return lit_false();
  if (is_const(a, true)) return b;
  if (is_const(b, true)) return a;
  if (a == b) return a;
  if (a == lit_not(b)) return lit_false();
  Lit out = gate();
  clause({lit_not(out), a});
  clause({lit_not(out), b});
  clause({out, lit_not(a), lit_not(b)});
  return out;
}

Lit BitBlaster::g_or(Lit a, Lit b) { return lit_not(g_and(lit_not(a), lit_not(b))); }

Lit BitBlaster::g_xor(Lit a, Lit b) {
  if (is_const(a, false)) return b;
  if (is_const(b, false)) return a;
  if (is_const(a, true)) return lit_not(b);
  if (is_const(b, true)) return lit_not(a);
  if (a == b) return lit_false();
  if (a == lit_not(b)) return lit_true();
  Lit out = gate();
  clause({lit_not(out), a, b});
  clause({lit_not(out), lit_not(a), lit_not(b)});
  clause({out, lit_not(a), b});
  clause({out, a, lit_not(b)});
  return out;
}

Lit BitBlaster::g_mux(Lit sel, Lit then_lit, Lit else_lit) {
  if (is_const(sel, true)) return then_lit;
  if (is_const(sel, false)) return else_lit;
  if (then_lit == else_lit) return then_lit;
  Lit out = gate();
  clause({lit_not(sel), lit_not(then_lit), out});
  clause({lit_not(sel), then_lit, lit_not(out)});
  clause({sel, lit_not(else_lit), out});
  clause({sel, else_lit, lit_not(out)});
  return out;
}

Lit BitBlaster::g_maj(Lit a, Lit b, Lit c) {
  if (a == b || a == c) return a;
  if (b == c) return b;
  if (a == lit_not(b)) return c;
  if (a == lit_not(c)) return b;
  if (b == lit_not(c)) return a;
  if (is_const(a, true)) return g_or(b, c);
  if (is_const(a, false)) return g_and(b, c);
  if (is_const(b, true)) return g_or(a, c);
  if (is_const(b, false)) return g_and(a, c);
  if (is_const(c, true)) return g_or(a, b);
  if (is_const(c, false)) return g_and(a, b);
  // MiniSat+'s full-adder carry: out is true iff two of its inputs are.
  Lit out = gate();
  clause({lit_not(a), lit_not(b), out});
  clause({lit_not(a), lit_not(c), out});
  clause({lit_not(b), lit_not(c), out});
  clause({a, b, lit_not(out)});
  clause({a, c, lit_not(out)});
  clause({b, c, lit_not(out)});
  return out;
}

Lit BitBlaster::g_and_all(const Bits& lits) {
  Lit acc = lit_true();
  for (Lit lit : lits) acc = g_and(acc, lit);
  return acc;
}

Lit BitBlaster::g_or_all(const Bits& lits) {
  Lit acc = lit_false();
  for (Lit lit : lits) acc = g_or(acc, lit);
  return acc;
}

// -- Word-level circuits. --------------------------------------------------------

BitBlaster::Bits BitBlaster::constant_bits(uint64_t value, unsigned width) {
  Bits bits(width);
  for (unsigned i = 0; i < width; ++i)
    bits[i] = test_bit(value, i) ? lit_true() : lit_false();
  return bits;
}

BitBlaster::Bits BitBlaster::adder(const Bits& a, const Bits& b, Lit carry_in) {
  assert(a.size() == b.size());
  Bits sum(a.size());
  Lit carry = carry_in;
  for (size_t i = 0; i < a.size(); ++i) {
    Lit axb = g_xor(a[i], b[i]);
    sum[i] = g_xor(axb, carry);
    // carry' = (a & b) | (carry & (a ^ b))
    carry = g_or(g_and(a[i], b[i]), g_and(carry, axb));
  }
  return sum;
}

BitBlaster::Bits BitBlaster::negate(const Bits& a) {
  Bits inverted(a.size());
  for (size_t i = 0; i < a.size(); ++i) inverted[i] = lit_not(a[i]);
  return adder(inverted, constant_bits(0, static_cast<unsigned>(a.size())),
               lit_true());
}

BitBlaster::Bits BitBlaster::multiply(const Bits& a, const Bits& b) {
  unsigned width = static_cast<unsigned>(a.size());
  Bits acc = constant_bits(0, width);
  for (unsigned i = 0; i < width; ++i) {
    if (is_const(a[i], false)) continue;
    // Partial product: (b << i) & a_i, truncated to width.
    Bits partial = constant_bits(0, width);
    for (unsigned k = i; k < width; ++k) partial[k] = g_and(b[k - i], a[i]);
    acc = adder(acc, partial, lit_false());
  }
  return acc;
}

BitBlaster::Bits BitBlaster::mux_word(Lit sel, const Bits& then_bits,
                                      const Bits& else_bits) {
  assert(then_bits.size() == else_bits.size());
  Bits out(then_bits.size());
  for (size_t i = 0; i < out.size(); ++i)
    out[i] = g_mux(sel, then_bits[i], else_bits[i]);
  return out;
}

Lit BitBlaster::equals(const Bits& a, const Bits& b) {
  assert(a.size() == b.size());
  Lit acc = lit_true();
  for (size_t i = 0; i < a.size(); ++i)
    acc = g_and(acc, lit_not(g_xor(a[i], b[i])));
  return acc;
}

Lit BitBlaster::unsigned_less(const Bits& a, const Bits& b) {
  // a < b  <=>  no carry out of a + ~b + 1. Only the carry chain is
  // built, one majority gate per bit; the sum bits are never read.
  assert(a.size() == b.size());
  Lit carry = lit_true();
  for (size_t i = 0; i < a.size(); ++i)
    carry = g_maj(a[i], lit_not(b[i]), carry);
  return lit_not(carry);
}

Lit BitBlaster::signed_less(const Bits& a, const Bits& b) {
  // Flip the sign bits and compare unsigned.
  Bits a2 = a, b2 = b;
  a2.back() = lit_not(a2.back());
  b2.back() = lit_not(b2.back());
  return unsigned_less(a2, b2);
}

BitBlaster::Bits BitBlaster::shift(const Bits& a, const Bits& amount,
                                   Kind kind) {
  unsigned width = static_cast<unsigned>(a.size());
  Lit fill = kind == Kind::kAShr ? a.back() : lit_false();

  // Barrel network over the amount bits that can address within the word.
  unsigned stages = 0;
  while ((1u << stages) < width) ++stages;
  Bits result = a;
  for (unsigned s = 0; s < stages && s < amount.size(); ++s) {
    unsigned distance = 1u << s;
    Bits shifted(width);
    for (unsigned i = 0; i < width; ++i) {
      if (kind == Kind::kShl) {
        shifted[i] = i >= distance ? result[i - distance] : lit_false();
      } else {
        shifted[i] = i + distance < width ? result[i + distance] : fill;
      }
    }
    result = mux_word(amount[s], shifted, result);
  }

  // Saturation: any amount bit beyond the in-word range forces the
  // all-shifted-out value (0, or sign fill for ashr).
  Bits oversize_bits;
  for (size_t i = stages; i < amount.size(); ++i) oversize_bits.push_back(amount[i]);
  // Amounts in [width, 2^stages) within the staged bits also overshoot for
  // non-power-of-two widths; the barrel network already yields the correct
  // saturated value for those because every shifted-in bit is `fill`.
  Lit oversize = g_or_all(oversize_bits);
  Bits saturated(width, fill);
  return mux_word(oversize, saturated, result);
}

void BitBlaster::divide(const Bits& a, const Bits& b, Bits* quotient,
                        Bits* remainder) {
  unsigned width = static_cast<unsigned>(a.size());
  // Fresh q, r constrained by: b != 0 -> (a == q*b + r  /\  r < b  /\  no
  // overflow in q*b). Overflow-freedom comes from doing the multiply and
  // add in 2w bits and requiring the upper half to be zero.
  Bits q(width), r(width);
  for (unsigned i = 0; i < width; ++i) q[i] = input();
  for (unsigned i = 0; i < width; ++i) r[i] = input();

  Bits q_wide = q, b_wide = b, r_wide = r, a_wide = a;
  q_wide.resize(2 * width, lit_false());
  b_wide.resize(2 * width, lit_false());
  r_wide.resize(2 * width, lit_false());
  a_wide.resize(2 * width, lit_false());

  Bits product = multiply(q_wide, b_wide);
  Bits sum = adder(product, r_wide, lit_false());
  Lit identity = equals(sum, a_wide);
  Lit remainder_ok = unsigned_less(r, b);
  Lit b_is_zero = equals(b, constant_bits(0, width));

  // (¬b_zero -> identity) and (¬b_zero -> remainder_ok)
  clause({b_is_zero, identity});
  clause({b_is_zero, remainder_ok});

  // Final values obey the SMT-LIB b==0 semantics.
  Bits ones(width, lit_true());
  *quotient = mux_word(b_is_zero, ones, q);
  *remainder = mux_word(b_is_zero, a, r);
}

// -- Expression layer. -------------------------------------------------------------

const BitBlaster::Bits& BitBlaster::blast(ExprRef expr) {
  // Postorder over the part of the DAG not blasted yet: a memoized node is
  // a leaf, so a question that extends an earlier one costs only its new
  // nodes.
  if (auto it = memo_.find(expr->id); it != memo_.end()) return it->second;
  std::vector<std::pair<ExprRef, bool>> stack{{expr, false}};
  while (!stack.empty()) {
    auto [node, expanded] = stack.back();
    stack.pop_back();
    if (memo_.count(node->id)) continue;
    if (expanded) {
      memo_.emplace(node->id, blast_node(node));
      continue;
    }
    stack.emplace_back(node, true);
    for (unsigned i = 0; i < node->num_ops; ++i)
      if (!memo_.count(node->ops[i]->id)) stack.emplace_back(node->ops[i], false);
  }
  return memo_.at(expr->id);
}

BitBlaster::Bits BitBlaster::blast_node(ExprRef e) {
  auto op = [this, e](unsigned i) -> const Bits& {
    return memo_.at(e->ops[i]->id);
  };
  unsigned width = e->width;

  switch (e->kind) {
    case Kind::kConst:
      return constant_bits(e->constant, width);
    case Kind::kVar: {
      if (auto it = var_bits_.find(e->var_id); it != var_bits_.end())
        return it->second;
      Bits bits(width);
      for (unsigned i = 0; i < width; ++i) bits[i] = input();
      var_bits_.emplace(e->var_id, bits);
      return bits;
    }
    case Kind::kNot: {
      Bits bits = op(0);
      for (Lit& lit : bits) lit = lit_not(lit);
      return bits;
    }
    case Kind::kNeg:
      return negate(op(0));
    case Kind::kExtract:
      return Bits(op(0).begin() + e->aux1, op(0).begin() + e->aux0 + 1);
    case Kind::kZExt: {
      Bits bits = op(0);
      bits.resize(width, lit_false());
      return bits;
    }
    case Kind::kSExt: {
      Bits bits = op(0);
      bits.resize(width, bits.back());
      return bits;
    }
    case Kind::kAdd:
      return adder(op(0), op(1), lit_false());
    case Kind::kSub:
      return adder(op(0), negate(op(1)), lit_false());
    case Kind::kMul:
      return multiply(op(0), op(1));
    case Kind::kUDiv: {
      Bits q, r;
      divide(op(0), op(1), &q, &r);
      return q;
    }
    case Kind::kURem: {
      Bits q, r;
      divide(op(0), op(1), &q, &r);
      return r;
    }
    case Kind::kSDiv: {
      // Sign/magnitude around the unsigned circuit; wraps INT_MIN/-1 and
      // matches bvsdiv-by-zero by construction (see tests).
      const Bits& a = op(0);
      const Bits& b = op(1);
      Lit sign_a = a.back(), sign_b = b.back();
      Bits abs_a = mux_word(sign_a, negate(a), a);
      Bits abs_b = mux_word(sign_b, negate(b), b);
      Bits q, r;
      divide(abs_a, abs_b, &q, &r);
      return mux_word(g_xor(sign_a, sign_b), negate(q), q);
    }
    case Kind::kSRem: {
      const Bits& a = op(0);
      const Bits& b = op(1);
      Lit sign_a = a.back(), sign_b = b.back();
      Bits abs_a = mux_word(sign_a, negate(a), a);
      Bits abs_b = mux_word(sign_b, negate(b), b);
      Bits q, r;
      divide(abs_a, abs_b, &q, &r);
      return mux_word(sign_a, negate(r), r);
    }
    case Kind::kAnd: {
      Bits bits(width);
      for (unsigned i = 0; i < width; ++i) bits[i] = g_and(op(0)[i], op(1)[i]);
      return bits;
    }
    case Kind::kOr: {
      Bits bits(width);
      for (unsigned i = 0; i < width; ++i) bits[i] = g_or(op(0)[i], op(1)[i]);
      return bits;
    }
    case Kind::kXor: {
      Bits bits(width);
      for (unsigned i = 0; i < width; ++i) bits[i] = g_xor(op(0)[i], op(1)[i]);
      return bits;
    }
    case Kind::kShl:
      return shift(op(0), op(1), Kind::kShl);
    case Kind::kLShr:
      return shift(op(0), op(1), Kind::kLShr);
    case Kind::kAShr:
      return shift(op(0), op(1), Kind::kAShr);
    case Kind::kEq:
      return Bits{equals(op(0), op(1))};
    case Kind::kUlt:
      return Bits{unsigned_less(op(0), op(1))};
    case Kind::kUle:
      return Bits{lit_not(unsigned_less(op(1), op(0)))};
    case Kind::kSlt:
      return Bits{signed_less(op(0), op(1))};
    case Kind::kSle:
      return Bits{lit_not(signed_less(op(1), op(0)))};
    case Kind::kConcat: {
      Bits bits = op(1);  // low part
      bits.insert(bits.end(), op(0).begin(), op(0).end());
      return bits;
    }
    case Kind::kIte:
      return mux_word(op(0)[0], op(1), op(2));
  }
  return {};
}

Lit BitBlaster::literal(ExprRef expr) {
  assert(expr->width == 1);
  return blast(expr)[0];
}

uint64_t BitBlaster::var_value(uint32_t var_id, unsigned width) const {
  auto it = var_bits_.find(var_id);
  if (it == var_bits_.end()) return 0;
  uint64_t value = 0;
  for (unsigned i = 0; i < width && i < it->second.size(); ++i)
    if (solver_.value(lit_var(it->second[i])) != lit_negated(it->second[i]))
      value |= uint64_t{1} << i;
  return value;
}

}  // namespace binsym::smt::sat
