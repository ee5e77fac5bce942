#include "smt/context.hpp"

#include <cassert>
#include <string_view>

#include "support/bits.hpp"

namespace binsym::smt {

namespace {

/// splitmix64 finalizer: full-avalanche mixing so the low bits of the
/// content hash are usable directly as intern-table probe indices.
uint64_t mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// FNV-1a over the variable name: the cross-context-stable part of a kVar
/// node's identity (per-context var ids depend on declaration order).
uint64_t name_hash(std::string_view name) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : name) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// The structural content hash. Depends only on the node's shape and its
/// children's hashes (kVar: the variable name), never on per-context ids —
/// the stability contract documented in context.hpp.
uint64_t content_hash(Kind kind, unsigned width, uint64_t payload,
                      uint32_t aux0, uint32_t aux1, ExprRef a, ExprRef b,
                      ExprRef c) {
  uint64_t h = mix64((static_cast<uint64_t>(kind) << 8) | width);
  h = mix64(h ^ ((uint64_t{aux0} << 32) | aux1));
  h = mix64(h ^ payload);
  if (a) h = mix64(h ^ a->hash);
  if (b) h = mix64(h ^ b->hash);
  if (c) h = mix64(h ^ c->hash);
  return h;
}

}  // namespace

ExprRef Context::lookup_var(const std::string& name) const {
  auto it = var_by_name_.find(name);
  return it == var_by_name_.end() ? nullptr : var_nodes_[it->second];
}

size_t Context::arena_bytes() const {
  return blocks_.size() * kBlockSize * sizeof(Expr) +
         table_.capacity() * sizeof(uint32_t);
}

void Context::grow_table() {
  size_t new_size = table_.empty() ? 1024 : table_.size() * 2;
  std::vector<uint32_t> old = std::move(table_);
  table_.assign(new_size, 0);
  size_t mask = new_size - 1;
  for (uint32_t id : old) {
    if (!id) continue;
    size_t slot = node_at(id)->hash & mask;
    while (table_[slot]) slot = (slot + 1) & mask;
    table_[slot] = id;
  }
}

ExprRef Context::intern(Kind kind, unsigned width, uint64_t constant,
                        uint32_t var_id, uint32_t aux0, uint32_t aux1,
                        ExprRef a, ExprRef b, ExprRef c) {
  assert(width >= 1 && width <= kMaxWidth);
  uint64_t payload = kind == Kind::kVar ? name_hash(vars_[var_id].name)
                                        : constant;
  uint64_t hash = content_hash(kind, width, payload, aux0, aux1, a, b, c);

  if (table_used_ * 4 >= table_.size() * 3) grow_table();
  size_t mask = table_.size() - 1;
  size_t slot = hash & mask;
  while (table_[slot]) {
    Expr* n = node_at(table_[slot]);
    // Children are interned first, so comparing child pointers is the
    // full structural equality check.
    if (n->hash == hash && n->kind == kind && n->width == width &&
        n->constant == constant && n->var_id == var_id && n->aux0 == aux0 &&
        n->aux1 == aux1 && n->ops[0] == a && n->ops[1] == b &&
        n->ops[2] == c) {
      ++intern_hits_;
      return n;
    }
    slot = (slot + 1) & mask;
  }

  size_t index = num_nodes_;
  if ((index >> kBlockShift) == blocks_.size())
    blocks_.push_back(std::make_unique<Expr[]>(kBlockSize));
  Expr* node = &blocks_[index >> kBlockShift][index & (kBlockSize - 1)];
  ++num_nodes_;
  node->kind = kind;
  node->width = static_cast<uint8_t>(width);
  node->num_ops = static_cast<uint8_t>(a ? (b ? (c ? 3 : 2) : 1) : 0);
  node->id = static_cast<uint32_t>(num_nodes_);  // 1-based, dense
  node->hash = hash;
  node->constant = constant;
  node->var_id = var_id;
  node->aux0 = aux0;
  node->aux1 = aux1;
  node->ops[0] = a;
  node->ops[1] = b;
  node->ops[2] = c;
  table_[slot] = node->id;
  ++table_used_;
  return node;
}

ExprRef Context::constant(uint64_t value, unsigned width) {
  return intern(Kind::kConst, width, truncate(value, width), 0, 0, 0);
}

ExprRef Context::var(const std::string& name, unsigned width) {
  if (auto it = var_by_name_.find(name); it != var_by_name_.end()) {
    assert(vars_[it->second].width == width && "variable redeclared with a different width");
    return var_nodes_[it->second];
  }
  uint32_t id = static_cast<uint32_t>(vars_.size());
  vars_.push_back(VarInfo{name, width});
  var_by_name_.emplace(name, id);
  ExprRef node = intern(Kind::kVar, width, 0, id, 0, 0);
  var_nodes_.push_back(node);
  return node;
}

ExprRef Context::fresh_var(const std::string& prefix, unsigned width) {
  std::string name = prefix + "!" + std::to_string(fresh_counter_++);
  while (var_by_name_.count(name))
    name = prefix + "!" + std::to_string(fresh_counter_++);
  return var(name, width);
}

ExprRef Context::not_(ExprRef a) {
  if (a->is_const()) return constant(~a->constant, a->width);
  if (a->kind == Kind::kNot) return a->ops[0];  // ~~x == x
  return intern(Kind::kNot, a->width, 0, 0, 0, 0, a);
}

ExprRef Context::neg(ExprRef a) {
  if (a->is_const())
    return constant(truncate(~a->constant + 1, a->width), a->width);
  if (a->kind == Kind::kNeg) return a->ops[0];
  return intern(Kind::kNeg, a->width, 0, 0, 0, 0, a);
}

ExprRef Context::extract(ExprRef a, unsigned hi, unsigned lo) {
  assert(hi >= lo && hi < a->width);
  unsigned width = hi - lo + 1;
  if (width == a->width) return a;
  if (a->is_const()) return constant(extract_bits(a->constant, hi, lo), width);
  // extract of extract composes.
  if (a->kind == Kind::kExtract)
    return extract(a->ops[0], a->aux1 + hi, a->aux1 + lo);
  // Low-part extract of an extension is an extract of the original operand
  // (or the operand itself).
  if ((a->kind == Kind::kZExt || a->kind == Kind::kSExt) &&
      hi < a->ops[0]->width)
    return extract(a->ops[0], hi, lo);
  // High-part extract of a zero-extension is zero.
  if (a->kind == Kind::kZExt && lo >= a->ops[0]->width)
    return constant(0, width);
  // Extract aligned with one side of a concat.
  if (a->kind == Kind::kConcat) {
    unsigned lo_width = a->ops[1]->width;
    if (hi < lo_width) return extract(a->ops[1], hi, lo);
    if (lo >= lo_width) return extract(a->ops[0], hi - lo_width, lo - lo_width);
  }
  return intern(Kind::kExtract, width, 0, 0, hi, lo, a);
}

ExprRef Context::zext(ExprRef a, unsigned to_width) {
  assert(to_width >= a->width);
  if (to_width == a->width) return a;
  if (a->is_const()) return constant(a->constant, to_width);
  if (a->kind == Kind::kZExt) return zext(a->ops[0], to_width);
  return intern(Kind::kZExt, to_width, 0, 0, 0, 0, a);
}

ExprRef Context::sext(ExprRef a, unsigned to_width) {
  assert(to_width >= a->width);
  if (to_width == a->width) return a;
  if (a->is_const())
    return constant(binsym::sext(a->constant, a->width, to_width), to_width);
  if (a->kind == Kind::kSExt) return sext(a->ops[0], to_width);
  return intern(Kind::kSExt, to_width, 0, 0, 0, 0, a);
}

ExprRef Context::binary(Kind kind, ExprRef a, ExprRef b) {
  assert(a->width == b->width && "binary operands must share a width");
  unsigned width = is_comparison(kind) ? 1 : a->width;
  if (a->is_const() && b->is_const()) {
    uint64_t x = a->constant, y = b->constant;
    unsigned w = a->width;
    uint64_t r = 0;
    switch (kind) {
      case Kind::kAdd:  r = truncate(x + y, w); break;
      case Kind::kSub:  r = truncate(x - y, w); break;
      case Kind::kMul:  r = truncate(x * y, w); break;
      case Kind::kUDiv: r = udiv_bv(x, y, w); break;
      case Kind::kURem: r = urem_bv(x, y, w); break;
      case Kind::kSDiv: r = sdiv_bv(x, y, w); break;
      case Kind::kSRem: r = srem_bv(x, y, w); break;
      case Kind::kAnd:  r = x & y; break;
      case Kind::kOr:   r = x | y; break;
      case Kind::kXor:  r = x ^ y; break;
      case Kind::kShl:  r = shl_bv(x, y, w); break;
      case Kind::kLShr: r = lshr_bv(x, y, w); break;
      case Kind::kAShr: r = ashr_bv(x, y, w); break;
      case Kind::kEq:   r = x == y; break;
      case Kind::kUlt:  r = x < y; break;
      case Kind::kUle:  r = x <= y; break;
      case Kind::kSlt:  r = to_signed(x, w) < to_signed(y, w); break;
      case Kind::kSle:  r = to_signed(x, w) <= to_signed(y, w); break;
      default: assert(false && "not a foldable binary kind"); break;
    }
    return constant(r, width);
  }
  return intern(kind, width, 0, 0, 0, 0, a, b);
}

ExprRef Context::add(ExprRef a, ExprRef b) {
  if (a->is_const_val(0)) return b;
  if (b->is_const_val(0)) return a;
  // Canonicalize constants to the right so `(x + 1) + 2` style chains fold.
  if (a->is_const() && !b->is_const()) std::swap(a, b);
  if (b->is_const() && a->kind == Kind::kAdd && a->ops[1]->is_const())
    return add(a->ops[0], constant(a->ops[1]->constant + b->constant, b->width));
  return binary(Kind::kAdd, a, b);
}

ExprRef Context::sub(ExprRef a, ExprRef b) {
  if (b->is_const_val(0)) return a;
  if (a == b) return constant(0, a->width);
  if (b->is_const()) return add(a, constant(~b->constant + 1, b->width));
  return binary(Kind::kSub, a, b);
}

ExprRef Context::mul(ExprRef a, ExprRef b) {
  if (a->is_const() && !b->is_const()) std::swap(a, b);
  if (b->is_const_val(0)) return b;
  if (b->is_const_val(1)) return a;
  return binary(Kind::kMul, a, b);
}

ExprRef Context::udiv(ExprRef a, ExprRef b) {
  if (b->is_const_val(1)) return a;
  return binary(Kind::kUDiv, a, b);
}

ExprRef Context::urem(ExprRef a, ExprRef b) { return binary(Kind::kURem, a, b); }
ExprRef Context::sdiv(ExprRef a, ExprRef b) { return binary(Kind::kSDiv, a, b); }
ExprRef Context::srem(ExprRef a, ExprRef b) { return binary(Kind::kSRem, a, b); }

ExprRef Context::and_(ExprRef a, ExprRef b) {
  if (a == b) return a;
  if (a->is_const() && !b->is_const()) std::swap(a, b);
  if (b->is_const_val(0)) return b;
  if (b->is_const_val(mask_bits(a->width))) return a;
  return binary(Kind::kAnd, a, b);
}

ExprRef Context::or_(ExprRef a, ExprRef b) {
  if (a == b) return a;
  if (a->is_const() && !b->is_const()) std::swap(a, b);
  if (b->is_const_val(0)) return a;
  if (b->is_const_val(mask_bits(a->width))) return b;
  return binary(Kind::kOr, a, b);
}

ExprRef Context::xor_(ExprRef a, ExprRef b) {
  if (a == b) return constant(0, a->width);
  if (a->is_const() && !b->is_const()) std::swap(a, b);
  if (b->is_const_val(0)) return a;
  if (b->is_const_val(mask_bits(a->width))) return not_(a);
  return binary(Kind::kXor, a, b);
}

ExprRef Context::shl(ExprRef a, ExprRef amount) {
  if (amount->is_const_val(0)) return a;
  if (a->is_const_val(0)) return a;
  if (amount->is_const() && amount->constant >= a->width)
    return constant(0, a->width);
  return binary(Kind::kShl, a, amount);
}

ExprRef Context::lshr(ExprRef a, ExprRef amount) {
  if (amount->is_const_val(0)) return a;
  if (a->is_const_val(0)) return a;
  if (amount->is_const() && amount->constant >= a->width)
    return constant(0, a->width);
  return binary(Kind::kLShr, a, amount);
}

ExprRef Context::ashr(ExprRef a, ExprRef amount) {
  if (amount->is_const_val(0)) return a;
  return binary(Kind::kAShr, a, amount);
}

ExprRef Context::eq(ExprRef a, ExprRef b) {
  if (a == b) return bool_const(true);
  // Commutative, so a constant operand canonicalizes to the right at every
  // width (like add/mul/and/or/xor above); the simplifier's constant-chain
  // rules only need to match the `c == ops[1]` orientation.
  if (a->is_const() && !b->is_const()) std::swap(a, b);
  // Boolean equality against a constant reduces to identity / negation.
  if (a->width == 1 && b->is_const()) return b->constant ? a : not_(a);
  return binary(Kind::kEq, a, b);
}

ExprRef Context::ult(ExprRef a, ExprRef b) {
  if (a == b) return bool_const(false);
  if (b->is_const_val(0)) return bool_const(false);  // nothing is < 0
  if (a->is_const_val(0))
    return not_(eq(b, constant(0, b->width)));       // 0 < b  <=>  b != 0
  return binary(Kind::kUlt, a, b);
}

ExprRef Context::ule(ExprRef a, ExprRef b) {
  if (a == b) return bool_const(true);
  if (a->is_const_val(0)) return bool_const(true);
  if (b->is_const_val(mask_bits(b->width))) return bool_const(true);
  return binary(Kind::kUle, a, b);
}

ExprRef Context::slt(ExprRef a, ExprRef b) {
  if (a == b) return bool_const(false);
  return binary(Kind::kSlt, a, b);
}

ExprRef Context::sle(ExprRef a, ExprRef b) {
  if (a == b) return bool_const(true);
  return binary(Kind::kSle, a, b);
}

ExprRef Context::concat(ExprRef hi, ExprRef lo) {
  unsigned width = hi->width + lo->width;
  assert(width <= kMaxWidth);
  if (hi->is_const() && lo->is_const())
    return constant((hi->constant << lo->width) | lo->constant, width);
  if (hi->is_const_val(0)) return zext(lo, width);
  return intern(Kind::kConcat, width, 0, 0, 0, 0, hi, lo);
}

ExprRef Context::ite(ExprRef cond, ExprRef then_value, ExprRef else_value) {
  assert(cond->width == 1);
  assert(then_value->width == else_value->width);
  if (cond->is_const()) return cond->constant ? then_value : else_value;
  if (then_value == else_value) return then_value;
  if (cond->kind == Kind::kNot) return ite(cond->ops[0], else_value, then_value);
  // Boolean-valued ite reduces to connectives.
  if (then_value->width == 1) {
    if (then_value->is_true() && else_value->is_false()) return cond;
    if (then_value->is_false() && else_value->is_true()) return not_(cond);
  }
  return intern(Kind::kIte, then_value->width, 0, 0, 0, 0, cond, then_value,
                else_value);
}

}  // namespace binsym::smt
