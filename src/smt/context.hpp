// Expression context: owns all Expr nodes in a chunked arena and
// hash-conses them — structurally-equal nodes are pointer-equal at
// construction, so every downstream pass (NodeMarker traversals, slicing,
// query-cache keys) scales with the number of *distinct* subterms. Builders
// perform constant folding and local peephole simplification, so
// trivially-true branch conditions never reach the solver — this mirrors the
// "encode" step optimisations the paper's BINSEC baseline is credited with,
// and is shared by all engines here.
//
// Every node carries a 64-bit structural content hash, computed at
// construction from (kind, width, aux payload, constant, child hashes) —
// with kVar hashing the variable *name*, not its per-context id. The hash
// is therefore stable across contexts, which is what makes it usable as a
// query-cache key and as the address of the persistent content-addressed
// store (smt/store.hpp). Within one context it doubles as the intern-table
// probe hash. See docs/SMT.md.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "smt/expr.hpp"

namespace binsym::smt {

struct VarInfo {
  std::string name;
  unsigned width;
};

class Context {
 public:
  Context() = default;
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  // -- Leaves. ---------------------------------------------------------------

  /// Constant of `width` bits; `value` is truncated to canonical form.
  ExprRef constant(uint64_t value, unsigned width);
  ExprRef bool_const(bool value) { return constant(value ? 1 : 0, 1); }

  /// Named free variable. Calling twice with the same name returns the same
  /// node (the name is the identity, as in SMT-LIB).
  ExprRef var(const std::string& name, unsigned width);

  /// Fresh variable with a unique generated name built from `prefix`.
  ExprRef fresh_var(const std::string& prefix, unsigned width);

  /// The node for an already-declared variable, or nullptr if the name is
  /// unknown (the persistent store's model lookup).
  ExprRef lookup_var(const std::string& name) const;

  const VarInfo& var_info(uint32_t var_id) const { return vars_[var_id]; }
  size_t num_vars() const { return vars_.size(); }
  size_t num_nodes() const { return num_nodes_; }

  /// Builder calls answered from the intern table instead of allocating.
  uint64_t intern_hits() const { return intern_hits_; }

  /// Bytes held by the node arena and the intern table.
  size_t arena_bytes() const;

  // -- Unary. ------------------------------------------------------------------

  ExprRef not_(ExprRef a);
  ExprRef neg(ExprRef a);
  ExprRef extract(ExprRef a, unsigned hi, unsigned lo);
  ExprRef zext(ExprRef a, unsigned to_width);
  ExprRef sext(ExprRef a, unsigned to_width);

  // -- Binary (operands must share a width). -----------------------------------

  ExprRef add(ExprRef a, ExprRef b);
  ExprRef sub(ExprRef a, ExprRef b);
  ExprRef mul(ExprRef a, ExprRef b);
  ExprRef udiv(ExprRef a, ExprRef b);
  ExprRef urem(ExprRef a, ExprRef b);
  ExprRef sdiv(ExprRef a, ExprRef b);
  ExprRef srem(ExprRef a, ExprRef b);
  ExprRef and_(ExprRef a, ExprRef b);
  ExprRef or_(ExprRef a, ExprRef b);
  ExprRef xor_(ExprRef a, ExprRef b);
  ExprRef shl(ExprRef a, ExprRef amount);
  ExprRef lshr(ExprRef a, ExprRef amount);
  ExprRef ashr(ExprRef a, ExprRef amount);

  // -- Comparisons (width-1 result). --------------------------------------------

  ExprRef eq(ExprRef a, ExprRef b);
  ExprRef ne(ExprRef a, ExprRef b) { return not_(eq(a, b)); }
  ExprRef ult(ExprRef a, ExprRef b);
  ExprRef ule(ExprRef a, ExprRef b);
  ExprRef ugt(ExprRef a, ExprRef b) { return ult(b, a); }
  ExprRef uge(ExprRef a, ExprRef b) { return ule(b, a); }
  ExprRef slt(ExprRef a, ExprRef b);
  ExprRef sle(ExprRef a, ExprRef b);
  ExprRef sgt(ExprRef a, ExprRef b) { return slt(b, a); }
  ExprRef sge(ExprRef a, ExprRef b) { return sle(b, a); }

  // -- Structure. ----------------------------------------------------------------

  /// Concatenation; `hi` supplies the upper bits. Result width is the sum.
  ExprRef concat(ExprRef hi, ExprRef lo);
  ExprRef ite(ExprRef cond, ExprRef then_value, ExprRef else_value);

  // -- Boolean sugar over width-1 vectors. -----------------------------------------

  ExprRef logical_and(ExprRef a, ExprRef b) { return and_(a, b); }
  ExprRef logical_or(ExprRef a, ExprRef b) { return or_(a, b); }

 private:
  // 1024 nodes per arena block: blocks never move, so ExprRef pointers are
  // stable for the lifetime of the context.
  static constexpr size_t kBlockShift = 10;
  static constexpr size_t kBlockSize = size_t{1} << kBlockShift;

  Expr* node_at(uint32_t id) {
    size_t index = id - 1;  // ids are 1-based; 0 is reserved for "no op"
    return &blocks_[index >> kBlockShift][index & (kBlockSize - 1)];
  }

  ExprRef intern(Kind kind, unsigned width, uint64_t constant, uint32_t var_id,
                 uint32_t aux0, uint32_t aux1, ExprRef a = nullptr,
                 ExprRef b = nullptr, ExprRef c = nullptr);

  ExprRef binary(Kind kind, ExprRef a, ExprRef b);

  void grow_table();

  std::vector<std::unique_ptr<Expr[]>> blocks_;
  size_t num_nodes_ = 0;
  // Open-addressing intern table of node ids (0 = empty slot), probed by
  // the stored content hash; power-of-two sized. Slot equality compares
  // the structural key directly — children are interned first, so child
  // *pointers* are the canonical child identity.
  std::vector<uint32_t> table_;
  size_t table_used_ = 0;
  uint64_t intern_hits_ = 0;
  std::vector<VarInfo> vars_;
  std::vector<ExprRef> var_nodes_;  // one node per name
  std::unordered_map<std::string, uint32_t> var_by_name_;
  uint64_t fresh_counter_ = 0;
};

}  // namespace binsym::smt
