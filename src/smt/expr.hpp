// Hash-consed bitvector expression DAG.
//
// This is the "symbolic expression" layer of Fig. 1 in the paper: the target
// of the `encode` step. Expressions are immutable, interned in a Context
// (structural equality == pointer equality), and carry an explicit width in
// [1, 64]. Booleans are width-1 bitvectors, which keeps the algebra uniform
// and matches how the engine mixes data and control expressions.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace binsym::smt {

enum class Kind : uint8_t {
  // Leaves.
  kConst,
  kVar,
  // Unary.
  kNot,      // bitwise complement (logical not for width 1)
  kNeg,      // two's complement negation
  kExtract,  // bits [aux0:aux1] inclusive
  kZExt,     // zero-extend to `width`
  kSExt,     // sign-extend to `width`
  // Binary arithmetic (operands and result share a width).
  kAdd,
  kSub,
  kMul,
  kUDiv,
  kURem,
  kSDiv,
  kSRem,
  // Binary bitwise / shifts (SMT shift semantics: amount >= width saturates).
  kAnd,
  kOr,
  kXor,
  kShl,
  kLShr,
  kAShr,
  // Comparisons (result width 1).
  kEq,
  kUlt,
  kUle,
  kSlt,
  kSle,
  // Structure.
  kConcat,  // ops[0] becomes the high part
  kIte,     // ops[0] width-1 condition
};

const char* kind_name(Kind kind);
unsigned kind_arity(Kind kind);
bool is_comparison(Kind kind);

struct Expr;
using ExprRef = const Expr*;

struct Expr {
  Kind kind;
  uint8_t width;     // result width in bits
  uint8_t num_ops;   // 0..3
  uint32_t id;       // dense per-context id, usable as a map key
  uint64_t hash;     // structural content hash; see Context for the contract
  uint64_t constant; // kConst payload (canonical for `width`)
  uint32_t var_id;   // kVar payload: index into Context's variable table
  uint32_t aux0;     // kExtract: hi
  uint32_t aux1;     // kExtract: lo
  ExprRef ops[3];

  bool is_const() const { return kind == Kind::kConst; }
  bool is_const_val(uint64_t v) const { return is_const() && constant == v; }
  bool is_true() const { return width == 1 && is_const_val(1); }
  bool is_false() const { return width == 1 && is_const_val(0); }
};

/// Dense visited-set over per-context node ids. Ids are small and dense
/// (Context hands them out sequentially), so a bit vector beats a hash set
/// by a wide margin on the traversal hot paths; `clear()` is O(set bits),
/// so one marker can be reused across many traversals without re-zeroing
/// (or re-allocating) the whole table.
class NodeMarker {
 public:
  bool test(uint32_t id) const { return id < bits_.size() && bits_[id]; }

  void set(uint32_t id) {
    if (id >= bits_.size()) bits_.resize(id + 1);
    if (!bits_[id]) {
      bits_[id] = true;
      touched_.push_back(id);
    }
  }

  void clear() {
    for (uint32_t id : touched_) bits_[id] = false;
    touched_.clear();
  }

  size_t num_set() const { return touched_.size(); }

 private:
  std::vector<bool> bits_;
  std::vector<uint32_t> touched_;
};

/// Iterative post-order traversal over the DAG rooted at `root`; `visit` is
/// called exactly once per node not already set in `marker`, children first,
/// and marks every visited node. Iterative so that the deep expression
/// chains produced by long concolic runs cannot overflow the native stack.
/// Passing one marker across several calls skips shared sub-DAGs.
template <typename F>
void postorder(ExprRef root, NodeMarker& marker, F&& visit) {
  std::vector<std::pair<ExprRef, bool>> stack;
  stack.emplace_back(root, false);
  while (!stack.empty()) {
    auto [node, expanded] = stack.back();
    stack.pop_back();
    if (marker.test(node->id)) continue;
    if (expanded) {
      marker.set(node->id);
      visit(node);
      continue;
    }
    stack.emplace_back(node, true);
    for (unsigned i = 0; i < node->num_ops; ++i)
      if (!marker.test(node->ops[i]->id))
        stack.emplace_back(node->ops[i], false);
  }
}

template <typename F>
void postorder(ExprRef root, F&& visit) {
  NodeMarker marker;
  postorder(root, marker, std::forward<F>(visit));
}

/// Number of distinct nodes reachable from `root` (query-complexity metric
/// used by the SMT ablation benchmark).
size_t node_count(ExprRef root);

/// Distinct nodes reachable from any of `roots` (shared sub-DAGs counted
/// once) — the effective size of a multi-assertion solver query.
size_t node_count(std::span<const ExprRef> roots);

/// Collect the distinct variable ids reachable from each root, sorted.
std::vector<uint32_t> collect_vars(std::span<const ExprRef> roots);
inline std::vector<uint32_t> collect_vars(const std::vector<ExprRef>& roots) {
  return collect_vars(std::span<const ExprRef>(roots));
}

/// collect_vars for a single root, appending into `out` (unsorted, distinct
/// per call) and reusing `marker` scratch space; the slicer's inner loop.
void collect_vars_into(ExprRef root, NodeMarker& marker,
                       std::vector<uint32_t>& out);

}  // namespace binsym::smt
