#include "smt/eval.hpp"

#include <cassert>

#include "support/bits.hpp"

namespace binsym::smt {

namespace {

uint64_t apply(ExprRef node, const uint64_t* op) {
  unsigned w = node->width;
  switch (node->kind) {
    case Kind::kConst:   return node->constant;
    case Kind::kVar:     assert(false && "handled by caller"); return 0;
    case Kind::kNot:     return truncate(~op[0], w);
    case Kind::kNeg:     return truncate(~op[0] + 1, w);
    case Kind::kExtract: return extract_bits(op[0], node->aux0, node->aux1);
    case Kind::kZExt:    return op[0];
    case Kind::kSExt:    return sext(op[0], node->ops[0]->width, w);
    case Kind::kAdd:     return truncate(op[0] + op[1], w);
    case Kind::kSub:     return truncate(op[0] - op[1], w);
    case Kind::kMul:     return truncate(op[0] * op[1], w);
    case Kind::kUDiv:    return udiv_bv(op[0], op[1], w);
    case Kind::kURem:    return urem_bv(op[0], op[1], w);
    case Kind::kSDiv:    return sdiv_bv(op[0], op[1], w);
    case Kind::kSRem:    return srem_bv(op[0], op[1], w);
    case Kind::kAnd:     return op[0] & op[1];
    case Kind::kOr:      return op[0] | op[1];
    case Kind::kXor:     return op[0] ^ op[1];
    case Kind::kShl:     return shl_bv(op[0], op[1], w);
    case Kind::kLShr:    return lshr_bv(op[0], op[1], w);
    case Kind::kAShr:    return ashr_bv(op[0], op[1], node->ops[0]->width);
    case Kind::kEq:      return op[0] == op[1];
    case Kind::kUlt:     return op[0] < op[1];
    case Kind::kUle:     return op[0] <= op[1];
    case Kind::kSlt:
      return to_signed(op[0], node->ops[0]->width) <
             to_signed(op[1], node->ops[0]->width);
    case Kind::kSle:
      return to_signed(op[0], node->ops[0]->width) <=
             to_signed(op[1], node->ops[0]->width);
    case Kind::kConcat:
      return truncate((op[0] << node->ops[1]->width) | op[1], w);
    case Kind::kIte:     return op[0] ? op[1] : op[2];
  }
  return 0;
}

// The memo keys on the node's address, never on its content hash:
// satisfies() is the persistent store's guard against hash collisions, so
// it must not rest on hash uniqueness itself.
using Memo = std::unordered_map<ExprRef, uint64_t>;

void evaluate_into(ExprRef root, const Assignment& assignment, Memo& memo) {
  postorder(root, [&](ExprRef node) {
    if (memo.count(node)) return;
    uint64_t result;
    if (node->kind == Kind::kVar) {
      result = truncate(assignment.get(node->var_id), node->width);
    } else {
      uint64_t op[3] = {0, 0, 0};
      for (unsigned i = 0; i < node->num_ops; ++i)
        op[i] = memo.at(node->ops[i]);
      result = apply(node, op);
    }
    memo.emplace(node, result);
  });
}

}  // namespace

uint64_t evaluate(ExprRef root, const Assignment& assignment) {
  Memo memo;
  evaluate_into(root, assignment, memo);
  return memo.at(root);
}

bool satisfies(std::span<const ExprRef> assertions, const Assignment& model) {
  Memo memo;
  for (ExprRef assertion : assertions) {
    evaluate_into(assertion, model, memo);
    if (memo.at(assertion) != 1) return false;
  }
  return true;
}

}  // namespace binsym::smt
