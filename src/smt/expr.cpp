#include "smt/expr.hpp"

#include <algorithm>

namespace binsym::smt {

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kConst:   return "const";
    case Kind::kVar:     return "var";
    case Kind::kNot:     return "bvnot";
    case Kind::kNeg:     return "bvneg";
    case Kind::kExtract: return "extract";
    case Kind::kZExt:    return "zero_extend";
    case Kind::kSExt:    return "sign_extend";
    case Kind::kAdd:     return "bvadd";
    case Kind::kSub:     return "bvsub";
    case Kind::kMul:     return "bvmul";
    case Kind::kUDiv:    return "bvudiv";
    case Kind::kURem:    return "bvurem";
    case Kind::kSDiv:    return "bvsdiv";
    case Kind::kSRem:    return "bvsrem";
    case Kind::kAnd:     return "bvand";
    case Kind::kOr:      return "bvor";
    case Kind::kXor:     return "bvxor";
    case Kind::kShl:     return "bvshl";
    case Kind::kLShr:    return "bvlshr";
    case Kind::kAShr:    return "bvashr";
    case Kind::kEq:      return "=";
    case Kind::kUlt:     return "bvult";
    case Kind::kUle:     return "bvule";
    case Kind::kSlt:     return "bvslt";
    case Kind::kSle:     return "bvsle";
    case Kind::kConcat:  return "concat";
    case Kind::kIte:     return "ite";
  }
  return "?";
}

unsigned kind_arity(Kind kind) {
  switch (kind) {
    case Kind::kConst:
    case Kind::kVar:
      return 0;
    case Kind::kNot:
    case Kind::kNeg:
    case Kind::kExtract:
    case Kind::kZExt:
    case Kind::kSExt:
      return 1;
    case Kind::kIte:
      return 3;
    default:
      return 2;
  }
}

bool is_comparison(Kind kind) {
  switch (kind) {
    case Kind::kEq:
    case Kind::kUlt:
    case Kind::kUle:
    case Kind::kSlt:
    case Kind::kSle:
      return true;
    default:
      return false;
  }
}

size_t node_count(ExprRef root) {
  size_t n = 0;
  postorder(root, [&](ExprRef) { ++n; });
  return n;
}

size_t node_count(std::span<const ExprRef> roots) {
  size_t n = 0;
  NodeMarker marker;
  for (ExprRef root : roots) {
    if (!root) continue;
    postorder(root, marker, [&](ExprRef) { ++n; });
  }
  return n;
}

std::vector<uint32_t> collect_vars(std::span<const ExprRef> roots) {
  std::vector<uint32_t> vars;
  NodeMarker marker;
  for (ExprRef root : roots) {
    if (!root) continue;
    postorder(root, marker, [&](ExprRef node) {
      if (node->kind == Kind::kVar) vars.push_back(node->var_id);
    });
  }
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  return vars;
}

void collect_vars_into(ExprRef root, NodeMarker& marker,
                       std::vector<uint32_t>& out) {
  postorder(root, marker, [&](ExprRef node) {
    if (node->kind == Kind::kVar) out.push_back(node->var_id);
  });
}

}  // namespace binsym::smt
