#include "smt/smtlib.hpp"

#include <sstream>
#include <unordered_map>

#include "support/format.hpp"

namespace binsym::smt {

namespace {

/// Width-1 bitvector constants print as #b0/#b1 for readability; wider
/// non-nibble widths use #b as well since #x needs a multiple of four bits.
std::string const_text(uint64_t value, unsigned width) {
  if (width % 4) return "#b" + bin_bv(value, width);
  return "#x" + hex_bv(value, width);
}

/// Builds the body string of one expression; shared sub-DAGs are referenced
/// through let-bound names instead of being inlined.
class Renderer {
 public:
  explicit Renderer(const Context& ctx) : ctx_(ctx) {}

  /// Compute reference counts under all roots (for let-extraction).
  void count_refs(const std::vector<ExprRef>& roots) {
    std::unordered_map<uint32_t, bool> seen;
    for (ExprRef root : roots) {
      if (seen.count(root->id)) {
        ++refs_[root->id];
        continue;
      }
      postorder(root, [&](ExprRef node) {
        seen.emplace(node->id, true);
        for (unsigned i = 0; i < node->num_ops; ++i) ++refs_[node->ops[i]->id];
      });
      ++refs_[root->id];
    }
  }

  /// Emit `root`, reusing let bindings created by earlier calls. Bindings
  /// shared between assertions must therefore be emitted by a caller that
  /// wraps all assertions in one binding scope; `take_bindings` returns the
  /// accumulated (name, definition) list in dependency order.
  std::string render(ExprRef root) {
    std::string out;
    postorder(root, [&](ExprRef node) {
      if (body_.count(node->id)) return;
      std::string text = node_text(node);
      if (node->num_ops > 0 && refs_[node->id] > 1) {
        // Sequential binding-order names, not node ids: the printed text
        // depends only on the DAG's structure and sharing, never on
        // per-context allocation order.
        std::string name = "?e" + std::to_string(bindings_.size());
        bindings_.emplace_back(name, text);
        body_.emplace(node->id, name);
      } else {
        body_.emplace(node->id, std::move(text));
      }
    });
    return body_.at(root->id);
  }

  const std::vector<std::pair<std::string, std::string>>& bindings() const {
    return bindings_;
  }

 private:
  std::string node_text(ExprRef node) {
    switch (node->kind) {
      case Kind::kConst:
        return const_text(node->constant, node->width);
      case Kind::kVar:
        return ctx_.var_info(node->var_id).name;
      case Kind::kExtract:
        return strprintf("((_ extract %u %u) %s)", node->aux0, node->aux1,
                         op(node, 0).c_str());
      case Kind::kZExt:
        return strprintf("((_ zero_extend %u) %s)",
                         node->width - node->ops[0]->width,
                         op(node, 0).c_str());
      case Kind::kSExt:
        return strprintf("((_ sign_extend %u) %s)",
                         node->width - node->ops[0]->width,
                         op(node, 0).c_str());
      case Kind::kIte:
        // The width-1 condition needs a Bool coercion.
        return "(ite (= " + op(node, 0) + " #b1) " + op(node, 1) + " " +
               op(node, 2) + ")";
      default: {
        std::string out = std::string("(") + kind_name(node->kind);
        for (unsigned i = 0; i < node->num_ops; ++i) out += " " + op(node, i);
        out += ")";
        // Comparisons are Bool-sorted in SMT-LIB but width-1 bitvectors in
        // this algebra; re-embed them so every operator stays well-sorted.
        if (is_comparison(node->kind)) out = "(ite " + out + " #b1 #b0)";
        return out;
      }
    }
  }

  std::string op(ExprRef node, unsigned i) {
    return body_.at(node->ops[i]->id);
  }

  const Context& ctx_;
  std::unordered_map<uint32_t, unsigned> refs_;
  std::unordered_map<uint32_t, std::string> body_;
  std::vector<std::pair<std::string, std::string>> bindings_;
};

std::string wrap_lets(
    const std::vector<std::pair<std::string, std::string>>& bindings,
    const std::string& body) {
  std::string out;
  for (const auto& [name, def] : bindings)
    out += "(let ((" + name + " " + def + ")) ";
  out += body;
  out.append(bindings.size(), ')');
  return out;
}

}  // namespace

std::string to_smtlib(const Context& ctx, ExprRef root) {
  Renderer renderer(ctx);
  renderer.count_refs({root});
  std::string body = renderer.render(root);
  return wrap_lets(renderer.bindings(), body);
}

void print_query(std::ostream& os, const Context& ctx,
                 const std::vector<ExprRef>& assertions, bool with_check_sat) {
  os << "(set-logic QF_BV)\n";
  for (uint32_t var_id : collect_vars(assertions)) {
    const VarInfo& info = ctx.var_info(var_id);
    os << "(declare-const " << info.name << " (_ BitVec " << info.width
       << "))\n";
  }
  // One binding scope per assertion keeps queries independent and valid.
  for (ExprRef assertion : assertions) {
    Renderer renderer(ctx);
    renderer.count_refs({assertion});
    std::string body = renderer.render(assertion);
    // Width-1 bitvectors model booleans; assert needs a Bool sort.
    std::string boolified = "(= " + body + " #b1)";
    os << "(assert " << wrap_lets(renderer.bindings(), boolified) << ")\n";
  }
  if (with_check_sat) os << "(check-sat)\n";
}

std::string query_string(const Context& ctx,
                         const std::vector<ExprRef>& assertions,
                         bool with_check_sat) {
  std::ostringstream os;
  print_query(os, ctx, assertions, with_check_sat);
  return os.str();
}

}  // namespace binsym::smt
