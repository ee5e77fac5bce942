// Bit-blasting: expression DAGs -> CNF over the CDCL solver.
//
// Tseitin encoding with structural memoization per node. Every clause the
// blaster adds defines a fresh literal from older ones and holds for any
// value of the context variables, so the clauses of every node blasted
// so far stay in the solver for good: a node shared between questions is
// blasted once, and a question is posed as assumption literals
// (see sat_solver_backend.cpp). Arithmetic uses
// ripple-carry adders and shift-add multipliers; comparisons are the carry
// chain of a - b alone, one majority gate per bit; shifts are barrel
// networks with SMT saturation semantics; division introduces fresh
// quotient/remainder vectors constrained by the multiplication identity
// (guarded for the divisor==0 special cases); signed division/remainder
// are built from the unsigned circuits via sign/magnitude conversion,
// matching SMT-LIB exactly.
#pragma once

#include <unordered_map>
#include <vector>

#include "smt/context.hpp"
#include "smt/eval.hpp"
#include "smt/expr.hpp"
#include "smt/sat/cdcl.hpp"

namespace binsym::smt::sat {

class BitBlaster {
 public:
  explicit BitBlaster(CdclSolver& solver);

  /// The literal that is true exactly when width-1 `expr` is 1, blasting
  /// whatever part of its DAG is not blasted yet.
  Lit literal(ExprRef expr);

  /// After a kSat solve(): read back the value of a context variable.
  uint64_t var_value(uint32_t var_id, unsigned width) const;

  /// Variables that received CNF bits (for model extraction).
  const std::unordered_map<uint32_t, std::vector<Lit>>& vars() const {
    return var_bits_;
  }

 private:
  using Bits = std::vector<Lit>;  // LSB first

  // -- gate layer -------------------------------------------------------------

  Lit lit_true() const { return true_lit_; }
  Lit lit_false() const { return lit_not(true_lit_); }
  bool is_const(Lit lit, bool value) const {
    return lit == (value ? true_lit_ : lit_not(true_lit_));
  }

  // Fresh literals. Only inputs (variable bits, division quotients and
  // remainders) are CDCL decision variables: once every input is assigned,
  // unit propagation through the gate clauses assigns every gate output.
  Lit input();
  Lit gate();
  void clause(std::vector<Lit> lits);

  Lit g_and(Lit a, Lit b);
  Lit g_or(Lit a, Lit b);
  Lit g_xor(Lit a, Lit b);
  Lit g_mux(Lit sel, Lit then_lit, Lit else_lit);
  Lit g_maj(Lit a, Lit b, Lit c);  // true iff at least two inputs are
  Lit g_and_all(const Bits& lits);
  Lit g_or_all(const Bits& lits);

  // -- word layer -------------------------------------------------------------

  Bits constant_bits(uint64_t value, unsigned width);
  Bits adder(const Bits& a, const Bits& b, Lit carry_in);
  Bits negate(const Bits& a);
  Bits multiply(const Bits& a, const Bits& b);
  Bits mux_word(Lit sel, const Bits& then_bits, const Bits& else_bits);
  Lit equals(const Bits& a, const Bits& b);
  Lit unsigned_less(const Bits& a, const Bits& b);   // a < b
  Lit signed_less(const Bits& a, const Bits& b);
  Bits shift(const Bits& a, const Bits& amount, Kind kind);
  void divide(const Bits& a, const Bits& b, Bits* quotient, Bits* remainder);

  // -- expression layer ---------------------------------------------------------

  const Bits& blast(ExprRef expr);
  Bits blast_node(ExprRef expr);

  CdclSolver& solver_;
  Lit true_lit_;
  std::unordered_map<uint32_t, Bits> memo_;      // expr id -> bits
  std::unordered_map<uint32_t, Bits> var_bits_;  // context var id -> bits
};

}  // namespace binsym::smt::sat
