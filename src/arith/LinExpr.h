//===- arith/LinExpr.h - Linear integer expressions ------------*- C++ -*-===//
//
// Part of the hiptntpp project: a reproduction of "Termination and
// Non-Termination Specification Inference" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Linear expressions sum(ci * vi) + c over pooled variables (VarIds,
/// see arith/Var.h) with 64-bit integer coefficients: the `e`
/// production of the specification language (Fig. 2) and the currency
/// of the Omega solver, the Farkas encoder and ranking measures. A
/// LinExpr is a plain value; of the arithmetic terms only formula nodes
/// are hash-consed (arith/Intern.h).
///
//===----------------------------------------------------------------------===//

#ifndef TNT_ARITH_LINEXPR_H
#define TNT_ARITH_LINEXPR_H

#include "arith/Var.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace tnt {

/// An immutable-by-convention linear integer expression. Coefficients are
/// kept sparse and non-zero; a defaulted LinExpr is the constant 0.
class LinExpr {
public:
  LinExpr() : Const(0) {}
  /// The constant expression \p C.
  explicit LinExpr(int64_t C) : Const(C) {}

  /// The expression Coeff * V.
  static LinExpr var(VarId V, int64_t Coeff = 1);
  static LinExpr constant(int64_t C) { return LinExpr(C); }

  int64_t constant() const { return Const; }
  int64_t coeff(VarId V) const;
  const std::map<VarId, int64_t> &coeffs() const { return Coeffs; }

  bool isConstant() const { return Coeffs.empty(); }
  bool isZero() const { return Coeffs.empty() && Const == 0; }

  LinExpr operator+(const LinExpr &O) const;
  LinExpr operator-(const LinExpr &O) const;
  LinExpr operator-() const;
  LinExpr operator*(int64_t K) const;
  LinExpr operator+(int64_t K) const { return *this + LinExpr(K); }
  LinExpr operator-(int64_t K) const { return *this - LinExpr(K); }

  bool operator==(const LinExpr &O) const {
    return Const == O.Const && Coeffs == O.Coeffs;
  }
  bool operator!=(const LinExpr &O) const { return !(*this == O); }
  /// Total order for use as a container key; no semantic meaning.
  bool operator<(const LinExpr &O) const;

  /// Substitutes \p Repl for every occurrence of \p V.
  LinExpr substitute(VarId V, const LinExpr &Repl) const;
  /// Simultaneous variable renaming.
  LinExpr rename(const std::map<VarId, VarId> &Renaming) const;

  /// Adds the variables of this expression to \p Out.
  void collectVars(std::set<VarId> &Out) const;
  bool mentions(VarId V) const { return Coeffs.count(V) != 0; }

  /// GCD of all variable coefficients (0 if constant).
  int64_t coeffGcd() const;

  /// Evaluates under a total assignment; missing variables default to 0.
  /// The sum is taken in 128 bits and clamped to the int64 range, so a
  /// value too large for int64 keeps its sign (and every constraint over
  /// it its truth value) instead of wrapping.
  int64_t eval(const std::map<VarId, int64_t> &Assign) const;

  /// Structural hash, consistent with operator== (feeds the structural
  /// hash of atom formula nodes).
  size_t hashValue() const;

  std::string str() const;

private:
  std::map<VarId, int64_t> Coeffs;
  int64_t Const;
};

/// Simultaneous substitution Params[j] := Args[j]; capture-safe even when
/// the argument expressions mention the parameters themselves.
LinExpr substParallelExpr(const LinExpr &E, const std::vector<VarId> &Params,
                          const std::vector<LinExpr> &Args);

} // namespace tnt

#endif // TNT_ARITH_LINEXPR_H
