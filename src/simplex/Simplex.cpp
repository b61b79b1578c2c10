//===- simplex/Simplex.cpp ------------------------------------*- C++ -*-===//

#include "simplex/Simplex.h"

using namespace tnt;

LVar Simplex::addVar(const std::string &Name, bool NonNeg) {
  VarInfo VI;
  VI.Name = Name;
  VI.NonNeg = NonNeg;
  Vars.push_back(VI);
  return static_cast<LVar>(Vars.size() - 1);
}

void Simplex::addRow(const std::vector<LinTerm> &Terms, LpRel Rel,
                     const Rational &Rhs) {
  Rows.push_back({Terms, Rel, Rhs});
}

Rational Simplex::value(LVar V) const {
  auto It = Solution.find(V);
  return It == Solution.end() ? Rational(0) : It->second;
}

namespace {

/// Dense tableau in "dictionary" style: basic variable per row, the
/// matrix holds the coefficients of non-basic columns after elimination.
struct Tableau {
  size_t M;         // rows
  size_t TotalCols; // structural + slack + artificial columns
  std::vector<std::vector<Rational>> A; // M x TotalCols
  std::vector<Rational> B;              // M
  std::vector<size_t> Basis;            // M, column index of basic var
  /// The nonzero columns of the last pivot row.
  std::vector<size_t> PivotCols;

  /// Pivots on (Row, Col): Col enters the basis, Basis[Row] leaves. A
  /// column where the pivot row is zero would only subtract an exact
  /// zero, so the update visits the pivot row's nonzero columns alone.
  void pivot(size_t Row, size_t Col) {
    std::vector<Rational> &R = A[Row];
    Rational P = R[Col];
    PivotCols.clear();
    for (size_t J = 0; J < TotalCols; ++J)
      if (!R[J].isZero()) {
        R[J] /= P;
        PivotCols.push_back(J);
      }
    B[Row] /= P;
    for (size_t I = 0; I < M; ++I) {
      if (I == Row)
        continue;
      Rational F = A[I][Col];
      if (F.isZero())
        continue;
      for (size_t J : PivotCols)
        A[I][J] -= F * R[J];
      B[I] -= F * B[Row];
    }
    Basis[Row] = Col;
  }

  /// Phase 1: primal simplex with Bland's rule on the reduced objective
  /// Z (one entry per column), whose value Z0 is minus the sum of the
  /// artificials. Stops at Z0 == 0: the basic solution is then
  /// feasible, and every pivot a longer run would still make — further
  /// phase-1 steps and those driving zero artificials out of the basis —
  /// is degenerate, so the vertex is the one a longer run would return.
  /// Also stops when \p Overflow trips.
  void optimize(std::vector<Rational> &Z, Rational &Z0,
                const OverflowScope &Overflow) {
    // Make the objective consistent with the current basis: eliminate
    // basic columns from Z.
    for (size_t I = 0; I < M; ++I) {
      Rational F = Z[Basis[I]];
      if (F.isZero())
        continue;
      for (size_t J = 0; J < TotalCols; ++J)
        if (!A[I][J].isZero())
          Z[J] -= F * A[I][J];
      Z0 += F * B[I];
    }
    while (!Z0.isZero() && !Overflow.overflowed()) {
      // Bland: the lowest-index column with positive reduced cost.
      size_t Enter = TotalCols;
      for (size_t J = 0; J < TotalCols; ++J)
        if (Z[J].isPos()) {
          Enter = J;
          break;
        }
      if (Enter == TotalCols)
        return; // Optimal below zero: infeasible.
      // Ratio test, Bland tie-break on basic variable index.
      size_t Leave = M;
      Rational BestRatio;
      for (size_t I = 0; I < M; ++I) {
        if (!A[I][Enter].isPos())
          continue;
        Rational Ratio = B[I] / A[I][Enter];
        if (Leave == M || Ratio < BestRatio ||
            (Ratio == BestRatio && Basis[I] < Basis[Leave])) {
          Leave = I;
          BestRatio = Ratio;
        }
      }
      // No leaving row would make the objective unbounded, but it is
      // bounded above by zero; Z0 < 0 then reads as infeasible.
      if (Leave == M)
        return;
      pivot(Leave, Enter);
      // Maintain reduced costs.
      Rational F = Z[Enter];
      for (size_t J : PivotCols)
        Z[J] -= F * A[Leave][J];
      Z0 += F * B[Leave];
    }
  }
};

} // namespace

Simplex::Result Simplex::checkFeasible() {
  Solution.clear();
  OverflowScope Overflow;

  // Column layout: per-variable columns, then one slack per inequality
  // row, then one artificial per row.
  size_t NextCol = 0;
  for (VarInfo &V : Vars) {
    V.Pos = NextCol++;
    if (!V.NonNeg)
      V.Neg = NextCol++;
  }
  size_t NumSlacks = 0;
  for (const RowInfo &R : Rows)
    if (R.Rel != LpRel::Eq)
      ++NumSlacks;
  size_t SlackBase = NextCol;
  size_t StructCols = NextCol + NumSlacks;
  size_t M = Rows.size();
  size_t ArtBase = StructCols;
  size_t TotalCols = StructCols + M;

  Tableau T;
  T.M = M;
  T.TotalCols = TotalCols;
  T.A.assign(M, std::vector<Rational>(TotalCols, Rational(0)));
  T.B.assign(M, Rational(0));
  T.Basis.assign(M, 0);

  size_t SlackIdx = 0;
  for (size_t I = 0; I < M; ++I) {
    const RowInfo &R = Rows[I];
    std::vector<Rational> &Row = T.A[I];
    for (const LinTerm &Term : R.Terms) {
      const VarInfo &V = Vars[Term.Var];
      Row[V.Pos] += Term.Coef;
      if (!V.NonNeg)
        Row[V.Neg] -= Term.Coef;
    }
    if (R.Rel == LpRel::Le)
      Row[SlackBase + SlackIdx++] = Rational(1);
    else if (R.Rel == LpRel::Ge)
      Row[SlackBase + SlackIdx++] = Rational(-1);
    // Normalize to Rhs >= 0 for the artificial basis.
    T.B[I] = R.Rhs;
    if (R.Rhs.isNeg()) {
      for (size_t J = 0; J < StructCols; ++J)
        Row[J] = -Row[J];
      T.B[I] = -R.Rhs;
    }
    Row[ArtBase + I] = Rational(1);
    T.Basis[I] = ArtBase + I;
  }

  // Phase 1: maximize -(sum of artificials).
  std::vector<Rational> Z(TotalCols, Rational(0));
  for (size_t I = 0; I < M; ++I)
    Z[ArtBase + I] = Rational(-1);
  Rational Z0(0);
  T.optimize(Z, Z0, Overflow);
  if (Overflow.overflowed())
    return Result::Overflow;
  if (!Z0.isZero())
    return Result::Infeasible;

  // Extract the model. Artificials still in the basis sit at zero.
  std::vector<Rational> ColVal(TotalCols, Rational(0));
  for (size_t I = 0; I < M; ++I)
    ColVal[T.Basis[I]] = T.B[I];
  for (LVar V = 0; V < Vars.size(); ++V) {
    const VarInfo &VI = Vars[V];
    Rational Val = ColVal[VI.Pos];
    if (!VI.NonNeg)
      Val -= ColVal[VI.Neg];
    Solution[V] = Val;
  }
  if (Overflow.overflowed()) {
    Solution.clear();
    return Result::Overflow;
  }
  return Result::Feasible;
}
