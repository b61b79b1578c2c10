//===- simplex/Simplex.cpp ------------------------------------*- C++ -*-===//

#include "simplex/Simplex.h"

#include <algorithm>
#include <cstdint>

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

/// X -= C*Y; true iff a step left int64.
bool subMul(int64_t &X, int64_t C, int64_t Y) {
  int64_t P;
  return __builtin_mul_overflow(C, Y, &P) | __builtin_sub_overflow(X, P, &X);
}

/// Entries this large make a row divide out its content.
constexpr int64_t ReduceAt = int64_t(1) << 31;

/// One fraction-free row: a positive integer multiple of the row the
/// rational tableau holds. The multiple is the entry in the row's basic
/// column, which the rational tableau keeps at 1; the reduced-cost row
/// has a multiple of its own and holds minus the objective in B.
struct IntRow {
  std::vector<int64_t> V;   // one entry per column
  std::vector<uint32_t> Nz; // the columns where V != 0, in no order
  int64_t B = 0;            // right-hand side
};

/// The tableau in "dictionary" style: a basic column per row, and the
/// reduced-cost row Z.
struct Tableau {
  size_t M = 0;
  std::vector<IntRow> Rows;
  std::vector<size_t> Basis;
  IntRow Z;
  uint64_t Pivots = 0;

  /// T = (P/g)*T - (F/g)*R with g = gcd(P, F), where P > 0 and F != 0
  /// are R's and T's entries in the column this eliminates from T. Only
  /// columns nonzero in T or R can change, so the update visits their
  /// nonzero lists alone. Divides T by its content once an entry reaches
  /// ReduceAt. A step that leaves int64 raises the overflow flag.
  void combine(IntRow &T, const IntRow &R, int64_t P, int64_t F) {
    int64_t G = gcd64(P, F);
    int64_t PG = P / G, FG = F / G;
    bool Overflowed = false, Big = false;
    if (PG != 1) {
      for (uint32_t J : T.Nz)
        Overflowed |= __builtin_mul_overflow(PG, T.V[J], &T.V[J]);
      Overflowed |= __builtin_mul_overflow(PG, T.B, &T.B);
    }
    for (uint32_t J : R.Nz) {
      bool WasZero = T.V[J] == 0;
      Overflowed |= subMul(T.V[J], FG, R.V[J]);
      if (WasZero)
        T.Nz.push_back(J);
    }
    Overflowed |= subMul(T.B, FG, R.B);
    // Drop the columns that cancelled, the one that left T among them.
    size_t Kept = 0;
    for (uint32_t J : T.Nz) {
      T.Nz[Kept] = J;
      Kept += T.V[J] != 0;
      Big |= T.V[J] >= ReduceAt || T.V[J] <= -ReduceAt;
    }
    T.Nz.resize(Kept);
    Big |= T.B >= ReduceAt || T.B <= -ReduceAt;
    if (Overflowed)
      raiseOverflow();
    else if (Big)
      reduce(T);
  }

  /// Divides T by the gcd of its entries, a positive number: signs,
  /// ratios and the values read off stay the same.
  static void reduce(IntRow &T) {
    int64_t G = gcd64(T.B, 0);
    for (uint32_t J : T.Nz) {
      if (G == 1)
        return;
      G = gcd64(G, T.V[J]);
    }
    if (G <= 1)
      return;
    for (uint32_t J : T.Nz)
      T.V[J] /= G;
    T.B /= G;
  }

  /// Pivots on (Row, Col): Col enters the basis, Basis[Row] leaves. The
  /// pivot row stays as it is; its multiple becomes its entry in Col.
  void pivot(size_t Row, size_t Col) {
    const IntRow &R = Rows[Row];
    int64_t P = R.V[Col];
    for (size_t I = 0; I < M; ++I)
      if (I != Row && Rows[I].V[Col] != 0)
        combine(Rows[I], R, P, Rows[I].V[Col]);
    combine(Z, R, P, Z.V[Col]);
    Basis[Row] = Col;
    ++Pivots;
  }

  /// Phase 1: primal simplex with Bland's rule on the reduced costs Z,
  /// whose right-hand side is minus the objective, the sum of the
  /// artificials. Stops when that is 0: the basic solution is then
  /// feasible, and every pivot a longer run would still make — further
  /// phase-1 steps and those driving zero artificials out of the basis —
  /// is degenerate, so the vertex is the one a longer run would return.
  /// Also stops when \p Overflow trips.
  void optimize(const OverflowScope &Overflow) {
    // Make the objective consistent with the current basis: eliminate
    // basic columns from Z.
    for (size_t I = 0; I < M; ++I)
      if (Z.V[Basis[I]] != 0)
        combine(Z, Rows[I], Rows[I].V[Basis[I]], Z.V[Basis[I]]);
    while (Z.B != 0 && !Overflow.overflowed()) {
      // Bland: the lowest-index column with positive reduced cost.
      size_t Enter = SIZE_MAX;
      for (uint32_t J : Z.Nz)
        if (Z.V[J] > 0 && J < Enter)
          Enter = J;
      if (Enter == SIZE_MAX)
        return; // Optimal below zero: infeasible.
      // Ratio test on B_i / a_i,Enter (the multiple cancels), Bland
      // tie-break on basic variable index.
      size_t Leave = M;
      for (size_t I = 0; I < M; ++I) {
        int64_t A = Rows[I].V[Enter];
        if (A <= 0)
          continue;
        if (Leave == M) {
          Leave = I;
          continue;
        }
        __int128 Mine =
            static_cast<__int128>(Rows[I].B) * Rows[Leave].V[Enter];
        __int128 Best = static_cast<__int128>(Rows[Leave].B) * A;
        if (Mine < Best || (Mine == Best && Basis[I] < Basis[Leave]))
          Leave = I;
      }
      // No leaving row would make the objective unbounded, but it is
      // bounded above by zero; a nonzero one then reads as infeasible.
      if (Leave == M)
        return;
      pivot(Leave, Enter);
    }
  }
};

} // namespace

Simplex::Result Simplex::checkFeasible() {
  Solution.clear();
  Pivots = 0;
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
  T.Rows.resize(M);
  T.Basis.assign(M, 0);

  // Each row is the rational row, normalized to Rhs >= 0 for the
  // artificial basis, times the lcm of its denominators.
  std::vector<Rational> Coef(StructCols);
  size_t SlackIdx = 0;
  for (size_t I = 0; I < M; ++I) {
    const RowInfo &R = Rows[I];
    std::fill(Coef.begin(), Coef.end(), Rational(0));
    for (const LinTerm &Term : R.Terms) {
      const VarInfo &V = Vars[Term.Var];
      Coef[V.Pos] += Term.Coef;
      if (!V.NonNeg)
        Coef[V.Neg] -= Term.Coef;
    }
    if (R.Rel == LpRel::Le)
      Coef[SlackBase + SlackIdx++] = Rational(1);
    else if (R.Rel == LpRel::Ge)
      Coef[SlackBase + SlackIdx++] = Rational(-1);
    int64_t Scale = R.Rhs.den();
    for (const Rational &C : Coef)
      Scale = lcm64(Scale, C.den());
    bool Flip = R.Rhs.isNeg();
    auto Scaled = [&](const Rational &C, int64_t &Out) {
      if (__builtin_mul_overflow(C.num(), Scale / C.den(), &Out) |
          (Flip && __builtin_sub_overflow(0, Out, &Out)))
        raiseOverflow();
    };
    IntRow &Row = T.Rows[I];
    Row.V.assign(TotalCols, 0);
    for (uint32_t J = 0; J < StructCols; ++J)
      if (!Coef[J].isZero()) {
        Scaled(Coef[J], Row.V[J]);
        Row.Nz.push_back(J);
      }
    Scaled(R.Rhs, Row.B);
    // The sums above, lcm64 (which then returns 0) and Scaled flag a
    // step beyond int64.
    if (Overflow.overflowed())
      return Result::Overflow;
    Row.V[ArtBase + I] = Scale;
    Row.Nz.push_back(static_cast<uint32_t>(ArtBase + I));
    T.Basis[I] = ArtBase + I;
  }

  // Phase 1: maximize -(sum of artificials).
  T.Z.V.assign(TotalCols, 0);
  for (size_t I = 0; I < M; ++I) {
    T.Z.V[ArtBase + I] = -1;
    T.Z.Nz.push_back(static_cast<uint32_t>(ArtBase + I));
  }
  T.optimize(Overflow);
  Pivots = T.Pivots;
  if (Overflow.overflowed())
    return Result::Overflow;
  if (T.Z.B != 0)
    return Result::Infeasible;

  // Extract the model. Artificials still in the basis sit at zero.
  std::vector<Rational> ColVal(TotalCols, Rational(0));
  for (size_t I = 0; I < M; ++I)
    ColVal[T.Basis[I]] = Rational(T.Rows[I].B, T.Rows[I].V[T.Basis[I]]);
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
