//===- tests/SimplexTest.cpp - rational simplex unit tests -----*- C++ -*-===//

#include "simplex/Simplex.h"

#include <gtest/gtest.h>

#include <random>

using namespace tnt;

TEST(Simplex, TrivialFeasible) {
  Simplex S;
  LVar X = S.addVar("x", /*NonNeg=*/true);
  S.addRow({{X, Rational(1)}}, LpRel::Le, Rational(5));
  EXPECT_EQ(S.checkFeasible(), Simplex::Result::Feasible);
}

TEST(Simplex, InfeasibleBounds) {
  Simplex S;
  LVar X = S.addVar("x", true);
  S.addRow({{X, Rational(1)}}, LpRel::Ge, Rational(5));
  S.addRow({{X, Rational(1)}}, LpRel::Le, Rational(3));
  EXPECT_EQ(S.checkFeasible(), Simplex::Result::Infeasible);
}

TEST(Simplex, FreeVariableNegativeSolution) {
  Simplex S;
  LVar X = S.addVar("x", /*NonNeg=*/false);
  S.addRow({{X, Rational(1)}}, LpRel::Le, Rational(-3));
  ASSERT_EQ(S.checkFeasible(), Simplex::Result::Feasible);
  EXPECT_LE(S.value(X), Rational(-3));
}

TEST(Simplex, EqualityRows) {
  Simplex S;
  LVar X = S.addVar("x", false);
  LVar Y = S.addVar("y", false);
  // x + y = 4, x - y = 2 -> x = 3, y = 1.
  S.addRow({{X, Rational(1)}, {Y, Rational(1)}}, LpRel::Eq, Rational(4));
  S.addRow({{X, Rational(1)}, {Y, Rational(-1)}}, LpRel::Eq, Rational(2));
  ASSERT_EQ(S.checkFeasible(), Simplex::Result::Feasible);
  EXPECT_EQ(S.value(X), Rational(3));
  EXPECT_EQ(S.value(Y), Rational(1));
}

TEST(Simplex, InconsistentEqualities) {
  Simplex S;
  LVar X = S.addVar("x", false);
  S.addRow({{X, Rational(1)}}, LpRel::Eq, Rational(1));
  S.addRow({{X, Rational(1)}}, LpRel::Eq, Rational(2));
  EXPECT_EQ(S.checkFeasible(), Simplex::Result::Infeasible);
}

TEST(Simplex, DegenerateRedundantRows) {
  Simplex S;
  LVar X = S.addVar("x", true);
  // Same constraint three times plus an equality pinning x.
  S.addRow({{X, Rational(1)}}, LpRel::Le, Rational(2));
  S.addRow({{X, Rational(1)}}, LpRel::Le, Rational(2));
  S.addRow({{X, Rational(1)}}, LpRel::Le, Rational(2));
  S.addRow({{X, Rational(1)}}, LpRel::Eq, Rational(2));
  ASSERT_EQ(S.checkFeasible(), Simplex::Result::Feasible);
  EXPECT_EQ(S.value(X), Rational(2));
}

TEST(Simplex, RationalSolutionExact) {
  Simplex S;
  LVar X = S.addVar("x", false);
  // 3x = 1 -> x = 1/3 exactly.
  S.addRow({{X, Rational(3)}}, LpRel::Eq, Rational(1));
  ASSERT_EQ(S.checkFeasible(), Simplex::Result::Feasible);
  EXPECT_EQ(S.value(X), Rational(1, 3));
}

TEST(Simplex, FarkasShapedSystem) {
  // The shape generated by ranking synthesis: lambda >= 0 with equality
  // couplings to free coefficient variables.
  Simplex S;
  LVar L1 = S.addVar("l1", true);
  LVar L2 = S.addVar("l2", true);
  LVar C = S.addVar("c", false);
  // l1 - l2 = c && l1 + l2 <= 1 && c >= 1 requires l1 >= 1, l2 = 0.
  S.addRow({{L1, Rational(1)}, {L2, Rational(-1)}, {C, Rational(-1)}},
           LpRel::Eq, Rational(0));
  S.addRow({{L1, Rational(1)}, {L2, Rational(1)}}, LpRel::Le, Rational(1));
  S.addRow({{C, Rational(1)}}, LpRel::Ge, Rational(1));
  ASSERT_EQ(S.checkFeasible(), Simplex::Result::Feasible);
  EXPECT_GE(S.value(L1), Rational(1));
  EXPECT_EQ(S.value(L2) , Rational(0));
}

TEST(Simplex, ManyVariablesSmoke) {
  Simplex S;
  std::vector<LVar> Vs;
  for (int I = 0; I < 12; ++I)
    Vs.push_back(S.addVar("v" + std::to_string(I), true));
  // Chain v0 <= v1 <= ... <= v11 <= 1 and sum >= 1.
  for (int I = 0; I + 1 < 12; ++I)
    S.addRow({{Vs[I], Rational(1)}, {Vs[I + 1], Rational(-1)}}, LpRel::Le,
             Rational(0));
  S.addRow({{Vs[11], Rational(1)}}, LpRel::Le, Rational(1));
  std::vector<LinTerm> Sum;
  for (LVar V : Vs)
    Sum.push_back({V, Rational(1)});
  S.addRow(Sum, LpRel::Ge, Rational(1));
  EXPECT_EQ(S.checkFeasible(), Simplex::Result::Feasible);
}

TEST(Simplex, OverflowIsAResult) {
  // Eliminating the phase-1 objective adds the two big coefficients of
  // x: the exact sum needs 64 bits of magnitude, so the solve must stop
  // with Overflow and publish no model. The caller's scope sees the
  // overflow too.
  const int64_t Big = INT64_MAX;
  OverflowScope Outer;
  Simplex S;
  LVar X = S.addVar("x", false);
  LVar Y = S.addVar("y", false);
  S.addRow({{X, Rational(Big)}, {Y, Rational(Big - 1)}}, LpRel::Eq,
           Rational(Big));
  S.addRow({{X, Rational(Big - 2)}, {Y, Rational(1)}}, LpRel::Eq,
           Rational(5));
  EXPECT_EQ(S.checkFeasible(), Simplex::Result::Overflow);
  EXPECT_EQ(S.value(X), Rational(0));
  EXPECT_TRUE(Outer.overflowed());
}

TEST(Simplex, LcmOverflowIsAResult) {
  // Every coefficient 1/p fits in 64 bits, but the row's integer form
  // is the row times the lcm of its denominators, the primorial 53#,
  // which does not: the solve must stop with Overflow, publish no model
  // and flag the caller's scope. Without 1/53 the lcm, 47#, fits.
  const std::vector<int64_t> Primes = {2,  3,  5,  7,  11, 13, 17, 19,
                                       23, 29, 31, 37, 41, 43, 47, 53};
  for (size_t Count : {Primes.size() - 1, Primes.size()}) {
    OverflowScope Outer;
    Simplex S;
    std::vector<LinTerm> Terms;
    for (size_t I = 0; I < Count; ++I)
      Terms.push_back({S.addVar("x" + std::to_string(I), /*NonNeg=*/true),
                       Rational(1, Primes[I])});
    S.addRow(Terms, LpRel::Eq, Rational(1));
    bool Fits = Count < Primes.size();
    EXPECT_EQ(S.checkFeasible(), Fits ? Simplex::Result::Feasible
                                      : Simplex::Result::Overflow);
    EXPECT_EQ(S.value(0), Fits ? Rational(2) : Rational(0));
    EXPECT_EQ(Outer.overflowed(), !Fits);
  }
}

//===----------------------------------------------------------------------===//
// Reference equivalence
//===----------------------------------------------------------------------===//

namespace {

/// The dense tableau Simplex replaced, kept as a test-only reference:
/// every pivot multiplies through every column, phase 1 runs to
/// optimality, and zero artificials left in the basis are then driven
/// out. Simplex must take the same Bland pivots and return the same
/// vertex: pivots() counts the pivots made before the objective reached
/// zero, the ones Simplex makes too. A rational that leaves 64 bits
/// stops the solve with Overflow.
class ReferenceSimplex {
public:
  LVar addVar(bool NonNeg) {
    NonNegs.push_back(NonNeg);
    return static_cast<LVar>(NonNegs.size() - 1);
  }
  void addRow(const std::vector<LinTerm> &Terms, LpRel Rel,
              const Rational &Rhs) {
    Rows.push_back({Terms, Rel, Rhs});
  }
  Simplex::Result checkFeasible();
  Rational value(LVar V) const { return Solution.at(V); }
  uint64_t pivots() const { return Pivots; }

private:
  struct Row {
    std::vector<LinTerm> Terms;
    LpRel Rel;
    Rational Rhs;
  };
  void pivot(size_t Row, size_t Col);
  void optimize(std::vector<Rational> &Z, Rational &Z0,
                const OverflowScope &Overflow);

  std::vector<bool> NonNegs;
  std::vector<Row> Rows;
  std::vector<Rational> Solution;
  uint64_t Pivots = 0;
  size_t M = 0, TotalCols = 0;
  std::vector<std::vector<Rational>> A;
  std::vector<Rational> B;
  std::vector<size_t> Basis;
};

void ReferenceSimplex::pivot(size_t Row, size_t Col) {
  Rational P = A[Row][Col];
  for (size_t J = 0; J < TotalCols; ++J)
    A[Row][J] /= P;
  B[Row] /= P;
  for (size_t I = 0; I < M; ++I) {
    if (I == Row)
      continue;
    Rational F = A[I][Col];
    if (F.isZero())
      continue;
    for (size_t J = 0; J < TotalCols; ++J)
      A[I][J] -= F * A[Row][J];
    B[I] -= F * B[Row];
  }
  Basis[Row] = Col;
}

void ReferenceSimplex::optimize(std::vector<Rational> &Z, Rational &Z0,
                                const OverflowScope &Overflow) {
  for (size_t I = 0; I < M; ++I) {
    Rational F = Z[Basis[I]];
    if (F.isZero())
      continue;
    for (size_t J = 0; J < TotalCols; ++J)
      Z[J] -= F * A[I][J];
    Z0 += F * B[I];
  }
  while (!Overflow.overflowed()) {
    size_t Enter = TotalCols;
    for (size_t J = 0; J < TotalCols; ++J)
      if (Z[J].isPos()) {
        Enter = J;
        break;
      }
    if (Enter == TotalCols)
      return;
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
    ASSERT_NE(Leave, M) << "the phase-1 objective is bounded";
    Pivots += !Z0.isZero();
    pivot(Leave, Enter);
    Rational F = Z[Enter];
    for (size_t J = 0; J < TotalCols; ++J)
      Z[J] -= F * A[Leave][J];
    Z0 += F * B[Leave];
  }
}

Simplex::Result ReferenceSimplex::checkFeasible() {
  OverflowScope Overflow;
  std::vector<size_t> Pos, Neg;
  size_t NextCol = 0;
  for (bool NonNeg : NonNegs) {
    Pos.push_back(NextCol++);
    Neg.push_back(NonNeg ? 0 : NextCol++);
  }
  size_t NumSlacks = 0;
  for (const Row &R : Rows)
    NumSlacks += R.Rel != LpRel::Eq;
  size_t SlackBase = NextCol, StructCols = NextCol + NumSlacks;
  M = Rows.size();
  TotalCols = StructCols + M;
  A.assign(M, std::vector<Rational>(TotalCols));
  B.assign(M, Rational());
  Basis.assign(M, 0);
  size_t SlackIdx = 0;
  for (size_t I = 0; I < M; ++I) {
    const Row &R = Rows[I];
    std::vector<Rational> Coef(StructCols);
    for (const LinTerm &T : R.Terms) {
      Coef[Pos[T.Var]] += T.Coef;
      if (!NonNegs[T.Var])
        Coef[Neg[T.Var]] -= T.Coef;
    }
    if (R.Rel == LpRel::Le)
      Coef[SlackBase + SlackIdx++] = Rational(1);
    else if (R.Rel == LpRel::Ge)
      Coef[SlackBase + SlackIdx++] = Rational(-1);
    bool Flip = R.Rhs.isNeg();
    for (size_t J = 0; J < StructCols; ++J)
      A[I][J] = Flip ? -Coef[J] : Coef[J];
    B[I] = Flip ? -R.Rhs : R.Rhs;
    A[I][StructCols + I] = Rational(1);
    Basis[I] = StructCols + I;
  }

  std::vector<Rational> Z(TotalCols);
  for (size_t I = 0; I < M; ++I)
    Z[StructCols + I] = Rational(-1);
  Rational Z0;
  optimize(Z, Z0, Overflow);
  if (Overflow.overflowed())
    return Simplex::Result::Overflow;
  if (!Z0.isZero())
    return Simplex::Result::Infeasible;
  for (size_t I = 0; I < M; ++I) {
    if (Basis[I] < StructCols)
      continue;
    for (size_t J = 0; J < StructCols; ++J)
      if (!A[I][J].isZero()) {
        pivot(I, J);
        break;
      }
  }

  std::vector<Rational> ColVal(TotalCols);
  for (size_t I = 0; I < M; ++I)
    ColVal[Basis[I]] = B[I];
  Solution.clear();
  for (LVar V = 0; V < NonNegs.size(); ++V)
    Solution.push_back(NonNegs[V] ? ColVal[Pos[V]]
                                  : ColVal[Pos[V]] - ColVal[Neg[V]]);
  return Overflow.overflowed() ? Simplex::Result::Overflow
                               : Simplex::Result::Feasible;
}

struct LpRow {
  std::vector<LinTerm> Terms;
  LpRel Rel;
  Rational Rhs;
};

/// A seeded random system in the shape Farkas encodings produce: free
/// and non-negative variables, Eq/Le/Ge rows with coefficients in
/// [-6, 6], many zero right-hand sides, and duplicated, scaled or summed
/// (hence redundant) rows. These are the degenerate systems where the
/// early phase-1 exit skips the most pivots.
std::vector<LpRow> randomFarkasRows(std::mt19937 &Rng, size_t NumVars) {
  auto Pick = [&Rng](int Lo, int Hi) {
    return std::uniform_int_distribution<int>(Lo, Hi)(Rng);
  };
  std::vector<LpRow> Rows;
  int NumRows = Pick(1, 7);
  for (int I = 0; I < NumRows; ++I) {
    int Kind = I == 0 ? 9 : Pick(0, 9);
    if (Kind == 0) {
      LpRow Copy = Rows[Pick(0, I - 1)];
      Rows.push_back(Copy);
    } else if (Kind == 1) {
      // A positive multiple implies nothing new.
      LpRow R = Rows[Pick(0, I - 1)];
      Rational K(Pick(2, 3));
      for (LinTerm &T : R.Terms)
        T.Coef *= K;
      R.Rhs *= K;
      Rows.push_back(R);
    } else if (Kind == 2) {
      // Neither does the sum of two rows whose relations agree, where
      // Eq agrees with anything; otherwise this is a duplicate.
      LpRow R = Rows[Pick(0, I - 1)];
      const LpRow &Other = Rows[Pick(0, I - 1)];
      if (R.Rel == LpRel::Eq || Other.Rel == LpRel::Eq || R.Rel == Other.Rel) {
        if (R.Rel == LpRel::Eq)
          R.Rel = Other.Rel;
        R.Terms.insert(R.Terms.end(), Other.Terms.begin(), Other.Terms.end());
        R.Rhs += Other.Rhs;
      }
      Rows.push_back(R);
    } else {
      LpRow R;
      R.Rel = static_cast<LpRel>(Pick(0, 2));
      for (LVar V = 0; V < NumVars; ++V)
        if (Pick(0, 9) < 6)
          R.Terms.push_back({V, Rational(Pick(-6, 6))});
      R.Rhs = Pick(0, 1) ? Rational(0) : Rational(Pick(-6, 6));
      Rows.push_back(R);
    }
  }
  return Rows;
}

/// Solves \p Rows with Simplex and ReferenceSimplex and requires the
/// same answer after the same number of pivots and, when feasible, the
/// same value for every variable, with every row satisfied. Past the
/// 64-bit domain of either tableau (Overflow) the answers cannot be
/// compared, but a model Simplex returns must still satisfy every row.
/// Sets \p Got to Simplex's answer, or to Overflow when either
/// overflowed.
void solveBoth(const std::vector<bool> &NonNeg, const std::vector<LpRow> &Rows,
               int Round, Simplex::Result &Got) {
  Simplex S;
  ReferenceSimplex Ref;
  for (size_t V = 0; V < NonNeg.size(); ++V) {
    S.addVar("v" + std::to_string(V), NonNeg[V]);
    Ref.addVar(NonNeg[V]);
  }
  for (const LpRow &R : Rows) {
    S.addRow(R.Terms, R.Rel, R.Rhs);
    Ref.addRow(R.Terms, R.Rel, R.Rhs);
  }
  Simplex::Result Mine = S.checkFeasible();
  Simplex::Result Want;
  ASSERT_NO_FATAL_FAILURE(Want = Ref.checkFeasible());
  bool Comparable = Mine != Simplex::Result::Overflow &&
                    Want != Simplex::Result::Overflow;
  Got = Comparable ? Mine : Simplex::Result::Overflow;
  if (Comparable) {
    ASSERT_EQ(Mine, Want) << "round " << Round;
    ASSERT_EQ(S.pivots(), Ref.pivots()) << "round " << Round;
  }
  if (Mine != Simplex::Result::Feasible)
    return;
  for (LVar V = 0; V < NonNeg.size(); ++V) {
    if (Comparable) {
      ASSERT_EQ(S.value(V), Ref.value(V))
          << "round " << Round << " var " << V;
    }
    ASSERT_TRUE(!NonNeg[V] || !S.value(V).isNeg()) << "round " << Round;
  }
  for (const LpRow &R : Rows) {
    Rational Lhs;
    for (const LinTerm &T : R.Terms)
      Lhs += T.Coef * S.value(T.Var);
    bool Holds = R.Rel == LpRel::Eq   ? Lhs == R.Rhs
                 : R.Rel == LpRel::Le ? Lhs <= R.Rhs
                                      : Lhs >= R.Rhs;
    ASSERT_TRUE(Holds) << "round " << Round << ": " << Lhs.str() << " vs "
                       << R.Rhs.str();
  }
}

/// Column signs: each column is free with chance \p Free in \p Of.
std::vector<bool> randomNonNeg(std::mt19937 &Rng, size_t NumVars, int Free,
                               int Of) {
  std::vector<bool> NonNeg;
  for (size_t V = 0; V < NumVars; ++V)
    NonNeg.push_back(std::uniform_int_distribution<int>(0, Of - 1)(Rng) >=
                     Free);
  return NonNeg;
}

/// Answers of solveBoth by kind.
struct Tally {
  unsigned Feasible = 0, Infeasible = 0, Overflow = 0;
  void add(Simplex::Result R) {
    ++(R == Simplex::Result::Feasible     ? Feasible
       : R == Simplex::Result::Infeasible ? Infeasible
                                          : Overflow);
  }
};

} // namespace

TEST(SimplexReference, SamePivotsSameVertex) {
  std::mt19937 Rng(20150613);
  Tally Answers;
  for (int Round = 0; Round < 3000; ++Round) {
    size_t NumVars = std::uniform_int_distribution<size_t>(1, 7)(Rng);
    std::vector<bool> NonNeg = randomNonNeg(Rng, NumVars, 1, 2);
    std::vector<LpRow> Rows = randomFarkasRows(Rng, NumVars);
    Simplex::Result Got;
    ASSERT_NO_FATAL_FAILURE(solveBoth(NonNeg, Rows, Round, Got));
    Answers.add(Got);
  }
  // Both answers must be well represented for the check to mean much.
  EXPECT_GT(Answers.Feasible, 500u);
  EXPECT_GT(Answers.Infeasible, 200u);
  EXPECT_EQ(Answers.Overflow, 0u);
}

TEST(SimplexReference, RankingShapedSystems) {
  // The shape of synthesizeRanking's strict LPs, where nearly all of the
  // Fig. 11 LP time goes: 8-30 equality rows over free and non-negative
  // columns, coefficients in [-3, 3], every right-hand side 0 but one,
  // which is -1.
  std::mt19937 Rng(20150614);
  auto Pick = [&Rng](int Lo, int Hi) {
    return std::uniform_int_distribution<int>(Lo, Hi)(Rng);
  };
  Tally Answers;
  for (int Round = 0; Round < 300; ++Round) {
    int NumRows = Pick(8, 30);
    size_t NumVars = static_cast<size_t>(Pick(NumRows - 2, 2 * NumRows));
    std::vector<bool> NonNeg = randomNonNeg(Rng, NumVars, 1, 5);
    int Strict = Pick(0, NumRows - 1);
    std::vector<LpRow> Rows;
    for (int I = 0; I < NumRows; ++I) {
      LpRow R{{}, LpRel::Eq, Rational(I == Strict ? -1 : 0)};
      int PerRow = Pick(2, 5);
      for (LVar V = 0; V < NumVars; ++V)
        if (Pick(1, static_cast<int>(NumVars)) <= PerRow)
          R.Terms.push_back({V, Rational(Pick(-3, 3))});
      Rows.push_back(R);
    }
    Simplex::Result Got;
    ASSERT_NO_FATAL_FAILURE(solveBoth(NonNeg, Rows, Round, Got));
    Answers.add(Got);
  }
  EXPECT_GT(Answers.Feasible, 75u);
  EXPECT_GT(Answers.Infeasible, 75u);
  EXPECT_EQ(Answers.Overflow, 0u);
}

TEST(SimplexReference, FractionalRowsScaleByLcm) {
  // No production caller passes fractions, but the integer rows must
  // still be the rational rows times the lcm of their denominators.
  std::mt19937 Rng(20150615);
  auto Pick = [&Rng](int Lo, int Hi) {
    return std::uniform_int_distribution<int>(Lo, Hi)(Rng);
  };
  Tally Answers;
  for (int Round = 0; Round < 2000; ++Round) {
    size_t NumVars = std::uniform_int_distribution<size_t>(1, 7)(Rng);
    std::vector<bool> NonNeg = randomNonNeg(Rng, NumVars, 1, 2);
    std::vector<LpRow> Rows = randomFarkasRows(Rng, NumVars);
    for (LpRow &R : Rows) {
      for (LinTerm &T : R.Terms)
        if (Pick(0, 1))
          T.Coef = T.Coef / Rational(Pick(2, 12));
      if (Pick(0, 1))
        R.Rhs = Rational(Pick(-12, 12), Pick(2, 12));
    }
    Simplex::Result Got;
    ASSERT_NO_FATAL_FAILURE(solveBoth(NonNeg, Rows, Round, Got));
    Answers.add(Got);
  }
  EXPECT_GT(Answers.Feasible, 300u);
  EXPECT_GT(Answers.Infeasible, 200u);
  // Products of denominators up to 12 leave 64 bits in a few rounds, on
  // one side or both; those rounds check only Simplex's model, if any.
  EXPECT_LT(Answers.Overflow, 20u);
}
