//===- tests/SolverTest.cpp - Omega test and solver facade -----*- C++ -*-===//

#include "solver/Model.h"
#include "solver/SolverContext.h"

#include <gtest/gtest.h>

#include <random>

using namespace tnt;

namespace {

VarId X() { return mkVar("sx"); }
VarId Y() { return mkVar("sy"); }
VarId Z() { return mkVar("sz"); }

LinExpr ex(VarId V) { return LinExpr::var(V); }

Constraint le(const LinExpr &L, const LinExpr &R) {
  return Constraint::make(L, CmpKind::Le, R);
}
Constraint ge(const LinExpr &L, const LinExpr &R) {
  return Constraint::make(L, CmpKind::Ge, R);
}
Constraint eq(const LinExpr &L, const LinExpr &R) {
  return Constraint::make(L, CmpKind::Eq, R);
}

} // namespace

//===----------------------------------------------------------------------===//
// Omega: conjunction satisfiability
//===----------------------------------------------------------------------===//

TEST(Omega, EmptyConjIsSat) {
  EXPECT_EQ(Omega::isSatConj({}), Tri::True);
}

TEST(Omega, SimpleBounds) {
  // 0 <= x <= 5.
  EXPECT_EQ(Omega::isSatConj({ge(ex(X()), LinExpr(0)), le(ex(X()), LinExpr(5))}),
            Tri::True);
  // x <= 0 && x >= 5.
  EXPECT_EQ(Omega::isSatConj({le(ex(X()), LinExpr(0)), ge(ex(X()), LinExpr(5))}),
            Tri::False);
}

TEST(Omega, GcdRefutation) {
  // 2x = 1.
  EXPECT_EQ(Omega::isSatConj({eq(ex(X()) * 2, LinExpr(1))}), Tri::False);
  // 6x + 3y = 2.
  EXPECT_EQ(
      Omega::isSatConj({eq(ex(X()) * 6 + ex(Y()) * 3, LinExpr(2))}),
      Tri::False);
}

TEST(Omega, EqualitySubstitution) {
  // x = y + 1 && x <= 0 && y >= 0: unsat.
  EXPECT_EQ(Omega::isSatConj({eq(ex(X()), ex(Y()) + 1),
                              le(ex(X()), LinExpr(0)),
                              ge(ex(Y()), LinExpr(0))}),
            Tri::False);
  // x = y + 1 && x >= 0: sat.
  EXPECT_EQ(Omega::isSatConj({eq(ex(X()), ex(Y()) + 1),
                              ge(ex(X()), LinExpr(0))}),
            Tri::True);
}

TEST(Omega, NonUnitEqualityModTrick) {
  // 3x + 5y = 1 is solvable over Z (x=2, y=-1).
  EXPECT_EQ(Omega::isSatConj({eq(ex(X()) * 3 + ex(Y()) * 5, LinExpr(1))}),
            Tri::True);
  // 3x + 5y = 1 with 0 <= x,y <= 1: only (x,y) in {0,1}^2; 3x+5y in
  // {0,3,5,8}: unsat.
  EXPECT_EQ(Omega::isSatConj({eq(ex(X()) * 3 + ex(Y()) * 5, LinExpr(1)),
                              ge(ex(X()), LinExpr(0)), le(ex(X()), LinExpr(1)),
                              ge(ex(Y()), LinExpr(0)), le(ex(Y()), LinExpr(1))}),
            Tri::False);
}

TEST(Omega, DarkShadowIntegerGap) {
  // 27 <= 8x <= 30 has no integer solution (no multiple of 8 in range),
  // though the rational shadow is satisfiable. Exercises dark shadow /
  // splinters.
  EXPECT_EQ(Omega::isSatConj({ge(ex(X()) * 8, LinExpr(27)),
                              le(ex(X()) * 8, LinExpr(30))}),
            Tri::False);
  // 27 <= 8x <= 32 includes 32 = 8*4: sat.
  EXPECT_EQ(Omega::isSatConj({ge(ex(X()) * 8, LinExpr(27)),
                              le(ex(X()) * 8, LinExpr(32))}),
            Tri::True);
}

TEST(Omega, ClassicOmegaExample) {
  // From Pugh's paper: 3x + 4y = 1, 1 <= x <= 3, 1 <= y <= 3 — the
  // equality forces (x,y) = (3,-2) mod lattice; with both in [1,3]
  // 3x+4y ranges over {7..21} with specific residues; 3*3+4*(-2)=1 but
  // y=-2 is out of range: unsat.
  EXPECT_EQ(Omega::isSatConj({eq(ex(X()) * 3 + ex(Y()) * 4, LinExpr(1)),
                              ge(ex(X()), LinExpr(1)), le(ex(X()), LinExpr(3)),
                              ge(ex(Y()), LinExpr(1)), le(ex(Y()), LinExpr(3))}),
            Tri::False);
}

TEST(Omega, ThreeVarChain) {
  // x < y < z && z < x: unsat.
  EXPECT_EQ(Omega::isSatConj({Constraint::make(ex(X()), CmpKind::Lt, ex(Y())),
                              Constraint::make(ex(Y()), CmpKind::Lt, ex(Z())),
                              Constraint::make(ex(Z()), CmpKind::Lt, ex(X()))}),
            Tri::False);
}

TEST(Omega, UnboundedVariableDropped) {
  // y only lower-bounded; x constrained normally.
  EXPECT_EQ(Omega::isSatConj({ge(ex(Y()), ex(X())), ge(ex(X()), LinExpr(0)),
                              le(ex(X()), LinExpr(3))}),
            Tri::True);
}

TEST(Omega, NeAtomIsUnknownInEveryBuild) {
  // Ne atoms are outside the procedure (DNF expansion splits them), and
  // the contract holds without asserts: a conjunction holding one is
  // Unknown, never read as x <= 0 — that reading made {x != 0, x >= 1}
  // unsat.
  Constraint Ne = Constraint::make(ex(X()), CmpKind::Ne, LinExpr(0));
  EXPECT_EQ(Omega::isSatConj({Ne, eq(ex(X()), LinExpr(0))}), Tri::Unknown);
  EXPECT_EQ(Omega::isSatConj({Ne, ge(ex(X()), LinExpr(1))}), Tri::Unknown);

  // Projection drops every constraint on the projected variables and
  // says it is inexact; y <= 4 does not mention x and stays.
  ConstraintConj Conj = {Ne, le(ex(X()), ex(Y())), le(ex(Y()), LinExpr(4))};
  Omega::Projection P = Omega::projectVar(Conj, X());
  EXPECT_FALSE(P.Exact);
  ASSERT_EQ(P.Conj.size(), 1u);
  EXPECT_EQ(P.Conj[0], le(ex(Y()), LinExpr(4)));
  Omega::Projection PV = Omega::projectVars(Conj, {X(), Y()});
  EXPECT_FALSE(PV.Exact);
  EXPECT_TRUE(PV.Conj.empty());

  // dropRedundant leaves such a conjunction alone.
  ConstraintConj Redundant = {Ne, ge(ex(X()), LinExpr(1)),
                              ge(ex(X()), LinExpr(0))};
  EXPECT_EQ(Omega::dropRedundant(Redundant), Redundant);
}

//===----------------------------------------------------------------------===//
// Omega: projection
//===----------------------------------------------------------------------===//

TEST(OmegaProjection, ViaEquality) {
  // exists x. x = y + 1 && x <= 5  ==>  y <= 4 (exact).
  Omega::Projection P = Omega::projectVar(
      {eq(ex(X()), ex(Y()) + 1), le(ex(X()), LinExpr(5))}, X());
  EXPECT_TRUE(P.Exact);
  ASSERT_EQ(P.Conj.size(), 1u);
  EXPECT_TRUE(P.Conj[0].eval({{Y(), 4}}));
  EXPECT_FALSE(P.Conj[0].eval({{Y(), 5}}));
}

TEST(OmegaProjection, FourierMotzkinPair) {
  // exists x. y <= x && x <= z  ==>  y <= z (exact, unit coefficients).
  Omega::Projection P =
      Omega::projectVar({ge(ex(X()), ex(Y())), le(ex(X()), ex(Z()))}, X());
  EXPECT_TRUE(P.Exact);
  ASSERT_EQ(P.Conj.size(), 1u);
  EXPECT_TRUE(P.Conj[0].eval({{Y(), 2}, {Z(), 2}}));
  EXPECT_FALSE(P.Conj[0].eval({{Y(), 3}, {Z(), 2}}));
}

TEST(OmegaProjection, InexactFlagged) {
  // exists x. 2x >= y && 2x <= z: real shadow is z >= y but over Z the
  // projection requires an even number between them; must be flagged
  // inexact.
  Omega::Projection P = Omega::projectVar(
      {ge(ex(X()) * 2, ex(Y())), le(ex(X()) * 2, ex(Z()))}, X());
  EXPECT_FALSE(P.Exact);
}

TEST(OmegaProjection, MultiVar) {
  // exists x,y. 0 <= x <= y && y <= z  ==>  z >= 0.
  Omega::Projection P = Omega::projectVars(
      {ge(ex(X()), LinExpr(0)), le(ex(X()), ex(Y())), le(ex(Y()), ex(Z()))},
      {X(), Y()});
  EXPECT_TRUE(P.Exact);
  bool SawZBound = false;
  for (const Constraint &C : P.Conj)
    if (C.eval({{Z(), 0}}) && !C.eval({{Z(), -1}}))
      SawZBound = true;
  EXPECT_TRUE(SawZBound);
}

TEST(OmegaDropRedundant, RemovesImplied) {
  // {x >= 0, x >= -5} -> {x >= 0}.
  ConstraintConj Out = Omega::dropRedundant(
      {ge(ex(X()), LinExpr(0)), ge(ex(X()), LinExpr(-5))});
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_FALSE(Out[0].eval({{X(), -1}}));
  EXPECT_TRUE(Out[0].eval({{X(), 0}}));
}

//===----------------------------------------------------------------------===//
// Formula-level queries
//===----------------------------------------------------------------------===//

TEST(Solver, SatThroughDisjunction) {
  SolverContext SC;
  Formula F = Formula::disj2(
      Formula::conj2(Formula::cmp(ex(X()), CmpKind::Le, LinExpr(0)),
                     Formula::cmp(ex(X()), CmpKind::Ge, LinExpr(5))),
      Formula::cmp(ex(X()), CmpKind::Eq, LinExpr(7)));
  EXPECT_EQ(SC.isSat(F), Tri::True);
}

TEST(Solver, UnsatAllBranches) {
  SolverContext SC;
  Formula F = Formula::conj2(
      Formula::cmp(ex(X()), CmpKind::Ne, LinExpr(0)),
      Formula::conj2(Formula::cmp(ex(X()), CmpKind::Ge, LinExpr(0)),
                     Formula::cmp(ex(X()), CmpKind::Le, LinExpr(0))));
  EXPECT_EQ(SC.isSat(F), Tri::False);
}

TEST(Solver, Implies) {
  SolverContext SC;
  Formula A = Formula::conj2(Formula::cmp(ex(X()), CmpKind::Ge, LinExpr(1)),
                             Formula::cmp(ex(Y()), CmpKind::Ge, ex(X())));
  Formula B = Formula::cmp(ex(Y()), CmpKind::Ge, LinExpr(1));
  EXPECT_EQ(SC.implies(A, B), Tri::True);
  EXPECT_EQ(SC.implies(B, A), Tri::False);
  EXPECT_TRUE(SC.entails(A, B));
}

TEST(Solver, ImpliesWithNegationAndExists) {
  // x >= 1 implies exists k . x = k + 1 && k >= 0.
  SolverContext SC;
  VarId K = mkVar("sk");
  Formula A = Formula::cmp(ex(X()), CmpKind::Ge, LinExpr(1));
  Formula B = Formula::exists(
      {K}, Formula::conj2(Formula::cmp(ex(X()), CmpKind::Eq, ex(K) + 1),
                          Formula::cmp(ex(K), CmpKind::Ge, LinExpr(0))));
  EXPECT_EQ(SC.implies(A, B), Tri::True);
}

TEST(Solver, EliminateSingleVar) {
  // exists y . x <= y && y <= 10: gives x <= 10.
  SolverContext SC;
  Formula F = Formula::conj2(Formula::cmp(ex(X()), CmpKind::Le, ex(Y())),
                             Formula::cmp(ex(Y()), CmpKind::Le, LinExpr(10)));
  SolverContext::ElimResult R = SC.eliminate(F, {Y()});
  EXPECT_TRUE(R.Exact);
  EXPECT_TRUE(
      SC.entails(R.F, Formula::cmp(ex(X()), CmpKind::Le, LinExpr(10))));
  EXPECT_TRUE(
      SC.entails(Formula::cmp(ex(X()), CmpKind::Le, LinExpr(10)), R.F));
}

TEST(Solver, SimplifyDropsUnsatDisjunct) {
  SolverContext SC;
  Formula Dead = Formula::conj2(Formula::cmp(ex(X()), CmpKind::Ge, LinExpr(1)),
                                Formula::cmp(ex(X()), CmpKind::Le, LinExpr(0)));
  Formula Live = Formula::cmp(ex(X()), CmpKind::Ge, LinExpr(5));
  Formula S = SC.simplify(Formula::disj2(Dead, Live));
  EXPECT_TRUE(S.structEq(Live) || SC.entails(S, Live));
  EXPECT_EQ(SC.isSat(Formula::conj2(S, Formula::neg(Live))), Tri::False);
}

TEST(Solver, SimplifyDropsSubsumedDisjunct) {
  SolverContext SC;
  Formula Narrow = Formula::conj2(
      Formula::cmp(ex(X()), CmpKind::Ge, LinExpr(2)),
      Formula::cmp(ex(X()), CmpKind::Le, LinExpr(3)));
  Formula Wide = Formula::cmp(ex(X()), CmpKind::Ge, LinExpr(0));
  Formula S = SC.simplify(Formula::disj2(Narrow, Wide));
  // Result must be equivalent to Wide.
  EXPECT_TRUE(SC.entails(S, Wide));
  EXPECT_TRUE(SC.entails(Wide, S));
}

TEST(Solver, StatsCount) {
  SolverContext SC;
  Formula F = Formula::cmp(ex(X()), CmpKind::Le, LinExpr(0));
  (void)SC.isSat(F);
  (void)SC.isSat(F);
  SolverStats St = SC.stats();
  EXPECT_GE(St.SatQueries, 2u);
}

//===----------------------------------------------------------------------===//
// Model search
//===----------------------------------------------------------------------===//

TEST(Model, FindsWitness) {
  Formula F = Formula::conj2(Formula::cmp(ex(X()), CmpKind::Ge, LinExpr(2)),
                             Formula::cmp(ex(X()), CmpKind::Le, LinExpr(3)));
  std::optional<Model> M = findModel(F, 5);
  ASSERT_TRUE(M.has_value());
  EXPECT_TRUE(F.eval(*M));
}

TEST(Model, NoWitnessInBox) {
  Formula F = Formula::cmp(ex(X()), CmpKind::Ge, LinExpr(100));
  EXPECT_FALSE(findModel(F, 5).has_value());
}

//===----------------------------------------------------------------------===//
// Property test: Omega agrees with exhaustive search on boxed random
// conjunctions.
//===----------------------------------------------------------------------===//

namespace {

struct BoxedCase {
  unsigned Seed;
};

class OmegaVsEnumeration : public ::testing::TestWithParam<unsigned> {};

} // namespace

TEST_P(OmegaVsEnumeration, Agree) {
  std::mt19937 Rng(GetParam());
  std::uniform_int_distribution<int> CoefD(-4, 4);
  std::uniform_int_distribution<int> ConstD(-6, 6);
  std::uniform_int_distribution<int> NumConD(1, 4);
  std::uniform_int_distribution<int> KindD(0, 3);

  const int64_t Box = 4;
  VarId Vs[3] = {mkVar("pv0"), mkVar("pv1"), mkVar("pv2")};

  ConstraintConj Conj;
  // Box constraints make exhaustive enumeration complete.
  for (VarId V : Vs) {
    Conj.push_back(Constraint::make(LinExpr::var(V), CmpKind::Ge, LinExpr(-Box)));
    Conj.push_back(Constraint::make(LinExpr::var(V), CmpKind::Le, LinExpr(Box)));
  }
  int N = NumConD(Rng);
  for (int I = 0; I < N; ++I) {
    LinExpr E;
    for (VarId V : Vs)
      E = E + LinExpr::var(V, CoefD(Rng));
    E = E + ConstD(Rng);
    CmpKind K = KindD(Rng) == 0 ? CmpKind::Eq : CmpKind::Le;
    Conj.push_back(Constraint::make(E, K, LinExpr(0)));
  }

  Tri OmegaAnswer = Omega::isSatConj(Conj);
  std::optional<Model> Enumerated = findModelConj(Conj, Box);
  ASSERT_NE(OmegaAnswer, Tri::Unknown) << conjStr(Conj);
  EXPECT_EQ(OmegaAnswer == Tri::True, Enumerated.has_value())
      << conjStr(Conj);
}

INSTANTIATE_TEST_SUITE_P(RandomConjunctions, OmegaVsEnumeration,
                         ::testing::Range(0u, 60u));
