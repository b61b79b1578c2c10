//===- tests/SynthTest.cpp - Farkas / ranking / abduction ------*- C++ -*-===//

#include "solver/SolverContext.h"
#include "support/WorkStealingPool.h"
#include "synth/Abduction.h"
#include "synth/Farkas.h"
#include "synth/Ranking.h"

#include <gtest/gtest.h>

#include <functional>

using namespace tnt;

namespace {

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
// ParamLinExpr
//===----------------------------------------------------------------------===//

TEST(ParamLinExpr, ApplyTemplateToVars) {
  VarId C0 = freshVar("c"), C1 = freshVar("c"), C2 = freshVar("c");
  VarId X = mkVar("plx"), Y = mkVar("ply");
  ParamLinExpr P =
      ParamLinExpr::applyTemplate({C0, C1, C2}, {ex(X), ex(Y)});
  std::map<VarId, int64_t> Sol{{C0, 3}, {C1, 1}, {C2, -2}};
  LinExpr E = P.instantiate(Sol);
  EXPECT_EQ(E.coeff(X), 1);
  EXPECT_EQ(E.coeff(Y), -2);
  EXPECT_EQ(E.constant(), 3);
}

TEST(ParamLinExpr, ApplyTemplateToCompoundArgs) {
  VarId C0 = freshVar("c"), C1 = freshVar("c");
  VarId X = mkVar("plx"), Y = mkVar("ply");
  // c0 + c1*(x + y - 1).
  ParamLinExpr P = ParamLinExpr::applyTemplate({C0, C1}, {ex(X) + ex(Y) - 1});
  LinExpr E = P.instantiate({{C0, 0}, {C1, 2}});
  EXPECT_EQ(E.coeff(X), 2);
  EXPECT_EQ(E.coeff(Y), 2);
  EXPECT_EQ(E.constant(), -2);
}

TEST(ParamLinExpr, Arithmetic) {
  VarId C0 = freshVar("c"), C1 = freshVar("c");
  VarId X = mkVar("plx");
  ParamLinExpr A = ParamLinExpr::applyTemplate({C0, C1}, {ex(X)});
  ParamLinExpr D = A - A;
  EXPECT_TRUE(D.instantiate({{C0, 5}, {C1, 7}}).isZero());
  ParamLinExpr S = A + 3;
  EXPECT_EQ(S.instantiate({{C0, 1}, {C1, 0}}).constant(), 4);
}

//===----------------------------------------------------------------------===//
// FarkasSystem
//===----------------------------------------------------------------------===//

TEST(Farkas, DerivesSimpleConsequence) {
  // Find t with: (x >= 2) ==> x - t >= 0 and t >= 1, i.e. 1 <= t <= 2.
  VarId X = mkVar("fkx");
  VarId T = freshVar("fk_t");
  FarkasSystem FS;
  ParamLinExpr Conseq = ParamLinExpr::fromConcrete(ex(X));
  ParamLinExpr TP;
  TP.Const = -LinExpr::var(T);
  FS.addImplication({ge(ex(X), LinExpr(2))}, Conseq + TP);
  FS.addParamConstraint(LinExpr::var(T) - 1, LpRel::Ge);
  ASSERT_TRUE(FS.solve());
  int64_t TV = FS.params().at(T);
  EXPECT_GE(TV, 1);
  EXPECT_LE(TV, 2);
}

TEST(Farkas, InfeasibleWhenNoDerivation) {
  // (x >= 0) ==> y >= 0 has no Farkas certificate (y unconstrained).
  VarId X = mkVar("fkx"), Y = mkVar("fky");
  FarkasSystem FS;
  FS.addImplication({ge(ex(X), LinExpr(0))},
                    ParamLinExpr::fromConcrete(ex(Y)));
  EXPECT_FALSE(FS.solve());
}

TEST(Farkas, UsesEqualityWithFreeMultiplier) {
  // (x = y) ==> y - x >= 0 needs a NEGATIVE multiplier on x - y = 0.
  VarId X = mkVar("fkx"), Y = mkVar("fky");
  FarkasSystem FS;
  FS.addImplication({eq(ex(X), ex(Y))},
                    ParamLinExpr::fromConcrete(ex(Y) - ex(X)));
  EXPECT_TRUE(FS.solve());
}

TEST(Farkas, OverflowRejectsCandidateAndCounts) {
  // Parameter rows whose elimination needs more than 64 bits: the solve
  // must fail rather than truncate, publish no parameters, and count
  // the overflow in the context's statistics.
  const int64_t Big = INT64_MAX;
  VarId P = freshVar("fk_p"), Q = freshVar("fk_q");
  SolverContext SC;
  FarkasSystem FS(&SC);
  FS.addParamConstraint(
      LinExpr::var(P, Big) + LinExpr::var(Q, Big - 1) - Big, LpRel::Eq);
  FS.addParamConstraint(LinExpr::var(P, Big - 2) + LinExpr::var(Q) - 5,
                        LpRel::Eq);
  EXPECT_FALSE(FS.solve());
  EXPECT_TRUE(FS.params().empty());
  EXPECT_EQ(SC.stats().LpSolves, 1u);
  EXPECT_EQ(SC.stats().LpOverflows, 1u);
}

TEST(Farkas, EncodingOverflowRejectsCandidateAndCounts) {
  // Encoding steps whose exact int64 result does not exist — negating
  // an INT64_MIN constant or coefficient, summing template and
  // consequence constants into a row's right-hand side — must reject
  // the candidate and count an overflow, never wrap (a wrapped row is
  // a different system, possibly a feasible one).
  const int64_t Min = INT64_MIN;
  VarId X = mkVar("fkx");
  VarId P = freshVar("fk_p");
  SolverContext SC;
  auto expectRejected = [&](FarkasSystem &FS, uint64_t Solves) {
    EXPECT_FALSE(FS.solve());
    EXPECT_TRUE(FS.params().empty());
    EXPECT_EQ(SC.stats().LpSolves, Solves);
    EXPECT_EQ(SC.stats().LpOverflows, Solves);
  };
  {
    // "p + INT64_MIN >= 0": the row's right-hand side negates the
    // constant.
    FarkasSystem FS(&SC);
    FS.addParamConstraint(LinExpr::var(P) + LinExpr(Min), LpRel::Ge);
    expectRejected(FS, 1);
  }
  {
    // Consequence coefficient INT64_MIN * p: it enters the x row
    // negated.
    FarkasSystem FS(&SC);
    ParamLinExpr Conseq;
    Conseq.Coeffs[X] = LinExpr::var(P, Min);
    FS.addImplication({ge(ex(X), LinExpr(0))}, Conseq);
    expectRejected(FS, 2);
  }
  {
    // Template coefficient with constant INT64_MIN: the x row's
    // right-hand side subtracts it.
    FarkasSystem FS(&SC);
    ParamLinExpr Tmpl;
    Tmpl.Coeffs[X] = LinExpr(Min);
    FS.addImplicationWithTemplate({ge(ex(X), LinExpr(0))}, Tmpl,
                                  ParamLinExpr::fromConcrete(ex(X)));
    expectRejected(FS, 3);
  }
  {
    // Antecedent INT64_MIN * x <= 0: its ">= 0" orientation negates
    // the coefficient.
    FarkasSystem FS(&SC);
    FS.addImplication({le(LinExpr::var(X, Min), LinExpr(0))},
                      ParamLinExpr::fromConcrete(ex(X)));
    expectRejected(FS, 4);
  }
  // The flag belongs to the system that raised it: a later in-range
  // system on the same context solves and counts no overflow.
  FarkasSystem Fine(&SC);
  Fine.addParamConstraint(LinExpr::var(P) - 1, LpRel::Ge);
  EXPECT_TRUE(Fine.solve());
  EXPECT_EQ(SC.stats().LpSolves, 5u);
  EXPECT_EQ(SC.stats().LpOverflows, 4u);
}

//===----------------------------------------------------------------------===//
// Ranking synthesis
//===----------------------------------------------------------------------===//

namespace {

/// Builds the classic countdown edge: pred P(x), x' = x - 1, x >= 1.
RankEdge countdownEdge(VarId X, VarId XP) {
  RankEdge E;
  E.Src = 0;
  E.Dst = 0;
  E.Ctx = {ge(ex(X), LinExpr(1)), eq(ex(XP), ex(X) - 1)};
  E.DstArgs = {ex(XP)};
  return E;
}

} // namespace

TEST(Ranking, SimpleCountdown) {
  VarId X = mkVar("rkx"), XP = mkVar("rkx'");
  RankResult R = synthesizeRanking({{X}}, {countdownEdge(X, XP)});
  ASSERT_TRUE(R.Success);
  ASSERT_EQ(R.Measures[0].size(), 1u);
  // The measure must decrease along x' = x - 1 under x >= 1 and be
  // bounded; x (possibly scaled/shifted) qualifies. Check semantically.
  const LinExpr &M = R.Measures[0][0];
  EXPECT_GT(M.coeff(X), 0);
}

TEST(Ranking, FooTermCase) {
  // The paper's running example, scenario x>=0 && y<0 (assumption a15):
  // x>=0 && x'=x+y && y'=y && x'>=0 && y<0 with U3pr(x,y) -> U3pr(x',y').
  VarId X = mkVar("rfx"), Y = mkVar("rfy");
  VarId XP = mkVar("rfx'"), YP = mkVar("rfy'");
  RankEdge E;
  E.Src = E.Dst = 0;
  E.Ctx = {ge(ex(X), LinExpr(0)), eq(ex(XP), ex(X) + ex(Y)),
           eq(ex(YP), ex(Y)), ge(ex(XP), LinExpr(0)),
           le(ex(Y), LinExpr(-1))};
  E.DstArgs = {ex(XP), ex(YP)};
  RankResult R = synthesizeRanking({{X, Y}}, {E});
  ASSERT_TRUE(R.Success);
  ASSERT_EQ(R.Measures[0].size(), 1u);
  // The paper derives r(x,y) = x; any valid measure must use x with a
  // positive coefficient.
  EXPECT_GT(R.Measures[0][0].coeff(X), 0);
}

TEST(Ranking, FooLoopCaseFails) {
  // Scenario x>=0 && y>=0: x grows or stays; no ranking function exists.
  VarId X = mkVar("rgx"), Y = mkVar("rgy");
  VarId XP = mkVar("rgx'"), YP = mkVar("rgy'");
  RankEdge E;
  E.Src = E.Dst = 0;
  E.Ctx = {ge(ex(X), LinExpr(0)), eq(ex(XP), ex(X) + ex(Y)),
           eq(ex(YP), ex(Y)), ge(ex(XP), LinExpr(0)),
           ge(ex(Y), LinExpr(0))};
  E.DstArgs = {ex(XP), ex(YP)};
  RankResult R = synthesizeRanking({{X, Y}}, {E});
  EXPECT_FALSE(R.Success);
}

TEST(Ranking, LexicographicTwoPhase) {
  // Nested-loop shape over (i, j):
  //   outer: i' = i - 1, j' arbitrary bounded by n... modeled as
  //          i >= 1, i' = i - 1           (j unconstrained -> j' free)
  //   inner: i' = i, j' = j - 1, j >= 1.
  // No single linear function handles both; a 2-component measure does.
  VarId I = mkVar("lxi"), J = mkVar("lxj");
  VarId IP = mkVar("lxi'"), JP = mkVar("lxj'");
  RankEdge Outer;
  Outer.Src = Outer.Dst = 0;
  Outer.Ctx = {ge(ex(I), LinExpr(1)), eq(ex(IP), ex(I) - 1),
               ge(ex(JP), LinExpr(0))};
  Outer.DstArgs = {ex(IP), ex(JP)};
  RankEdge Inner;
  Inner.Src = Inner.Dst = 0;
  Inner.Ctx = {ge(ex(I), LinExpr(0)), ge(ex(J), LinExpr(1)),
               eq(ex(IP), ex(I)), eq(ex(JP), ex(J) - 1)};
  Inner.DstArgs = {ex(IP), ex(JP)};
  RankResult R = synthesizeRanking({{I, J}}, {Outer, Inner});
  ASSERT_TRUE(R.Success);
  EXPECT_GE(R.Measures[0].size(), 2u);
}

TEST(Ranking, MutualRecursionTwoPreds) {
  // f(x) calls g(x), g(x) calls f(x-1) under x >= 1: measures exist for
  // both preds.
  VarId X = mkVar("mrx"), XP = mkVar("mrx'");
  RankEdge FtoG;
  FtoG.Src = 0;
  FtoG.Dst = 1;
  FtoG.Ctx = {ge(ex(X), LinExpr(0)), eq(ex(XP), ex(X))};
  FtoG.DstArgs = {ex(XP)};
  RankEdge GtoF;
  GtoF.Src = 1;
  GtoF.Dst = 0;
  GtoF.Ctx = {ge(ex(X), LinExpr(1)), eq(ex(XP), ex(X) - 1)};
  GtoF.DstArgs = {ex(XP)};
  RankResult R = synthesizeRanking({{X}, {X}}, {FtoG, GtoF});
  ASSERT_TRUE(R.Success);
  EXPECT_FALSE(R.Measures[0].empty());
  EXPECT_FALSE(R.Measures[1].empty());
}

TEST(Ranking, InfeasibleEdgesIgnored) {
  VarId X = mkVar("iex"), XP = mkVar("iex'");
  RankEdge Dead;
  Dead.Src = Dead.Dst = 0;
  Dead.Ctx = {ge(ex(X), LinExpr(1)), le(ex(X), LinExpr(0)),
              eq(ex(XP), ex(X) + 1)};
  Dead.DstArgs = {ex(XP)};
  RankResult R = synthesizeRanking({{X}}, {Dead});
  EXPECT_TRUE(R.Success);
}

TEST(Ranking, SelfLoopArgsOverParams) {
  // Args expressed directly over the canonical params (x := x - 1 with
  // no primed vars): exercises simultaneous substitution.
  VarId X = mkVar("spx");
  RankEdge E;
  E.Src = E.Dst = 0;
  E.Ctx = {ge(ex(X), LinExpr(1))};
  E.DstArgs = {ex(X) - 1};
  RankResult R = synthesizeRanking({{X}}, {E});
  ASSERT_TRUE(R.Success);
}

//===----------------------------------------------------------------------===//
// Ranking candidate fan-out
//===----------------------------------------------------------------------===//

namespace {

/// A ranking problem, built afresh in whatever variable-pool view is
/// active.
struct RankProblem {
  std::vector<std::vector<VarId>> PredParams;
  std::vector<RankEdge> Edges;
};
using RankProblemBuilder = std::function<RankProblem()>;

RankEdge rankEdge(size_t Src, size_t Dst, ConstraintConj Ctx,
                  std::vector<LinExpr> DstArgs) {
  RankEdge E;
  E.Src = Src;
  E.Dst = Dst;
  E.Ctx = std::move(Ctx);
  E.DstArgs = std::move(DstArgs);
  return E;
}

/// The one SCC of the `gcd-like` loop that reaches a 10-candidate
/// round: four predicates over (x, y), ten edges, and no candidate's LP
/// feasible. The contexts are the batch pipeline's, atom for atom, with
/// its fresh successor variables x!b1!0 and y!b1!1 spelled gx' and gy'.
RankProblem gcdScc() {
  LinExpr X = ex(mkVar("gx")), Y = ex(mkVar("gy"));
  LinExpr XN = ex(mkVar("gx'")), YN = ex(mkVar("gy'"));
  auto Le = [](const LinExpr &E) { return Constraint::leZero(E); };
  auto Eq = [](const LinExpr &E) { return Constraint::eqZero(E); };
  // Shared atoms of the x-step (x := x - y) and y-step (y := y - x)
  // edges.
  Constraint XStep = Eq(-X + Y + XN), XGtY = Le(-X + Y + 1),
             XPos = Le(-X + 1), XNPos = Le(-XN + 1);
  Constraint YStep = Eq(X - Y + YN), XLeY = Le(X - Y), XLtY = Le(X - Y + 1);
  std::vector<LinExpr> XArgs = {XN, Y}, YArgs = {X, YN};
  RankProblem P;
  P.PredParams.assign(4, {});
  for (std::vector<VarId> &Ps : P.PredParams)
    Ps = {mkVar("gx"), mkVar("gy")};
  P.Edges = {
      rankEdge(0, 3,
               {XStep, XGtY, XPos, XNPos, Le(-Y + XN + 1), Le(X * 2 - Y * 3),
                Le(-Y * 2 + XN * 3 + 1), XGtY},
               XArgs),
      rankEdge(1, 0,
               {XStep, XGtY, XPos, XNPos, Le(Y - XN + 1), Le(-X * 2 + Y * 3 + 1),
                Le(-Y * 3 + XN * 2), XGtY},
               XArgs),
      rankEdge(1, 1,
               {XStep, XGtY, XPos, XNPos, Le(Y - XN + 1), Le(-X * 2 + Y * 3 + 1),
                XGtY, Le(Y * 3 - XN * 2 + 1)},
               XArgs),
      rankEdge(1, 2,
               {XStep, XGtY, XPos, Le(Y * 2 - XN * 3), XNPos, Le(-Y + XN + 1),
                Le(-X * 2 + Y * 3 + 1), XGtY},
               XArgs),
      rankEdge(1, 3,
               {XStep, XGtY, XPos, XNPos, Le(-Y + XN + 1), Le(-X * 2 + Y * 3 + 1),
                Le(-Y * 2 + XN * 3 + 1), XGtY},
               XArgs),
      rankEdge(2, 1,
               {XLeY, Le(-X * 2 + YN * 3 + 1), YStep, Le(-X * 3 + Y * 2), XPos,
                XLtY, Le(-X + YN + 1), XLtY},
               YArgs),
      rankEdge(3, 0,
               {XLeY, Le(X * 2 - YN * 3), YStep, XPos, Le(X * 3 - Y * 2 + 1),
                XLtY, Le(-X + YN + 1), XLtY},
               YArgs),
      rankEdge(3, 1,
               {XLeY, Le(-X * 2 + YN * 3 + 1), YStep, XPos,
                Le(X * 3 - Y * 2 + 1), XLtY, Le(-X + YN + 1), XLtY},
               YArgs),
      rankEdge(3, 2,
               {XLeY, YStep, XPos, Le(-X * 3 + YN * 2), Le(X * 3 - Y * 2 + 1),
                XLtY, Le(X - YN + 1), XLtY},
               YArgs),
      rankEdge(3, 3,
               {XLeY, YStep, XPos, Le(X * 3 - Y * 2 + 1), XLtY, Le(X - YN + 1),
                Le(X * 3 - YN * 2 + 1), XLtY},
               YArgs),
  };
  return P;
}

/// Nested-loop edges over (i, j): inner steps j down under i' = i,
/// outer steps i down and resets j to anything non-negative, and a
/// second inner edge steps j by 2. The first round's candidate 0 (inner
/// strict) fails, since the outer edge leaves j unbounded; candidate 1
/// (outer strict) wins with a measure in i. The next round ranks the
/// inner edges by j.
RankEdge innerEdge(int64_t Step) {
  LinExpr I = ex(mkVar("fi")), J = ex(mkVar("fj"));
  LinExpr IP = ex(mkVar("fi'")), JP = ex(mkVar("fj'"));
  return rankEdge(0, 0,
                  {ge(I, LinExpr(0)), ge(J, LinExpr(Step)), eq(IP, I),
                   eq(JP, J - Step)},
                  {IP, JP});
}
RankEdge outerEdge() {
  LinExpr I = ex(mkVar("fi"));
  LinExpr IP = ex(mkVar("fi'")), JP = ex(mkVar("fj'"));
  return rankEdge(0, 0, {ge(I, LinExpr(1)), eq(IP, I - 1), ge(JP, LinExpr(0))},
                  {IP, JP});
}
std::vector<std::vector<VarId>> nestedParams() {
  return {{mkVar("fi"), mkVar("fj")}};
}

/// Round 0: three candidates, the second wins.
RankProblem secondOfThree() {
  return {nestedParams(), {innerEdge(1), outerEdge(), innerEdge(2)}};
}
/// Round 0: two candidates, the last wins.
RankProblem lastOfTwo() {
  return {nestedParams(), {innerEdge(1), outerEdge()}};
}
/// Round 0: two candidates, candidate 0 wins (both edges count x down).
RankProblem firstOfTwo() {
  LinExpr X = ex(mkVar("fx")), XP = ex(mkVar("fx'"));
  return {{{mkVar("fx")}},
          {rankEdge(0, 0, {ge(X, LinExpr(1)), eq(XP, X - 1)}, {XP}),
           rankEdge(0, 0, {ge(X, LinExpr(2)), eq(XP, X - 2)}, {XP})}};
}

struct RankRun {
  bool Success = false;
  std::string Measures;
  uint64_t LpSolves = 0;
  uint64_t LpPivots = 0;
  /// Bindings the run's session holds afterwards.
  size_t Bindings = 0;
  /// Spelling and id of the group's next fresh variable.
  std::string NextFresh;
};

/// Builds and ranks a problem in a fresh session and group block, on a
/// task of a \p Workers-worker pool, or on the calling thread when
/// \p Workers is 0.
RankRun rankIn(const RankProblemBuilder &Build, unsigned Workers) {
  VarPool::Session S;
  RankRun Out;
  auto Run = [&] {
    VarPool::SessionScope Lease(S);
    VarPool::Scope Block(VarPool::groupBlock(0));
    RankProblem P = Build();
    SolverContext SC;
    RankResult R = synthesizeRanking(P.PredParams, P.Edges, 4, SC);
    Out.Success = R.Success;
    for (const std::vector<LinExpr> &M : R.Measures) {
      for (const LinExpr &E : M)
        Out.Measures += E.str() + "; ";
      Out.Measures += "| ";
    }
    Out.LpSolves = SC.stats().LpSolves;
    Out.LpPivots = SC.stats().LpPivots;
    VarId Next = freshVar("probe");
    Out.NextFresh = varName(Next) + " = " + std::to_string(Next);
  };
  if (Workers == 0) {
    Run();
  } else {
    WorkStealingPool Pool(Workers);
    Pool.submit(Run);
    Pool.wait();
  }
  Out.Bindings = S.size();
  return Out;
}

/// Ranks \p Build outside any pool and on 2- and 4-worker pools: the
/// result, the LP charge and the variables minted must not depend on
/// where it ran. Returns the in-order run and the 4-worker one.
std::pair<RankRun, RankRun> rankEverywhere(const RankProblemBuilder &Build) {
  RankRun InOrder = rankIn(Build, 0);
  RankRun Pooled;
  for (unsigned Workers : {2u, 4u}) {
    Pooled = rankIn(Build, Workers);
    EXPECT_EQ(Pooled.Success, InOrder.Success) << Workers << " workers";
    EXPECT_EQ(Pooled.Measures, InOrder.Measures) << Workers << " workers";
    EXPECT_EQ(Pooled.LpSolves, InOrder.LpSolves) << Workers << " workers";
    EXPECT_EQ(Pooled.LpPivots, InOrder.LpPivots) << Workers << " workers";
    EXPECT_EQ(Pooled.Bindings, InOrder.Bindings) << Workers << " workers";
    EXPECT_EQ(Pooled.NextFresh, InOrder.NextFresh) << Workers << " workers";
  }
  return {InOrder, Pooled};
}

} // namespace

TEST(Ranking, FanOutMatchesInOrderWhenNoCandidateWins) {
  auto [InOrder, Pooled] = rankEverywhere(gcdScc);
  EXPECT_FALSE(InOrder.Success);
  EXPECT_EQ(InOrder.LpSolves, 10u); // Every candidate of the one round.
  // The round's pivots in a cold `hiptnt --batch @fig11`, too.
  EXPECT_EQ(InOrder.LpPivots, 5358u);
  // Every candidate's templates stay minted: four predicates of three
  // coefficients for each of the ten candidates.
  EXPECT_EQ(Pooled.Bindings, 4 + 10 * 4 * 3 + 1u);
}

TEST(Ranking, FanOutMatchesInOrderWhenALaterCandidateWins) {
  auto [InOrder, Pooled] = rankEverywhere(secondOfThree);
  ASSERT_TRUE(InOrder.Success);
  // Round 0 solves candidates 0 and 1, round 1 its candidate 0, however
  // many LPs the helpers started.
  EXPECT_EQ(InOrder.LpSolves, 3u);
  // Candidate 2's template (one pred, three coefficients) was minted
  // for the fan-out and rewound: round 1's template and the probe take
  // the ids it had.
  EXPECT_EQ(Pooled.Bindings, 4 + 3 * 3 + 1u);
  EXPECT_EQ(Pooled.NextFresh,
            "probe!b1!9 = " + std::to_string(VarPool::blockStart(1) + 13));

  auto [LastInOrder, LastPooled] = rankEverywhere(lastOfTwo);
  ASSERT_TRUE(LastInOrder.Success);
  EXPECT_EQ(LastInOrder.LpSolves, 3u);
}

TEST(Ranking, FanOutMatchesInOrderWhenCandidateZeroWins) {
  auto [InOrder, Pooled] = rankEverywhere(firstOfTwo);
  ASSERT_TRUE(InOrder.Success);
  EXPECT_EQ(InOrder.LpSolves, 1u);
}

//===----------------------------------------------------------------------===//
// Abduction
//===----------------------------------------------------------------------===//

TEST(Abduction, PaperFooExample) {
  // ctx: x >= 0 && x' = x + y && y' = y; target: x' >= 0.
  // The paper's engine discovers y >= 0 (one variable), better than the
  // trivial x + y >= 0 (two variables).
  SolverContext SC;
  VarId X = mkVar("abx"), Y = mkVar("aby");
  VarId XP = mkVar("abx'"), YP = mkVar("aby'");
  ConstraintConj Ctx = {ge(ex(X), LinExpr(0)), eq(ex(XP), ex(X) + ex(Y)),
                        eq(ex(YP), ex(Y))};
  ConstraintConj Target = {ge(ex(XP), LinExpr(0))};
  AbductionResult R = abduce(Ctx, Target, {X, Y});
  ASSERT_TRUE(R.Success);
  // Must mention y and not x (minimum-variable preference).
  EXPECT_NE(R.Alpha.expr().coeff(Y), 0);
  EXPECT_EQ(R.Alpha.expr().coeff(X), 0);
  // Check it really works: ctx && alpha ==> target.
  Formula Strengthened = Formula::conj2(conjToFormula(Ctx),
                                        Formula::atom(R.Alpha));
  EXPECT_TRUE(SC.entails(Strengthened, conjToFormula(Target)));
}

TEST(Abduction, AlreadyImpliedNeedsNothing) {
  VarId X = mkVar("abx");
  ConstraintConj Ctx = {ge(ex(X), LinExpr(5))};
  ConstraintConj Target = {ge(ex(X), LinExpr(0))};
  AbductionResult R = abduce(Ctx, Target, {X});
  ASSERT_TRUE(R.Success);
  // Alpha is trivially true.
  EXPECT_TRUE(Formula::atom(R.Alpha).isTop());
}

TEST(Abduction, RejectsContradictoryTarget) {
  // ctx: x >= 1; target: x <= -1. Any alpha over {x} that entails the
  // target contradicts the context, so abduction must fail.
  VarId X = mkVar("abx");
  ConstraintConj Ctx = {ge(ex(X), LinExpr(1))};
  ConstraintConj Target = {le(ex(X), LinExpr(-1))};
  AbductionResult R = abduce(Ctx, Target, {X});
  EXPECT_FALSE(R.Success);
}

TEST(Abduction, TwoVariableCondition) {
  // ctx: x' = x - y; target: x' >= 1. Needs x - y >= 1: two variables.
  SolverContext SC;
  VarId X = mkVar("abx"), Y = mkVar("aby"), XP = mkVar("abx'");
  ConstraintConj Ctx = {eq(ex(XP), ex(X) - ex(Y))};
  ConstraintConj Target = {ge(ex(XP), LinExpr(1))};
  AbductionResult R = abduce(Ctx, Target, {X, Y});
  ASSERT_TRUE(R.Success);
  EXPECT_NE(R.Alpha.expr().coeff(X), 0);
  EXPECT_NE(R.Alpha.expr().coeff(Y), 0);
  Formula Strengthened =
      Formula::conj2(conjToFormula(Ctx), Formula::atom(R.Alpha));
  EXPECT_TRUE(SC.entails(Strengthened, conjToFormula(Target)));
  EXPECT_TRUE(SC.definitelySat(Strengthened));
}

TEST(Abduction, ConstantOnlyCondition) {
  // ctx: y = 3; target: y >= 2 is already implied; but target y >= 4
  // cannot be fixed by any alpha (inconsistent), so expect failure.
  VarId Y = mkVar("aby");
  ConstraintConj Ctx = {eq(ex(Y), LinExpr(3))};
  EXPECT_TRUE(abduce(Ctx, {ge(ex(Y), LinExpr(2))}, {Y}).Success);
  EXPECT_FALSE(abduce(Ctx, {ge(ex(Y), LinExpr(4))}, {Y}).Success);
}

TEST(Abduction, EmptyAntecedent) {
  // The backwards conditional-termination pass can reach abduce with a
  // vacuous context (an obligation whose specialized edge context
  // projected away entirely). An empty conjunction is "true": alpha
  // alone must establish the target, so abduction reduces to "is the
  // target itself expressible over the candidate variables".
  SolverContext SC;
  VarId X = mkVar("abx");
  ConstraintConj Ctx = {};
  ConstraintConj Target = {ge(ex(X), LinExpr(0))};
  AbductionResult R = abduce(Ctx, Target, {X});
  ASSERT_TRUE(R.Success);
  Formula Strengthened = Formula::atom(R.Alpha);
  EXPECT_TRUE(SC.entails(Strengthened, conjToFormula(Target)));
  EXPECT_TRUE(SC.definitelySat(Strengthened));
}

TEST(Abduction, ContradictoryCaseSplits) {
  // Contradictory case-split constraints in the context: no alpha can
  // satisfy condition (i) (ctx && alpha satisfiable), so abduction
  // must fail cleanly rather than emit a vacuously "entailing" alpha —
  // exactly what an infeasible specialized edge handed to the
  // backwards pass must produce.
  VarId X = mkVar("abx");
  ConstraintConj Ctx = {ge(ex(X), LinExpr(1)), le(ex(X), LinExpr(-1))};
  ConstraintConj Target = {ge(ex(X), LinExpr(0))};
  AbductionResult R = abduce(Ctx, Target, {X});
  EXPECT_FALSE(R.Success);
}

TEST(Abduction, Int64ExtremeCoefficients) {
  // Coefficients near the int64 edge pushed through the Farkas
  // multipliers. The property fence is soundness, not completeness: an
  // overflow-aware implementation may fail the query, but a returned
  // alpha must genuinely strengthen ctx to the target and stay
  // satisfiable with it.
  SolverContext SC;
  const int64_t Big = int64_t(1) << 62;
  VarId X = mkVar("abx"), XP = mkVar("abx'");
  {
    // ctx: x' = x - 2^62; target: x' >= 0 (alpha wants x >= 2^62).
    ConstraintConj Ctx = {eq(ex(XP), ex(X) - LinExpr(Big))};
    ConstraintConj Target = {ge(ex(XP), LinExpr(0))};
    AbductionResult R = abduce(Ctx, Target, {X});
    if (R.Success) {
      Formula Strengthened =
          Formula::conj2(conjToFormula(Ctx), Formula::atom(R.Alpha));
      EXPECT_TRUE(SC.entails(Strengthened, conjToFormula(Target)));
      EXPECT_TRUE(SC.definitelySat(Strengthened));
    }
  }
  {
    // Extreme variable coefficient: ctx: x' = 2^62 * x; target:
    // x' >= 2^62 (alpha wants x >= 1).
    ConstraintConj Ctx = {eq(ex(XP), ex(X) * Big)};
    ConstraintConj Target = {ge(ex(XP), LinExpr(Big))};
    AbductionResult R = abduce(Ctx, Target, {X});
    if (R.Success) {
      Formula Strengthened =
          Formula::conj2(conjToFormula(Ctx), Formula::atom(R.Alpha));
      EXPECT_TRUE(SC.entails(Strengthened, conjToFormula(Target)));
      EXPECT_TRUE(SC.definitelySat(Strengthened));
    }
  }
  {
    // Contradiction at the extreme: ctx pins x' to -2^62, the target
    // demands x' >= 2^62 — alpha over x cannot mend a fixed x', so a
    // success here would be unsound.
    ConstraintConj Ctx = {eq(ex(XP), LinExpr(-Big))};
    ConstraintConj Target = {ge(ex(XP), LinExpr(Big))};
    EXPECT_FALSE(abduce(Ctx, Target, {X}).Success);
  }
}

TEST(Abduction, EqualityTarget) {
  // ctx: x' = x + y && y <= 0; target: x' = x. One direction follows
  // from y <= 0; the other needs the abduced y >= 0 (jointly y = 0).
  SolverContext SC;
  VarId X = mkVar("abx"), Y = mkVar("aby"), XP = mkVar("abx'");
  ConstraintConj Ctx = {eq(ex(XP), ex(X) + ex(Y)), le(ex(Y), LinExpr(0))};
  ConstraintConj Target = {eq(ex(XP), ex(X))};
  AbductionResult R = abduce(Ctx, Target, {X, Y});
  ASSERT_TRUE(R.Success);
  Formula Strengthened =
      Formula::conj2(conjToFormula(Ctx), Formula::atom(R.Alpha));
  EXPECT_TRUE(SC.entails(Strengthened, conjToFormula(Target)));
  EXPECT_TRUE(SC.definitelySat(Strengthened));
}
