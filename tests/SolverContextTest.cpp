//===- tests/SolverContextTest.cpp - instance-based solver layer -*- C++ -*-===//
//
// Coverage for SolverContext: per-context stats isolation, exact query
// counting and budget charging, budget cutoffs at query granularity,
// the counted toDNF entry point (fresh witnesses per call, clause
// cap), formula-node hash-consing, and the process-wide default
// context.
//
//===----------------------------------------------------------------------===//

#include "arith/Intern.h"
#include "solver/Cancellation.h"
#include "solver/SolverContext.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace tnt;

namespace {

LinExpr ex(const char *N) { return LinExpr::var(mkVar(N)); }

Formula cmpf(const char *V, CmpKind K, int64_t C) {
  return Formula::cmp(ex(V), K, LinExpr(C));
}

TEST(SolverContext, ContextsDoNotShareStats) {
  SolverContext A, B;
  Formula F = Formula::conj2(cmpf("scx_a", CmpKind::Ge, 0),
                             cmpf("scx_a", CmpKind::Le, 10));

  EXPECT_EQ(A.isSat(F), Tri::True);
  EXPECT_EQ(A.isSat(F), Tri::True);
  EXPECT_GE(A.stats().SatQueries, 2u);

  // B never saw the query: no stats, and it answers like A.
  EXPECT_EQ(B.stats().SatQueries, 0u);
  EXPECT_EQ(B.isSat(F), Tri::True);
  EXPECT_GE(B.stats().SatQueries, 1u);

  // Resetting one context's stats leaves the other untouched.
  A.resetStats();
  EXPECT_EQ(A.stats().SatQueries, 0u);
  EXPECT_GE(B.stats().SatQueries, 1u);
}

TEST(SolverContext, EveryQueryCountsAndChargesOnce) {
  // Each isSatConj call is one SatQueries, one unit of fuel and one
  // token charge; a repeated query is counted and charged again.
  ConstraintConj Unsat = {
      Constraint::make(ex("scx_iu"), CmpKind::Ge, LinExpr(5)),
      Constraint::make(ex("scx_iu"), CmpKind::Le, LinExpr(3))};
  ConstraintConj Sat = {
      Constraint::make(ex("scx_is"), CmpKind::Ge, LinExpr(1)),
      Constraint::make(ex("scx_is"), CmpKind::Le, LinExpr(4))};
  CancellationToken T(100);
  SolverContext SC;
  SC.attachCancellation(&T);

  EXPECT_EQ(SC.isSatConj(Unsat), Tri::False);
  EXPECT_EQ(SC.stats().SatQueries, 1u);
  EXPECT_EQ(T.charged(), 1u);

  EXPECT_EQ(SC.isSatConj(Sat), Tri::True);
  EXPECT_EQ(SC.isSatConj(Sat), Tri::True);
  SolverStats S = SC.stats();
  EXPECT_EQ(S.SatQueries, 3u);
  EXPECT_EQ(S.fuelUsed(), 3u);
  EXPECT_EQ(T.charged(), 3u);
}

TEST(SolverContext, BudgetCutoffLandsOnePastTheBudget) {
  // A budget small enough to bite: polling between queries, like the
  // inference loops do, stops the context exactly one query past the
  // budget, with the answers an unbudgeted context gives.
  LinExpr X = ex("lad_x"), Y = ex("lad_y");
  std::vector<ConstraintConj> Distinct = {
      {Constraint::make(X, CmpKind::Ge, LinExpr(5)),
       Constraint::make(X, CmpKind::Le, LinExpr(3))},
      {Constraint::make(Y, CmpKind::Ge, LinExpr(1)),
       Constraint::make(Y, CmpKind::Le, LinExpr(4))},
      {Constraint::make(X + Y, CmpKind::Ge, LinExpr(3)),
       Constraint::make(X + Y, CmpKind::Le, LinExpr(2))},
      {Constraint::make(X + Y, CmpKind::Ge, LinExpr(3)),
       Constraint::make(X - Y, CmpKind::Le, LinExpr(1))}};
  std::vector<ConstraintConj> Stream;
  for (unsigned R = 0; R < 10; ++R)
    Stream.insert(Stream.end(), Distinct.begin(), Distinct.end());

  SolverContext Reference;
  std::vector<Tri> All;
  for (const ConstraintConj &Conj : Stream)
    All.push_back(Reference.isSatConj(Conj));

  for (uint64_t Budget : {5u, 12u, 30u}) {
    SCOPED_TRACE("budget=" + std::to_string(Budget));
    CancellationToken T(Budget);
    SolverContext SC;
    SC.attachCancellation(&T);
    std::vector<Tri> Answers;
    while (Answers.size() < Stream.size() && !SC.cancelled())
      Answers.push_back(SC.isSatConj(Stream[Answers.size()]));
    EXPECT_EQ(Answers.size(), Budget + 1);
    EXPECT_EQ(T.charged(), Answers.size());
    EXPECT_EQ(SC.stats().fuelUsed(), Answers.size());
    EXPECT_EQ(Answers,
              std::vector<Tri>(All.begin(), All.begin() + Answers.size()));
  }
}

//===----------------------------------------------------------------------===//
// toDNF
//===----------------------------------------------------------------------===//

/// The variables of a DNF that are not free in \p F: the fresh
/// existential witnesses toNNF renamed apart.
std::set<VarId> witnessVars(const Formula &F,
                            const std::vector<ConstraintConj> &DNF) {
  std::set<VarId> Vs;
  for (const ConstraintConj &Conj : DNF)
    for (const Constraint &C : Conj)
      C.collectVars(Vs);
  for (VarId V : F.freeVars())
    Vs.erase(V);
  return Vs;
}

TEST(SolverContext, ToDnfRenamesExistentialWitnessPerCall) {
  SolverContext SC;
  VarId W = mkVar("dnf_w");
  Formula F = Formula::conj2(
      cmpf("dnf_x", CmpKind::Ge, 0),
      Formula::exists({W}, Formula::cmp(LinExpr::var(W), CmpKind::Ge,
                                        ex("dnf_x"))));
  auto D1 = SC.toDNF(F);
  auto D2 = SC.toDNF(F);
  auto D3 = SC.toDNF(F);
  ASSERT_TRUE(D1.has_value() && D2.has_value() && D3.has_value());
  std::set<VarId> W1 = witnessVars(F, *D1);
  std::set<VarId> W2 = witnessVars(F, *D2);
  std::set<VarId> W3 = witnessVars(F, *D3);
  ASSERT_EQ(W1.size(), 1u);
  ASSERT_EQ(W2.size(), 1u);
  ASSERT_EQ(W3.size(), 1u);
  // Every call gets its own fresh witness: no expansion pins one name.
  EXPECT_NE(*W1.begin(), *W2.begin());
  EXPECT_NE(*W2.begin(), *W3.begin());
  EXPECT_NE(*W1.begin(), *W3.begin());
  EXPECT_EQ(SC.stats().DnfQueries, 3u);
}

TEST(SolverContext, SimplifyEliminatesNegatedExistentialByProjection) {
  // simplify routes negated existentials through exact projection:
  // not (exists b . x < b) == not true == false.
  SolverContext SC;
  VarId B = mkVar("neg_sb");
  Formula Ex = Formula::exists(
      {B}, Formula::cmp(ex("neg_sx"), CmpKind::Lt, LinExpr::var(B)));
  Formula S = SC.simplify(Formula::neg(Ex));
  EXPECT_TRUE(S.isBottom());
}

TEST(SolverContext, ToDnfRespectsClauseCap) {
  SolverContext SC;
  // (a1 || b1) && (a2 || b2): four clauses.
  Formula F = Formula::conj2(
      Formula::disj2(cmpf("dnf_o1", CmpKind::Le, 0),
                     cmpf("dnf_o1", CmpKind::Ge, 10)),
      Formula::disj2(cmpf("dnf_o2", CmpKind::Le, 0),
                     cmpf("dnf_o2", CmpKind::Ge, 10)));
  EXPECT_FALSE(SC.toDNF(F, 2).has_value());
  auto D = SC.toDNF(F, 16);
  ASSERT_TRUE(D.has_value());
  EXPECT_EQ(D->size(), 4u);
  // A cap that fitted once does not make a smaller one fit.
  EXPECT_FALSE(SC.toDNF(F, 2).has_value());
  EXPECT_EQ(SC.stats().DnfQueries, 3u);
  // True, False and atoms expand uncounted.
  (void)SC.toDNF(Formula::top());
  (void)SC.toDNF(Formula::bottom());
  (void)SC.toDNF(cmpf("dnf_t", CmpKind::Ge, 0));
  EXPECT_EQ(SC.stats().DnfQueries, 3u);
}

TEST(ArithIntern, FormulaNodesAreHashConsed) {
  Formula A = cmpf("int_f1", CmpKind::Ge, 0);
  Formula B = cmpf("int_f2", CmpKind::Le, 3);
  Formula F1 = Formula::conj2(A, B);
  size_t Mid = ArithIntern::global().formulaCount();
  // Re-building the same conjunction (either child order) allocates no
  // new node.
  Formula F2 = Formula::conj2(B, A);
  EXPECT_EQ(ArithIntern::global().formulaCount(), Mid);
  EXPECT_EQ(F1.node(), F2.node());
  // A genuinely new formula does.
  Formula G = Formula::neg(F1);
  EXPECT_GT(ArithIntern::global().formulaCount(), Mid);
  EXPECT_NE(G.node(), F1.node());
}

TEST(SolverContext, DefaultContextIsProcessWide) {
  // One context per process: every defaultCtx() call returns it, and
  // its counters persist between calls.
  SolverContext &SC = SolverContext::defaultCtx();
  EXPECT_EQ(&SC, &SolverContext::defaultCtx());
  SC.resetStats();
  Formula F = Formula::conj2(cmpf("scx_f", CmpKind::Ge, 1),
                             cmpf("scx_f", CmpKind::Le, 4));
  EXPECT_EQ(SC.isSat(F), Tri::True);
  EXPECT_EQ(SolverContext::defaultCtx().isSat(F), Tri::True);
  EXPECT_GE(SolverContext::defaultCtx().stats().SatQueries, 2u);
}

} // namespace
