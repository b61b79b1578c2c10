//===- tests/SolverContextTest.cpp - instance-based solver layer -*- C++ -*-===//
//
// Coverage for the SolverContext refactor: per-context cache/stats
// isolation, hit/miss and interval-rung accounting, fuel transparency
// of the query ladder with its cache rung on and off, LRU bounding,
// hash-consed interning pointer identity, and the process-wide default
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

TEST(SolverContext, ContextsDoNotShareCachesOrStats) {
  SolverContext A, B;
  Formula F = Formula::conj2(cmpf("scx_a", CmpKind::Ge, 0),
                             cmpf("scx_a", CmpKind::Le, 10));

  EXPECT_EQ(A.isSat(F), Tri::True);
  EXPECT_EQ(A.isSat(F), Tri::True);
  SolverStats SA = A.stats();
  EXPECT_GE(SA.SatQueries, 2u);
  EXPECT_GE(SA.CacheHits, 1u);

  // B never saw the query: no stats, and its first query is a miss.
  SolverStats SB = B.stats();
  EXPECT_EQ(SB.SatQueries, 0u);
  EXPECT_EQ(SB.CacheHits, 0u);
  EXPECT_EQ(B.cacheSize(), 0u);
  EXPECT_EQ(B.isSat(F), Tri::True);
  SB = B.stats();
  EXPECT_GE(SB.CacheMisses, 1u);
  EXPECT_EQ(SB.CacheHits, 0u);

  // Resetting one context's stats leaves the other untouched.
  A.resetStats();
  EXPECT_EQ(A.stats().SatQueries, 0u);
  EXPECT_GE(B.stats().SatQueries, 1u);
}

TEST(SolverContext, HitMissAccountingIsExact) {
  SolverContext SC;
  ConstraintConj Conj = {Constraint::make(ex("scx_h"), CmpKind::Ge, LinExpr(1)),
                         Constraint::make(ex("scx_h"), CmpKind::Le,
                                          LinExpr(5))};
  EXPECT_EQ(SC.isSatConj(Conj), Tri::True);
  SolverStats S1 = SC.stats();
  EXPECT_EQ(S1.SatQueries, 1u);
  EXPECT_EQ(S1.CacheMisses, 1u);
  EXPECT_EQ(S1.CacheHits, 0u);

  // Same conjunction, different order: canonical key, so a hit.
  ConstraintConj Rev(Conj.rbegin(), Conj.rend());
  EXPECT_EQ(SC.isSatConj(Rev), Tri::True);
  SolverStats S2 = SC.stats();
  EXPECT_EQ(S2.SatQueries, 2u);
  EXPECT_EQ(S2.CacheMisses, 1u);
  EXPECT_EQ(S2.CacheHits, 1u);
  EXPECT_EQ(S2.SatQueries, S2.CacheHits + S2.CacheMisses);
}

TEST(SolverContext, ZeroCapacityDisablesCaching) {
  SolverContext SC(/*CacheCapacity=*/0);
  EXPECT_FALSE(SC.cacheEnabled());
  Formula F = cmpf("scx_u", CmpKind::Ge, 3);
  EXPECT_EQ(SC.isSat(F), Tri::True);
  EXPECT_EQ(SC.isSat(F), Tri::True);
  SolverStats S = SC.stats();
  // Queries still count (fuel accounting), but a disabled cache records
  // no lookups at all — neither hits nor misses — so stats readers can
  // tell "disabled" apart from "0% hit rate".
  EXPECT_GE(S.SatQueries, 2u);
  EXPECT_EQ(S.CacheHits, 0u);
  EXPECT_EQ(S.CacheMisses, 0u);
  EXPECT_EQ(SC.cacheSize(), 0u);
}

TEST(SolverContext, IntervalAnswerCountsAndChargesOnce) {
  // A query the interval prefilter answers is charged exactly like the
  // Omega run it replaces: one SatQueries, one Interval* count and one
  // token charge — on the cache-disabled path and on the cached path.
  ConstraintConj Unsat = {
      Constraint::make(ex("scx_iu"), CmpKind::Ge, LinExpr(5)),
      Constraint::make(ex("scx_iu"), CmpKind::Le, LinExpr(3))};
  ConstraintConj Sat = {
      Constraint::make(ex("scx_is"), CmpKind::Ge, LinExpr(1)),
      Constraint::make(ex("scx_is"), CmpKind::Le, LinExpr(4))};
  for (size_t Capacity : {size_t(0), SolverContext::DefaultCacheCapacity}) {
    SCOPED_TRACE("capacity=" + std::to_string(Capacity));
    CancellationToken T(100);
    SolverContext SC(Capacity);
    SC.attachCancellation(&T);

    EXPECT_EQ(SC.isSatConj(Unsat), Tri::False);
    SolverStats S = SC.stats();
    EXPECT_EQ(S.SatQueries, 1u);
    EXPECT_EQ(S.IntervalUnsat, 1u);
    EXPECT_EQ(S.IntervalSat, 0u);
    EXPECT_EQ(T.charged(), 1u);

    EXPECT_EQ(SC.isSatConj(Sat), Tri::True);
    S = SC.stats();
    EXPECT_EQ(S.SatQueries, 2u);
    EXPECT_EQ(S.IntervalUnsat, 1u);
    EXPECT_EQ(S.IntervalSat, 1u);
    EXPECT_EQ(S.fuelUsed(), 2u);
    EXPECT_EQ(T.charged(), 2u);
  }
}

//===----------------------------------------------------------------------===//
// Fuel transparency of the query ladder: with its local cache rung on
// (default capacity) and off (capacity 0), the ladder changes which
// rung answers a query, never the answer or what any budget observes.
//===----------------------------------------------------------------------===//

/// Rounds of a fixed query stream: an interval-decided unsat and sat
/// pair plus two queries the prefilter leaves to Omega. Repeating the
/// stream makes the cache rung answer every round after the first.
std::vector<ConstraintConj> ladderStream(unsigned Rounds) {
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
  for (unsigned R = 0; R < Rounds; ++R)
    Stream.insert(Stream.end(), Distinct.begin(), Distinct.end());
  return Stream;
}

TEST(Ladder, FuelUsedIdenticalOnAndOff) {
  std::vector<ConstraintConj> Stream = ladderStream(3);
  CancellationToken TOn(1000), TOff(1000);
  SolverContext On, Off(/*CacheCapacity=*/0);
  On.attachCancellation(&TOn);
  Off.attachCancellation(&TOff);
  for (size_t I = 0; I < Stream.size(); ++I)
    EXPECT_EQ(On.isSatConj(Stream[I]), Off.isSatConj(Stream[I]))
        << "query " << I;

  SolverStats A = On.stats(), B = Off.stats();
  EXPECT_GT(A.IntervalUnsat + A.IntervalSat, 0u)
      << "the stream must actually exercise the prefilter";
  EXPECT_GT(A.CacheHits, 0u) << "the stream must exercise the cache rung";
  EXPECT_EQ(B.CacheHits + B.CacheMisses, 0u);
  // Off answers every round below the cache, so its interval rung
  // answers each interval-decided query once per round.
  EXPECT_EQ(B.IntervalUnsat + B.IntervalSat,
            3 * (A.IntervalUnsat + A.IntervalSat));
  EXPECT_EQ(A.SatQueries, Stream.size());
  EXPECT_EQ(A.SatQueries, B.SatQueries);
  EXPECT_EQ(A.fuelUsed(), B.fuelUsed());
  EXPECT_EQ(TOn.charged(), TOff.charged());
  EXPECT_EQ(TOn.charged(), Stream.size());
}

TEST(Ladder, BudgetCutoffIdenticalOnAndOff) {
  // A budget small enough to bite: polling between queries, like the
  // inference loops do, stops both contexts after the same query —
  // exactly one past the budget — because a cache hit, an interval
  // answer and an Omega run each charge the token once.
  std::vector<ConstraintConj> Stream = ladderStream(10);
  for (uint64_t Budget : {5u, 12u, 30u}) {
    SCOPED_TRACE("budget=" + std::to_string(Budget));
    auto cutoff = [&](size_t Capacity, std::vector<Tri> &Answers) {
      CancellationToken T(Budget);
      SolverContext SC(Capacity);
      SC.attachCancellation(&T);
      size_t I = 0;
      while (I < Stream.size() && !SC.cancelled())
        Answers.push_back(SC.isSatConj(Stream[I++]));
      EXPECT_EQ(T.charged(), I);
      return I;
    };
    std::vector<Tri> OnAnswers, OffAnswers;
    size_t OnStop = cutoff(SolverContext::DefaultCacheCapacity, OnAnswers);
    size_t OffStop = cutoff(0, OffAnswers);
    EXPECT_EQ(OnStop, Budget + 1);
    EXPECT_EQ(OnStop, OffStop);
    EXPECT_EQ(OnAnswers, OffAnswers);
  }
}

TEST(SolverContext, LruEvictsLeastRecentlyUsed) {
  SolverContext SC(/*CacheCapacity=*/2);
  auto conj = [](const char *V) {
    return ConstraintConj{
        Constraint::make(LinExpr::var(mkVar(V)), CmpKind::Ge, LinExpr(0))};
  };
  (void)SC.isSatConj(conj("scx_l1")); // cache: {1}
  (void)SC.isSatConj(conj("scx_l2")); // cache: {1,2}
  (void)SC.isSatConj(conj("scx_l1")); // refresh 1; cache: {2,1}
  (void)SC.isSatConj(conj("scx_l3")); // evicts 2; cache: {1,3}
  EXPECT_EQ(SC.cacheSize(), 2u);
  EXPECT_EQ(SC.stats().CacheEvictions, 1u);

  uint64_t MissesBefore = SC.stats().CacheMisses;
  (void)SC.isSatConj(conj("scx_l1")); // still cached: hit
  EXPECT_EQ(SC.stats().CacheMisses, MissesBefore);
  (void)SC.isSatConj(conj("scx_l2")); // evicted: miss
  EXPECT_EQ(SC.stats().CacheMisses, MissesBefore + 1);
}

TEST(SolverContext, ClearCacheKeepsStats) {
  SolverContext SC;
  Formula F = cmpf("scx_c", CmpKind::Ge, 0);
  (void)SC.isSat(F);
  ASSERT_GT(SC.cacheSize(), 0u);
  uint64_t Queries = SC.stats().SatQueries;
  SC.clearCache();
  EXPECT_EQ(SC.cacheSize(), 0u);
  EXPECT_EQ(SC.stats().SatQueries, Queries);
}

//===----------------------------------------------------------------------===//
// Memoized toDNF
//===----------------------------------------------------------------------===//

namespace {

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

} // namespace

TEST(SolverContext, DnfMemoHitMissAccounting) {
  SolverContext SC;
  Formula F = Formula::disj2(cmpf("dnf_a", CmpKind::Ge, 1),
                             cmpf("dnf_b", CmpKind::Le, 2));
  auto D1 = SC.toDNF(F);
  auto D2 = SC.toDNF(F);
  ASSERT_TRUE(D1.has_value() && D2.has_value());
  // Quantifier-free: a memo hit is byte-identical to the fill.
  EXPECT_EQ(*D1, *D2);
  SolverStats S = SC.stats();
  EXPECT_EQ(S.DnfQueries, 2u);
  EXPECT_EQ(S.DnfMisses, 1u);
  EXPECT_EQ(S.DnfHits, 1u);
  EXPECT_EQ(SC.dnfMemoSize(), 1u);
}

TEST(SolverContext, DnfMemoTrivialFormulasBypassMemo) {
  SolverContext SC;
  (void)SC.toDNF(Formula::top());
  (void)SC.toDNF(Formula::bottom());
  (void)SC.toDNF(cmpf("dnf_t", CmpKind::Ge, 0));
  EXPECT_EQ(SC.stats().DnfQueries, 0u);
  EXPECT_EQ(SC.dnfMemoSize(), 0u);
}

TEST(SolverContext, DnfMemoRenamesExistentialWitnessPerRetrieval) {
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
  // Every retrieval gets its own fresh witness, exactly like repeated
  // unmemoized expansion — cached skeletons must not pin one name.
  EXPECT_NE(*W1.begin(), *W2.begin());
  EXPECT_NE(*W2.begin(), *W3.begin());
  EXPECT_NE(*W1.begin(), *W3.begin());
}

TEST(SolverContext, MemoizedDnfMatchesUnmemoizedModuloRenaming) {
  SolverContext SC;
  VarId W = mkVar("dnf_mw");
  Formula F = Formula::conj2(
      Formula::disj2(cmpf("dnf_m1", CmpKind::Ge, 1),
                     cmpf("dnf_m2", CmpKind::Le, 0)),
      Formula::exists({W}, Formula::cmp(LinExpr::var(W), CmpKind::Eq,
                                        ex("dnf_m1") + 1)));
  (void)SC.toDNF(F); // fill
  auto Memo = SC.toDNF(F); // retrieval: re-freshened skeleton
  auto Plain = F.toDNF();
  ASSERT_TRUE(Memo.has_value() && Plain.has_value());
  ASSERT_EQ(Memo->size(), Plain->size());
  std::set<VarId> WM = witnessVars(F, *Memo);
  std::set<VarId> WP = witnessVars(F, *Plain);
  ASSERT_EQ(WM.size(), 1u);
  ASSERT_EQ(WP.size(), 1u);
  // Renaming both witnesses to one canonical variable makes the DNFs
  // coincide clause for clause.
  VarId Canon = mkVar("dnf_canon");
  std::map<VarId, VarId> RM{{*WM.begin(), Canon}};
  std::map<VarId, VarId> RP{{*WP.begin(), Canon}};
  for (size_t I = 0; I < Memo->size(); ++I) {
    ASSERT_EQ((*Memo)[I].size(), (*Plain)[I].size());
    for (size_t J = 0; J < (*Memo)[I].size(); ++J)
      EXPECT_EQ((*Memo)[I][J].rename(RM), (*Plain)[I][J].rename(RP));
  }
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

TEST(SolverContext, DnfMemoOverflowEntriesRespectCap) {
  SolverContext SC;
  // (a1 || b1) && (a2 || b2): four clauses.
  Formula F = Formula::conj2(
      Formula::disj2(cmpf("dnf_o1", CmpKind::Le, 0),
                     cmpf("dnf_o1", CmpKind::Ge, 10)),
      Formula::disj2(cmpf("dnf_o2", CmpKind::Le, 0),
                     cmpf("dnf_o2", CmpKind::Ge, 10)));
  EXPECT_FALSE(SC.toDNF(F, 2).has_value()); // miss: overflow recorded
  EXPECT_FALSE(SC.toDNF(F, 2).has_value()); // hit on the overflow entry
  auto D = SC.toDNF(F, 16); // larger cap: must recompute
  ASSERT_TRUE(D.has_value());
  EXPECT_EQ(D->size(), 4u);
  // The stored skeleton now answers small caps as overflow, as a hit.
  EXPECT_FALSE(SC.toDNF(F, 2).has_value());
  SolverStats S = SC.stats();
  EXPECT_EQ(S.DnfQueries, 4u);
  EXPECT_EQ(S.DnfMisses, 2u);
  EXPECT_EQ(S.DnfHits, 2u);
}

TEST(SolverContext, DnfMemoLruEviction) {
  SolverContext SC(SolverContext::DefaultCacheCapacity,
                   /*DnfMemoCapacity=*/2);
  auto mk = [](const char *V) {
    return Formula::disj2(Formula::cmp(LinExpr::var(mkVar(V)), CmpKind::Le,
                                       LinExpr(0)),
                          Formula::cmp(LinExpr::var(mkVar(V)), CmpKind::Ge,
                                       LinExpr(10)));
  };
  Formula F1 = mk("dnf_l1"), F2 = mk("dnf_l2"), F3 = mk("dnf_l3");
  (void)SC.toDNF(F1);
  (void)SC.toDNF(F2);
  (void)SC.toDNF(F3); // evicts F1
  EXPECT_EQ(SC.dnfMemoSize(), 2u);
  EXPECT_EQ(SC.stats().DnfEvictions, 1u);
  (void)SC.toDNF(F1); // miss again
  EXPECT_EQ(SC.stats().DnfMisses, 4u);
}

TEST(SolverContext, DnfMemoDisabledAtZeroCapacity) {
  SolverContext SC(SolverContext::DefaultCacheCapacity,
                   /*DnfMemoCapacity=*/0);
  EXPECT_FALSE(SC.dnfMemoEnabled());
  Formula F = Formula::disj2(cmpf("dnf_z", CmpKind::Ge, 1),
                             cmpf("dnf_z", CmpKind::Le, -1));
  auto D1 = SC.toDNF(F);
  auto D2 = SC.toDNF(F);
  ASSERT_TRUE(D1.has_value() && D2.has_value());
  EXPECT_EQ(*D1, *D2);
  SolverStats S = SC.stats();
  EXPECT_EQ(S.DnfQueries, 2u);
  EXPECT_EQ(S.DnfHits, 0u);
  EXPECT_EQ(S.DnfMisses, 0u);
  EXPECT_EQ(SC.dnfMemoSize(), 0u);
}

TEST(ArithIntern, PointerIdentityForEqualTerms) {
  LinExpr E1 = ex("int_x") * 3 + ex("int_y") - 7;
  LinExpr E2 = ex("int_x") * 3 + ex("int_y") - 7;
  LinExpr E3 = ex("int_x") * 3 + ex("int_y") - 8;
  ASSERT_EQ(E1, E2);
  ArithIntern &I = ArithIntern::global();
  const LinExpr *P1 = I.expr(E1);
  const LinExpr *P2 = I.expr(E2);
  const LinExpr *P3 = I.expr(E3);
  EXPECT_EQ(P1, P2);
  EXPECT_NE(P1, P3);
  // Interned value is the value that went in.
  EXPECT_EQ(*P1, E1);

  Constraint C1 = Constraint::make(E1, CmpKind::Le, LinExpr(0));
  Constraint C2 = Constraint::make(E2, CmpKind::Le, LinExpr(0));
  Constraint C3 = Constraint::make(E1, CmpKind::Eq, LinExpr(0));
  EXPECT_EQ(I.constraint(C1), I.constraint(C2));
  EXPECT_NE(I.constraint(C1), I.constraint(C3));
}

TEST(ArithIntern, CanonicalConjunctionKey) {
  Constraint A = Constraint::make(ex("int_k1"), CmpKind::Ge, LinExpr(0));
  Constraint B = Constraint::make(ex("int_k2"), CmpKind::Le, LinExpr(9));
  InternedConj K1 = internConj({A, B});
  InternedConj K2 = internConj({B, A, B}); // order + duplicates
  EXPECT_EQ(K1, K2);
  EXPECT_EQ(K1.size(), 2u);
  EXPECT_EQ(InternedConjHash()(K1), InternedConjHash()(K2));
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
  // its cache and counters persist between calls.
  SolverContext &SC = SolverContext::defaultCtx();
  EXPECT_EQ(&SC, &SolverContext::defaultCtx());
  SC.resetStats();
  Formula F = Formula::conj2(cmpf("scx_f", CmpKind::Ge, 1),
                             cmpf("scx_f", CmpKind::Le, 4));
  EXPECT_EQ(SC.isSat(F), Tri::True);
  EXPECT_EQ(SolverContext::defaultCtx().isSat(F), Tri::True);
  SolverStats S = SolverContext::defaultCtx().stats();
  EXPECT_GE(S.SatQueries, 2u);
  EXPECT_GE(S.CacheHits, 1u);
}

} // namespace
