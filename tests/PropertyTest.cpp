//===- tests/PropertyTest.cpp - randomized invariant checks -----*- C++ -*-===//
//
// Property-based sweeps over the substrate invariants:
//  * NNF preserves semantics on random formulas;
//  * DNF clauses jointly cover exactly the formula's models;
//  * SolverContext::simplify preserves semantics;
//  * projection over-approximates (and is exact when flagged exact);
//  * synthesized ranking measures really decrease (checkLexDecrease);
//  * splitConditions always yields a feasible, exclusive, exhaustive set;
//  * capacity subsumption is a partial order on the known predicates.
//
//===----------------------------------------------------------------------===//

#include "infer/CaseSplit.h"
#include "solver/Model.h"
#include "solver/SolverContext.h"
#include "spec/Capacity.h"
#include "synth/Ranking.h"

#include <gtest/gtest.h>

#include <random>

using namespace tnt;

namespace {

/// Random formula generator over a fixed small variable set.
struct Gen {
  std::mt19937 Rng;
  std::vector<VarId> Vars;

  explicit Gen(unsigned Seed) : Rng(Seed) {
    Vars = {mkVar("pfa"), mkVar("pfb"), mkVar("pfc")};
  }

  int irand(int Lo, int Hi) {
    return std::uniform_int_distribution<int>(Lo, Hi)(Rng);
  }

  LinExpr expr() {
    LinExpr E(irand(-4, 4));
    for (VarId V : Vars)
      if (irand(0, 2) == 0)
        E = E + LinExpr::var(V, irand(-3, 3));
    return E;
  }

  Formula atom() {
    CmpKind K;
    switch (irand(0, 4)) {
    case 0:
      K = CmpKind::Eq;
      break;
    case 1:
      K = CmpKind::Ne;
      break;
    case 2:
      K = CmpKind::Lt;
      break;
    case 3:
      K = CmpKind::Le;
      break;
    default:
      K = CmpKind::Ge;
      break;
    }
    return Formula::cmp(expr(), K, expr());
  }

  Formula formula(unsigned Depth) {
    if (Depth == 0)
      return atom();
    switch (irand(0, 3)) {
    case 0:
      return Formula::conj2(formula(Depth - 1), formula(Depth - 1));
    case 1:
      return Formula::disj2(formula(Depth - 1), formula(Depth - 1));
    case 2:
      return Formula::neg(formula(Depth - 1));
    default:
      return atom();
    }
  }

  /// All assignments over the generator's variables in [-B, B]^3.
  template <typename Fn> void forAllModels(int64_t B, Fn F) {
    std::map<VarId, int64_t> M;
    for (int64_t A = -B; A <= B; ++A)
      for (int64_t C = -B; C <= B; ++C)
        for (int64_t D = -B; D <= B; ++D) {
          M[Vars[0]] = A;
          M[Vars[1]] = C;
          M[Vars[2]] = D;
          F(M);
        }
  }
};

} // namespace

class FormulaProps : public ::testing::TestWithParam<unsigned> {};

TEST_P(FormulaProps, NNFPreservesSemantics) {
  Gen G(GetParam());
  Formula F = G.formula(3);
  Formula N = F.toNNF();
  G.forAllModels(2, [&](const std::map<VarId, int64_t> &M) {
    ASSERT_EQ(F.eval(M), N.eval(M)) << F.str();
  });
}

TEST_P(FormulaProps, DNFPreservesSemantics) {
  Gen G(GetParam() + 1000);
  Formula F = G.formula(2);
  std::optional<std::vector<ConstraintConj>> DNF = F.toDNF();
  ASSERT_TRUE(DNF.has_value());
  G.forAllModels(2, [&](const std::map<VarId, int64_t> &M) {
    bool Any = false;
    for (const ConstraintConj &Conj : *DNF) {
      bool All = true;
      for (const Constraint &C : Conj)
        All = All && C.eval(M);
      Any = Any || All;
    }
    ASSERT_EQ(F.eval(M), Any) << F.str();
  });
}

TEST_P(FormulaProps, SimplifyPreservesSemantics) {
  SolverContext SC;
  Gen G(GetParam() + 2000);
  Formula F = G.formula(2);
  Formula S = SC.simplify(F);
  G.forAllModels(2, [&](const std::map<VarId, int64_t> &M) {
    ASSERT_EQ(F.eval(M), S.eval(M)) << F.str() << " vs " << S.str();
  });
}

TEST_P(FormulaProps, ProjectionOverApproximates) {
  SolverContext SC;
  Gen G(GetParam() + 3000);
  Formula F = G.formula(2);
  VarId Elim = G.Vars[2];
  SolverContext::ElimResult R = SC.eliminate(F, {Elim});
  // Every model of F (restricted) satisfies the projection.
  G.forAllModels(2, [&](const std::map<VarId, int64_t> &M) {
    if (!F.eval(M))
      return;
    std::map<VarId, int64_t> Restricted = M;
    Restricted.erase(Elim);
    ASSERT_TRUE(R.F.eval(Restricted))
        << F.str() << " -> " << R.F.str();
  });
}

TEST_P(FormulaProps, InterningGivesPointerIdentity) {
  // Two generators with the same seed build the same formula twice;
  // hash-consing must hand back one node, making structEq a pointer
  // compare.
  Gen G1(GetParam() + 5000), G2(GetParam() + 5000);
  Formula F1 = G1.formula(3);
  Formula F2 = G2.formula(3);
  EXPECT_EQ(F1.node(), F2.node());
  EXPECT_TRUE(F1.structEq(F2));
}

TEST_P(FormulaProps, MemoizedDNFMatchesUnmemoized) {
  // The name is older than the deletion of the DNF memo: a context's
  // toDNF is now a counted call of Formula::toDNF. Generator formulas
  // are quantifier-free, so a first and a repeated context expansion
  // must both equal the plain one exactly.
  Gen G(GetParam() + 6000);
  Formula F = G.formula(2);
  SolverContext SC;
  auto First = SC.toDNF(F);
  auto Again = SC.toDNF(F);
  auto Plain = F.toDNF();
  ASSERT_EQ(First.has_value(), Plain.has_value()) << F.str();
  ASSERT_EQ(Again.has_value(), Plain.has_value()) << F.str();
  if (!Plain.has_value())
    return;
  EXPECT_EQ(*First, *Plain) << F.str();
  EXPECT_EQ(*Again, *Plain) << F.str();
}

TEST_P(FormulaProps, GlobalTierAnswerEqualsFreshContext) {
  // A used context answers as a fresh one does. (The name is older than
  // the deletion of the query-level global tier.) The process-wide
  // default context, after a filler pass over the same formulas, must
  // answer isSat for arbitrary (including quantified) formulas and give
  // the exact toDNF clauses for quantifier-free ones, like a fresh
  // context.
  Gen GFill(GetParam() + 7000), GFresh(GetParam() + 7000);
  SolverContext &Warm = SolverContext::defaultCtx();
  std::vector<Formula> Fs;
  for (int I = 0; I < 6; ++I) {
    Formula F = GFill.formula(2);
    if (I % 2 == 0)
      F = Formula::exists({GFill.Vars[2]}, F); // Quantified half.
    Fs.push_back(F);
    (void)Warm.isSat(F);
  }

  SolverContext Fresh;
  for (int I = 0; I < 6; ++I) {
    Formula FF = GFresh.formula(2);
    if (I % 2 == 0)
      FF = Formula::exists({GFresh.Vars[2]}, FF);
    ASSERT_EQ(FF.node(), Fs[I].node()); // Same hash-consed node.
    EXPECT_EQ(Warm.isSat(Fs[I]), Fresh.isSat(FF)) << FF.str();
    if (I % 2 != 0) {
      auto Used = Warm.toDNF(Fs[I]);
      auto Plain = Fresh.toDNF(FF);
      ASSERT_EQ(Used.has_value(), Plain.has_value()) << FF.str();
      if (Plain) {
        EXPECT_EQ(*Used, *Plain) << FF.str();
      }
    }
  }
}

TEST_P(FormulaProps, RotatedTierAnswerEqualsFreshContext) {
  // A context's counters are a function of the queries it was asked.
  // (The name is older than the deletion of the global tier's rotation
  // and of the context caches this test later churned.) Two contexts
  // asked the same twelve formulas twice give the same answers and read
  // the same SatQueries and DnfQueries, and the second pass counts
  // exactly what the first did.
  Gen GA(GetParam() + 8000), GB(GetParam() + 8000);
  SolverContext A, B;
  std::vector<Formula> Fs;
  for (int I = 0; I < 12; ++I)
    Fs.push_back(GA.formula(2));
  auto pass = [&](SolverContext &SC, const std::vector<Formula> &Qs) {
    std::vector<Tri> Answers;
    for (const Formula &F : Qs)
      Answers.push_back(SC.isSat(F));
    return Answers;
  };
  std::vector<Tri> First = pass(A, Fs);
  const SolverStats AfterFirst = A.stats();
  EXPECT_EQ(pass(A, Fs), First);
  const SolverStats SA = A.stats();
  EXPECT_EQ(SA.SatQueries, 2 * AfterFirst.SatQueries);
  EXPECT_EQ(SA.DnfQueries, 2 * AfterFirst.DnfQueries);

  std::vector<Formula> Gs;
  for (int I = 0; I < 12; ++I)
    Gs.push_back(GB.formula(2));
  EXPECT_EQ(pass(B, Gs), First);
  EXPECT_EQ(pass(B, Gs), First);
  const SolverStats SB = B.stats();
  EXPECT_EQ(SB.SatQueries, SA.SatQueries);
  EXPECT_EQ(SB.DnfQueries, SA.DnfQueries);
}

INSTANTIATE_TEST_SUITE_P(Random, FormulaProps, ::testing::Range(0u, 25u));

//===----------------------------------------------------------------------===//
// Ranking measures are genuine certificates
//===----------------------------------------------------------------------===//

class RankingProps : public ::testing::TestWithParam<unsigned> {};

TEST_P(RankingProps, SynthesizedMeasureDecreases) {
  std::mt19937 Rng(GetParam());
  std::uniform_int_distribution<int> D(1, 3);
  VarId X = mkVar("rpx"), XP = mkVar("rpx'");
  int64_t Step = D(Rng);
  int64_t Bound = D(Rng) - 2;
  // x' = x - Step while x > Bound.
  RankEdge E;
  E.Src = E.Dst = 0;
  E.Ctx = {Constraint::make(LinExpr::var(X), CmpKind::Gt, LinExpr(Bound)),
           Constraint::make(LinExpr::var(XP), CmpKind::Eq,
                            LinExpr::var(X) - Step)};
  E.DstArgs = {LinExpr::var(XP)};
  RankResult R = synthesizeRanking({{X}}, {E});
  ASSERT_TRUE(R.Success);
  // Re-verify via the lexicographic-decrease oracle.
  std::vector<LinExpr> Caller = R.Measures[0];
  std::vector<LinExpr> Callee;
  for (const LinExpr &M : Caller)
    Callee.push_back(M.substitute(X, LinExpr::var(XP)));
  EXPECT_EQ(checkLexDecrease(conjToFormula(E.Ctx), Caller, Callee),
            Tri::True);
}

INSTANTIATE_TEST_SUITE_P(Random, RankingProps, ::testing::Range(0u, 12u));

//===----------------------------------------------------------------------===//
// splitConditions invariants (Definition 2's guard conditions)
//===----------------------------------------------------------------------===//

class SplitProps : public ::testing::TestWithParam<unsigned> {};

TEST_P(SplitProps, FeasibleExclusiveExhaustive) {
  SolverContext SC;
  Gen G(GetParam() + 4000);
  std::vector<Formula> Conds;
  unsigned N = 1 + GetParam() % 3;
  for (unsigned I = 0; I < N; ++I) {
    // Atoms only: realistic abduction outputs.
    Formula A = G.atom();
    if (SC.isSat(A) == Tri::True &&
        SC.isSat(Formula::neg(A)) == Tri::True)
      Conds.push_back(A);
  }
  if (Conds.empty())
    return;
  std::vector<Formula> Mu = splitConditions(Conds);
  ASSERT_FALSE(Mu.empty());
  for (const Formula &M : Mu)
    EXPECT_NE(SC.isSat(M), Tri::False) << "infeasible guard";
  // Exclusivity/exhaustiveness hold up to solver incompleteness: an
  // Unknown answer is not a witnessed violation.
  for (size_t I = 0; I < Mu.size(); ++I)
    for (size_t J = I + 1; J < Mu.size(); ++J)
      EXPECT_NE(SC.isSat(Formula::conj2(Mu[I], Mu[J])), Tri::True)
          << "overlapping guards";
  std::vector<Formula> Negs;
  for (const Formula &M : Mu)
    Negs.push_back(Formula::neg(M));
  EXPECT_NE(SC.isSat(Formula::conj(Negs)), Tri::True)
      << "guards not exhaustive";
}

INSTANTIATE_TEST_SUITE_P(Random, SplitProps, ::testing::Range(0u, 15u));

//===----------------------------------------------------------------------===//
// Capacity lattice sanity
//===----------------------------------------------------------------------===//

TEST(CapacityProps, SubsumptionPartialOrder) {
  std::vector<Capacity> Cs = {Capacity::term(), Capacity::loop(),
                              Capacity::mayLoop()};
  for (const Capacity &A : Cs) {
    EXPECT_TRUE(capSubsumes(A, A));
    for (const Capacity &B : Cs)
      for (const Capacity &C : Cs)
        if (capSubsumes(A, B) && capSubsumes(B, C))
          EXPECT_TRUE(capSubsumes(A, C));
  }
}

TEST(CapacityProps, ConsumeAgreesWithSubsumption) {
  // theta_a =>r theta_c implies a residue exists (Section 3's weak
  // relation between =>r and |-t).
  std::vector<Capacity> Cs = {Capacity::term(), Capacity::loop(),
                              Capacity::mayLoop()};
  for (const Capacity &A : Cs)
    for (const Capacity &C : Cs)
      if (capSubsumes(A, C))
        EXPECT_TRUE(capConsume(A, C).has_value())
            << A.str() << " vs " << C.str();
}
