//===- tests/SolveUnitTest.cpp - solve components in isolation --*- C++ -*-===//

#include "infer/CaseSplit.h"
#include "infer/Graph.h"
#include "infer/Solve.h"
#include "solver/SolverContext.h"

#include <gtest/gtest.h>

using namespace tnt;

namespace {

LinExpr ex(const char *N) { return LinExpr::var(mkVar(N)); }

Formula cmpf(const char *V, CmpKind K, int64_t C) {
  return Formula::cmp(ex(V), K, LinExpr(C));
}

} // namespace

//===----------------------------------------------------------------------===//
// splitConditions (Section 5.6's split)
//===----------------------------------------------------------------------===//

TEST(SplitConditions, SingleConditionGetsComplement) {
  SolverContext SC;
  std::vector<Formula> Mu =
      splitConditions({cmpf("sy", CmpKind::Ge, 0)});
  ASSERT_EQ(Mu.size(), 2u);
  // Exclusive and exhaustive.
  EXPECT_EQ(SC.isSat(Formula::conj2(Mu[0], Mu[1])), Tri::False);
  EXPECT_EQ(SC.isSat(Formula::neg(Formula::disj2(Mu[0], Mu[1]))),
            Tri::False);
}

TEST(SplitConditions, OverlappingPartitioned) {
  // x >= 0 and x <= 5 overlap in [0,5].
  SolverContext SC;
  std::vector<Formula> Mu = splitConditions(
      {cmpf("sx", CmpKind::Ge, 0), cmpf("sx", CmpKind::Le, 5)});
  ASSERT_GE(Mu.size(), 2u);
  // Pairwise exclusive.
  for (size_t I = 0; I < Mu.size(); ++I)
    for (size_t J = I + 1; J < Mu.size(); ++J)
      EXPECT_EQ(SC.isSat(Formula::conj2(Mu[I], Mu[J])), Tri::False)
          << Mu[I].str() << " vs " << Mu[J].str();
  // Exhaustive.
  std::vector<Formula> Negs;
  for (const Formula &M : Mu)
    Negs.push_back(Formula::neg(M));
  EXPECT_EQ(SC.isSat(Formula::conj(Negs)), Tri::False);
}

TEST(SplitConditions, DisjointKeptApart) {
  std::vector<Formula> Mu = splitConditions(
      {cmpf("sz", CmpKind::Le, -1), cmpf("sz", CmpKind::Ge, 1)});
  // Three cells: below, above, and the gap {0}.
  EXPECT_EQ(Mu.size(), 3u);
}

TEST(SplitConditions, EmptyInputEmptyOutput) {
  EXPECT_TRUE(splitConditions({}).empty());
}

//===----------------------------------------------------------------------===//
// Theta
//===----------------------------------------------------------------------===//

TEST(Theta, RefineBaseShape) {
  SolverContext SC;
  UnkRegistry Reg;
  Theta Th(Reg);
  UnkId Pre = Reg.createPair("m", 0, {mkVar("tx")});
  Th.init(Pre);
  EXPECT_TRUE(Th.isPendingLeaf(Pre));
  Formula Base = cmpf("tx", CmpKind::Lt, 0);
  std::vector<UnkId> Subs =
      Th.refineBase(Pre, Base, {cmpf("tx", CmpKind::Ge, 0)});
  ASSERT_EQ(Subs.size(), 1u);
  EXPECT_FALSE(Th.isPendingLeaf(Pre));
  EXPECT_TRUE(Th.isPendingLeaf(Subs[0]));
  EXPECT_FALSE(Th.fullyResolved(Pre));
  // The sub's region is the mu guard.
  EXPECT_TRUE(SC.entails(Th.region(Subs[0]), cmpf("tx", CmpKind::Ge, 0)));
  Th.resolve(Subs[0], DefCase::Kind::Loop);
  EXPECT_TRUE(Th.fullyResolved(Pre));

  CaseTree Tree = Th.toTree(Pre);
  std::vector<CaseOutcome> Flat = Tree.flatten();
  ASSERT_EQ(Flat.size(), 2u);
  EXPECT_EQ(Flat[0].Temporal.K, TemporalSpec::Kind::Term);
  EXPECT_EQ(Flat[1].Temporal.K, TemporalSpec::Kind::Loop);
  EXPECT_FALSE(Flat[1].PostReachable);
}

TEST(Theta, FinalizePendingToMayLoop) {
  UnkRegistry Reg;
  Theta Th(Reg);
  UnkId Pre = Reg.createPair("m", 0, {mkVar("tx")});
  Th.init(Pre);
  std::vector<UnkId> Subs = Th.split(
      Pre, {cmpf("tx", CmpKind::Ge, 0), cmpf("tx", CmpKind::Lt, 0)});
  Th.resolve(Subs[0], DefCase::Kind::Term, {ex("tx")});
  Th.finalize(Pre);
  EXPECT_TRUE(Th.fullyResolved(Pre));
  std::vector<CaseOutcome> Flat = Th.toTree(Pre).flatten();
  ASSERT_EQ(Flat.size(), 2u);
  EXPECT_EQ(Flat[1].Temporal.K, TemporalSpec::Kind::MayLoop);
}

//===----------------------------------------------------------------------===//
// Specialization (spec_relass, Section 5.2)
//===----------------------------------------------------------------------===//

TEST(Specialize, PreAssumptionSplitsOnTargetCases) {
  SolverContext SC;
  UnkRegistry Reg;
  Theta Th(Reg);
  VarId X = mkVar("spx");
  UnkId Pre = Reg.createPair("m", 0, {X});
  Th.init(Pre);
  // Refine: x < 0 base Term; x >= 0 pending.
  std::vector<UnkId> Subs =
      Th.refineBase(Pre, cmpf("spx", CmpKind::Lt, 0),
                    {cmpf("spx", CmpKind::Ge, 0)});

  // The foo-style recursive assumption: ctx x>=0, args (x - 1).
  PreAssume A;
  A.Ctx = cmpf("spx", CmpKind::Ge, 0);
  A.Src = Pre;
  A.TK = PreAssume::Target::Unknown;
  A.Dst = Pre;
  A.DstArgs = {ex("spx") - 1};

  std::vector<PreAssume> Out = specializePre({A}, Reg, Th);
  // Source expands to the pending sub; target splits into the Term base
  // (x - 1 < 0) and the pending case (x - 1 >= 0).
  ASSERT_EQ(Out.size(), 2u);
  bool SawTerm = false, SawUnknown = false;
  for (const PreAssume &N : Out) {
    EXPECT_EQ(N.Src, Subs[0]);
    if (N.TK == PreAssume::Target::Term)
      SawTerm = true;
    if (N.TK == PreAssume::Target::Unknown) {
      SawUnknown = true;
      EXPECT_EQ(N.Dst, Subs[0]);
      // Context now carries x - 1 >= 0.
      EXPECT_TRUE(SC.entails(N.Ctx, cmpf("spx", CmpKind::Ge, 1)));
    }
  }
  EXPECT_TRUE(SawTerm);
  EXPECT_TRUE(SawUnknown);
}

TEST(Specialize, InfeasibleCasesDropped) {
  UnkRegistry Reg;
  Theta Th(Reg);
  VarId X = mkVar("spx");
  UnkId Pre = Reg.createPair("m", 0, {X});
  Th.init(Pre);
  Th.refineBase(Pre, cmpf("spx", CmpKind::Lt, 0),
                {cmpf("spx", CmpKind::Ge, 0)});
  PreAssume A;
  A.Ctx = Formula::conj2(cmpf("spx", CmpKind::Ge, 0),
                         cmpf("spx", CmpKind::Le, 3));
  A.Src = Pre;
  A.TK = PreAssume::Target::Unknown;
  A.Dst = Pre;
  A.DstArgs = {ex("spx") + 10}; // Always lands in the x >= 0 case.
  std::vector<PreAssume> Out = specializePre({A}, Reg, Th);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].TK, PreAssume::Target::Unknown);
}

TEST(Specialize, PostItemsExpandAgainstDefinitions) {
  UnkRegistry Reg;
  Theta Th(Reg);
  VarId X = mkVar("spx");
  UnkId CalleePre = Reg.createPair("c", 0, {X});
  UnkId CallerPre = Reg.createPair("m", 0, {X});
  Th.init(CalleePre);
  Th.init(CallerPre);
  Th.resolve(CalleePre, DefCase::Kind::Loop);

  PostAssume A;
  A.Ctx = Formula::top();
  PostItem It;
  It.Guard = Formula::top();
  It.K = PostItem::Kind::Unknown;
  It.U = Reg.partner(CalleePre);
  It.Args = {ex("spx")};
  A.Items.push_back(It);
  A.Guard = Formula::top();
  A.Tgt = Reg.partner(CallerPre);

  std::vector<PostAssume> Out = specializePost({A}, Reg, Th);
  ASSERT_EQ(Out.size(), 1u);
  ASSERT_EQ(Out[0].Items.size(), 1u);
  EXPECT_EQ(Out[0].Items[0].K, PostItem::Kind::False);
}

//===----------------------------------------------------------------------===//
// syn_base (Section 5.1)
//===----------------------------------------------------------------------===//

TEST(SynBase, FooBaseCase) {
  SolverContext SC;
  UnkRegistry Reg;
  VarId X = mkVar("sbx"), Y = mkVar("sby");
  UnkId Pre = Reg.createPair("foo", 0, {X, Y});

  ScenarioProblem P;
  P.PreId = Pre;
  PreAssume Rec;
  Rec.Ctx = cmpf("sbx", CmpKind::Ge, 0);
  Rec.Src = Pre;
  Rec.TK = PreAssume::Target::Unknown;
  Rec.Dst = Pre;
  Rec.DstArgs = {ex("sbx") + ex("sby"), ex("sby")};
  P.S.push_back(Rec);
  PostAssume Base;
  Base.Ctx = cmpf("sbx", CmpKind::Lt, 0);
  Base.Guard = Formula::top();
  Base.Tgt = Reg.partner(Pre);
  P.T.push_back(Base);

  Formula B = synBase(P, Reg);
  // Exactly x < 0 (the paper: x<0 && !(x>=0)).
  EXPECT_TRUE(SC.entails(B, cmpf("sbx", CmpKind::Lt, 0)));
  EXPECT_TRUE(SC.entails(cmpf("sbx", CmpKind::Lt, 0), B));
}

TEST(SynBase, NoExitMeansNoBase) {
  SolverContext SC;
  UnkRegistry Reg;
  VarId X = mkVar("sbx");
  UnkId Pre = Reg.createPair("lp", 0, {X});
  ScenarioProblem P;
  P.PreId = Pre;
  PreAssume Rec;
  Rec.Ctx = Formula::top();
  Rec.Src = Pre;
  Rec.TK = PreAssume::Target::Unknown;
  Rec.Dst = Pre;
  Rec.DstArgs = {ex("sbx")};
  P.S.push_back(Rec);
  Formula B = synBase(P, Reg);
  EXPECT_EQ(SC.isSat(B), Tri::False);
}

//===----------------------------------------------------------------------===//
// Temporal reachability graph
//===----------------------------------------------------------------------===//

TEST(TemporalGraph, SccsBottomUp) {
  UnkRegistry Reg;
  VarId X = mkVar("tgx");
  UnkId A = Reg.createPair("a", 0, {X});
  UnkId B = Reg.createPair("b", 0, {X});
  // a -> b, b -> b (self loop): sccs bottom-up: {b} then {a}.
  PreAssume AB;
  AB.Ctx = Formula::top();
  AB.Src = A;
  AB.TK = PreAssume::Target::Unknown;
  AB.Dst = B;
  AB.DstArgs = {ex("tgx")};
  PreAssume BB = AB;
  BB.Src = B;
  std::vector<PreAssume> S{AB, BB};
  TemporalGraph G = TemporalGraph::build(S, {A, B});
  ASSERT_EQ(G.sccs().size(), 2u);
  EXPECT_EQ(G.sccs()[0], std::vector<UnkId>{B});
  EXPECT_EQ(G.sccs()[1], std::vector<UnkId>{A});
  EXPECT_EQ(G.edges(A).size(), 1u);
  EXPECT_EQ(G.edges(B).size(), 1u);
}
