//===- tests/HeapTest.cpp - separation-logic substrate ---------*- C++ -*-===//

#include "heap/Entail.h"
#include "lang/Parser.h"
#include "solver/SolverContext.h"

#include <gtest/gtest.h>

using namespace tnt;

namespace {

const char *ListDefs = R"(
data node { node next; }
pred lseg(root, q, n) == root = q & n = 0
  or root |-> node(p) * lseg(p, q, n - 1);
pred cll(root, n) == root |-> node(p) * lseg(p, root, n - 1);
)";

struct HeapFixture : ::testing::Test {
  DiagnosticEngine Diags;
  Program P;
  std::unique_ptr<HeapEnv> Env;
  std::unique_ptr<HeapProver> Prover;
  SolverContext SC;

  void SetUp() override {
    std::optional<Program> Parsed = parseProgram(ListDefs, Diags);
    ASSERT_TRUE(Parsed.has_value()) << Diags.str();
    P = std::move(*Parsed);
    Env = std::make_unique<HeapEnv>(P);
    Prover = std::make_unique<HeapProver>(*Env);
  }

  HeapAtom lseg(VarId Root, const LinExpr &Q, const LinExpr &N) {
    HeapAtom A;
    A.K = HeapAtom::Kind::Pred;
    A.Name = "lseg";
    A.Args = {LinExpr::var(Root), Q, N};
    return A;
  }
  HeapAtom cll(VarId Root, const LinExpr &N) {
    HeapAtom A;
    A.K = HeapAtom::Kind::Pred;
    A.Name = "cll";
    A.Args = {LinExpr::var(Root), N};
    return A;
  }
  HeapAtom pts(VarId Root, const LinExpr &Next) {
    HeapAtom A;
    A.K = HeapAtom::Kind::PointsTo;
    A.Root = Root;
    A.Name = "node";
    A.Args = {Next};
    return A;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Predicate metadata
//===----------------------------------------------------------------------===//

TEST_F(HeapFixture, SizeInvariantsInferred) {
  // lseg's size is >= 0; cll's size is >= 1.
  VarId N = mkVar("hn");
  Formula LsegInv =
      Env->invariantAt("lseg", {LinExpr::var(mkVar("hr")),
                                LinExpr(0), LinExpr::var(N)});
  EXPECT_TRUE(SC.entails(
      LsegInv, Formula::cmp(LinExpr::var(N), CmpKind::Ge, LinExpr(0))));

  Formula CllInv =
      Env->invariantAt("cll", {LinExpr::var(mkVar("hr")), LinExpr::var(N)});
  EXPECT_TRUE(SC.entails(
      CllInv, Formula::cmp(LinExpr::var(N), CmpKind::Ge, LinExpr(1))));
}

TEST_F(HeapFixture, SegmentShapeDetected) {
  const PredInfo *Info = Env->pred("lseg");
  ASSERT_NE(Info, nullptr);
  EXPECT_TRUE(Info->IsSegment);
  EXPECT_EQ(Info->SegData, "node");
  const PredInfo *CInfo = Env->pred("cll");
  ASSERT_NE(CInfo, nullptr);
  EXPECT_FALSE(CInfo->IsSegment);
}

TEST_F(HeapFixture, UnfoldLseg) {
  VarId X = mkVar("hx"), N = mkVar("hn");
  std::vector<HeapEnv::UnfoldBranch> Bs =
      Env->unfold(lseg(X, LinExpr(0), LinExpr::var(N)));
  ASSERT_EQ(Bs.size(), 2u);
  // Base: x = 0 && n = 0, emp.
  EXPECT_TRUE(Bs[0].Atoms.empty());
  EXPECT_TRUE(SC.entails(
      Bs[0].Pure, Formula::cmp(LinExpr::var(N), CmpKind::Eq, LinExpr(0))));
  // Rec: x |-> node(p) * lseg(p, 0, n-1) with fresh p.
  ASSERT_EQ(Bs[1].Atoms.size(), 2u);
}

//===----------------------------------------------------------------------===//
// Materialization
//===----------------------------------------------------------------------===//

TEST_F(HeapFixture, MaterializeFromPointsTo) {
  VarId X = mkVar("hx"), Y = mkVar("hy");
  SymHeap H = {pts(X, LinExpr::var(Y))};
  auto R = Prover->materialize(Formula::top(), H, X);
  ASSERT_TRUE(R.has_value());
  ASSERT_EQ(R->size(), 1u);
  EXPECT_EQ((*R)[0].PtsIndex, 0u);
}

TEST_F(HeapFixture, MaterializeUnfoldsPredicate) {
  VarId X = mkVar("hx"), N = mkVar("hn");
  // x != null rules out the base branch.
  Formula Pure = Formula::cmp(LinExpr::var(X), CmpKind::Ne, LinExpr(0));
  SymHeap H = {lseg(X, LinExpr(0), LinExpr::var(N))};
  auto R = Prover->materialize(Pure, H, X);
  ASSERT_TRUE(R.has_value());
  ASSERT_EQ(R->size(), 1u); // Base branch infeasible.
  const HeapAtom &Pt = (*R)[0].Heap[(*R)[0].PtsIndex];
  EXPECT_EQ(Pt.K, HeapAtom::Kind::PointsTo);
  EXPECT_EQ(Pt.Root, X);
  // The unfolding pins n >= 1 implicitly via n - 1 = size of the tail;
  // at minimum the branch pure must be consistent.
  EXPECT_NE(SC.isSat(Formula::conj2(Pure, (*R)[0].PureAdd)),
            Tri::False);
}

TEST_F(HeapFixture, MaterializeFailsOnEmptyHeap) {
  VarId X = mkVar("hx");
  EXPECT_FALSE(Prover->materialize(Formula::top(), {}, X).has_value());
}

//===----------------------------------------------------------------------===//
// Entailment
//===----------------------------------------------------------------------===//

TEST_F(HeapFixture, DirectPointsToMatchWithFrame) {
  VarId X = mkVar("hx"), Y = mkVar("hy"), Z = mkVar("hz");
  SymHeap Src = {pts(X, LinExpr::var(Y)), pts(Z, LinExpr(0))};
  SymHeap Tgt = {pts(X, LinExpr::var(Y))};
  auto R = Prover->entail(Formula::top(), Src, Tgt, {});
  ASSERT_TRUE(R.has_value());
  ASSERT_EQ(R->size(), 1u);
  EXPECT_EQ((*R)[0].Frame.size(), 1u);
  EXPECT_EQ((*R)[0].Frame[0].Root, Z);
}

TEST_F(HeapFixture, GhostUnificationBindsSize) {
  VarId X = mkVar("hx"), N = mkVar("hn"), M = mkVar("hm");
  // lseg(x, 0, n) |- lseg(x, 0, m) binds m := n.
  SymHeap Src = {lseg(X, LinExpr(0), LinExpr::var(N))};
  SymHeap Tgt = {lseg(X, LinExpr(0), LinExpr::var(M))};
  auto R = Prover->entail(Formula::top(), Src, Tgt, {M});
  ASSERT_TRUE(R.has_value());
  ASSERT_EQ(R->size(), 1u);
  auto It = (*R)[0].Bindings.find(M);
  ASSERT_NE(It, (*R)[0].Bindings.end());
  EXPECT_EQ(It->second, LinExpr::var(N));
}

TEST_F(HeapFixture, FoldEmptySegment) {
  // emp |- lseg(x, x, m) with m ghost: folds to the base, m := 0.
  VarId X = mkVar("hx"), M = mkVar("hm");
  SymHeap Tgt = {lseg(X, LinExpr::var(X), LinExpr::var(M))};
  auto R = Prover->entail(Formula::top(), {}, Tgt, {M});
  ASSERT_TRUE(R.has_value());
  EXPECT_TRUE(SC.entails(
      (*R)[0].PureAdd, Formula::cmp(LinExpr::var(M), CmpKind::Eq,
                                    LinExpr(0))));
}

TEST_F(HeapFixture, FoldOneCell) {
  // x |-> node(y) * lseg(y, 0, k) |- lseg(x, 0, m): m := k + 1.
  VarId X = mkVar("hx"), Y = mkVar("hy"), K = mkVar("hk"), M = mkVar("hm");
  SymHeap Src = {pts(X, LinExpr::var(Y)),
                 lseg(Y, LinExpr(0), LinExpr::var(K))};
  SymHeap Tgt = {lseg(X, LinExpr(0), LinExpr::var(M))};
  auto R = Prover->entail(Formula::top(), Src, Tgt, {M});
  ASSERT_TRUE(R.has_value());
  Formula Bind = (*R)[0].PureAdd;
  EXPECT_TRUE(SC.entails(
      Bind, Formula::cmp(LinExpr::var(M), CmpKind::Eq,
                         LinExpr::var(K) + 1)));
}

TEST_F(HeapFixture, SegmentTailLemma) {
  // lseg(a, b, n) * b |-> node(c) |- lseg(a, c, m): m := n + 1.
  VarId A = mkVar("ha"), B = mkVar("hb"), C = mkVar("hc"),
        N = mkVar("hn"), M = mkVar("hm");
  SymHeap Src = {lseg(A, LinExpr::var(B), LinExpr::var(N)),
                 pts(B, LinExpr::var(C))};
  SymHeap Tgt = {lseg(A, LinExpr::var(C), LinExpr::var(M))};
  auto R = Prover->entail(Formula::top(), Src, Tgt, {M});
  ASSERT_TRUE(R.has_value());
  EXPECT_TRUE(SC.entails(
      (*R)[0].PureAdd, Formula::cmp(LinExpr::var(M), CmpKind::Eq,
                                    LinExpr::var(N) + 1)));
}

TEST_F(HeapFixture, CllRotation) {
  // The crux of the paper's append-on-cll scenario:
  //   x |-> node(p) * lseg(p, x, n - 1)  |-  cll(p, m)
  // via source unfolding plus the tail lemma; in every branch m = n.
  VarId X = mkVar("hx"), Pv = mkVar("hp"), N = mkVar("hn"), M = mkVar("hm");
  SymHeap Src = {pts(X, LinExpr::var(Pv)),
                 lseg(Pv, LinExpr::var(X), LinExpr::var(N) - 1)};
  SymHeap Tgt = {cll(Pv, LinExpr::var(M))};
  Formula Pure = Formula::cmp(LinExpr::var(N), CmpKind::Ge, LinExpr(1));
  auto R = Prover->entail(Pure, Src, Tgt, {M});
  ASSERT_TRUE(R.has_value());
  ASSERT_GE(R->size(), 1u);
  for (const HeapProver::Branch &Br : *R) {
    Formula All = Formula::conj2(Pure, Br.PureAdd);
    EXPECT_TRUE(SC.entails(
        All, Formula::cmp(LinExpr::var(M), CmpKind::Eq, LinExpr::var(N))))
        << All.str();
  }
}

TEST_F(HeapFixture, EntailFailsOnMissingHeap) {
  VarId X = mkVar("hx"), Y = mkVar("hy");
  SymHeap Tgt = {pts(X, LinExpr::var(Y))};
  EXPECT_FALSE(Prover->entail(Formula::top(), {}, Tgt, {}).has_value());
}

TEST_F(HeapFixture, EntailRespectsDisequalities) {
  // x |-> node(y) |- z |-> node(y) must fail when x != z is possible,
  // and succeed when x = z is known.
  VarId X = mkVar("hx"), Y = mkVar("hy"), Z = mkVar("hz");
  SymHeap Src = {pts(X, LinExpr::var(Y))};
  SymHeap Tgt = {pts(Z, LinExpr::var(Y))};
  EXPECT_FALSE(Prover->entail(Formula::top(), Src, Tgt, {}).has_value());
  Formula Eq = Formula::cmp(LinExpr::var(X), CmpKind::Eq, LinExpr::var(Z));
  EXPECT_TRUE(Prover->entail(Eq, Src, Tgt, {}).has_value());
}
