//===- tests/VerifyTest.cpp - forward verifier unit tests -------*- C++ -*-===//

#include "lang/Parser.h"
#include "lang/Resolve.h"
#include "lang/Transforms.h"
#include "solver/SolverContext.h"
#include "verify/Verifier.h"

#include <gtest/gtest.h>

using namespace tnt;

namespace {

/// Builds the pipeline up to verification for one source program.
struct Pipeline {
  DiagnosticEngine Diags, VDiags;
  Program P;
  std::unique_ptr<CallGraph> CG;
  std::unique_ptr<HeapEnv> HEnv;
  UnkRegistry Reg;
  std::unique_ptr<Verifier> V;

  explicit Pipeline(const std::string &Src) {
    std::optional<Program> Parsed = parseProgram(Src, Diags);
    EXPECT_TRUE(Parsed.has_value()) << Diags.str();
    P = std::move(*Parsed);
    EXPECT_TRUE(resolveProgram(P, Diags)) << Diags.str();
    EXPECT_TRUE(lowerLoops(P, Diags)) << Diags.str();
    CG = std::make_unique<CallGraph>(CallGraph::build(P));
    HEnv = std::make_unique<HeapEnv>(P);
    V = std::make_unique<Verifier>(P, *CG, *HEnv, Reg, VDiags);
  }
};

const char *FooSrc = R"(
void foo(int x, int y)
{
  if (x < 0) return;
  else foo(x + y, y);
}
)";

} // namespace

TEST(Verify, FooAssumptionShapes) {
  SolverContext SC;
  Pipeline PL(FooSrc);
  auto Rs = PL.V->runGroup({"foo"});
  ASSERT_EQ(Rs.size(), 1u);
  const ScenarioAssumptions &A = Rs[0].Assumptions;
  EXPECT_FALSE(A.SafetyFailed);
  // One recursive pre-assumption (c2) and two post-assumptions (c1, c3).
  ASSERT_EQ(A.S.size(), 1u);
  ASSERT_EQ(A.T.size(), 2u);
  EXPECT_EQ(A.S[0].TK, PreAssume::Target::Unknown);
  EXPECT_EQ(A.S[0].Dst, A.PreId);
  // The recursive context entails x >= 0.
  Formula XGe0 =
      Formula::cmp(LinExpr::var(mkVar("x")), CmpKind::Ge, LinExpr(0));
  EXPECT_TRUE(SC.entails(A.S[0].Ctx, XGe0));
  // Arguments are (x + y, y) over the canonical parameters.
  ASSERT_EQ(A.S[0].DstArgs.size(), 2u);
  Formula ArgIsSum = Formula::cmp(
      A.S[0].DstArgs[0], CmpKind::Eq,
      LinExpr::var(mkVar("x")) + LinExpr::var(mkVar("y")));
  EXPECT_TRUE(SC.entails(A.S[0].Ctx, ArgIsSum));
  // One exit is the base case (no items), the other carries the callee
  // post item.
  bool SawBase = false, SawRec = false;
  for (const PostAssume &T : A.T) {
    if (T.Items.empty()) {
      SawBase = true;
      Formula XNeg =
          Formula::cmp(LinExpr::var(mkVar("x")), CmpKind::Lt, LinExpr(0));
      EXPECT_TRUE(SC.entails(T.Ctx, XNeg));
    } else {
      SawRec = true;
      ASSERT_EQ(T.Items.size(), 1u);
      EXPECT_EQ(T.Items[0].K, PostItem::Kind::Unknown);
      EXPECT_EQ(T.Items[0].U, PL.Reg.partner(A.PreId));
    }
  }
  EXPECT_TRUE(SawBase);
  EXPECT_TRUE(SawRec);
}

TEST(Verify, InfeasibleBranchesPruned) {
  Pipeline PL(R"(
void m(int x)
{
  if (x > 0) {
    if (x < 0) { m(x); }
  }
  return;
}
)");
  auto Rs = PL.V->runGroup({"m"});
  // The recursive call sits in a contradictory branch: no
  // pre-assumptions survive (trivial-assumption filter, rule 1).
  EXPECT_TRUE(Rs[0].Assumptions.S.empty());
}

TEST(Verify, GivenTemporalSpecSkipsInference) {
  Pipeline PL(R"(
void busy(int n)
  requires n >= 0 & Term[n] ensures true;
{
  if (n == 0) return;
  else busy(n - 1);
}
)");
  auto Rs = PL.V->runGroup({"busy"});
  ASSERT_EQ(Rs.size(), 1u);
  ASSERT_TRUE(Rs[0].GivenTemporal.has_value());
  EXPECT_EQ(Rs[0].GivenTemporal->K, TemporalSpec::Kind::Term);
  EXPECT_EQ(Rs[0].Assumptions.PreId, InvalidUnk);
}

TEST(Verify, PrimitiveDefaultsToTerm) {
  Pipeline PL(R"(
void prim(int x)
  requires true ensures true;
void m() { prim(1); }
)");
  auto Rs = PL.V->runGroup({"prim"});
  ASSERT_EQ(Rs.size(), 1u);
  ASSERT_TRUE(Rs[0].GivenTemporal.has_value());
  EXPECT_EQ(Rs[0].GivenTemporal->K, TemporalSpec::Kind::Term);
}

TEST(Verify, ResolvedLoopCalleeBecomesFalseItem) {
  Pipeline PL(R"(
void lp(int x) { lp(x); }
void m() { lp(1); }
)");
  // Resolve lp as Loop by hand, then verify m.
  ResolvedScenario RS;
  RS.Safety = Verifier::defaultSpec();
  RS.Params = {mkVar("x")};
  CaseOutcome C;
  C.Guard = Formula::top();
  C.Temporal = TemporalSpec::loop();
  C.PostReachable = false;
  RS.Cases.push_back(C);
  PL.V->registerResolved("lp", {RS});

  auto Rs = PL.V->runGroup({"m"});
  ASSERT_EQ(Rs.size(), 1u);
  const ScenarioAssumptions &A = Rs[0].Assumptions;
  // Pre-assumption to Loop and a definitely-false post item at the exit.
  ASSERT_EQ(A.S.size(), 1u);
  EXPECT_EQ(A.S[0].TK, PreAssume::Target::Loop);
  ASSERT_EQ(A.T.size(), 1u);
  ASSERT_EQ(A.T[0].Items.size(), 1u);
  EXPECT_EQ(A.T[0].Items[0].K, PostItem::Kind::False);
}

TEST(Verify, RefParamPostApplied) {
  SolverContext SC;
  Pipeline PL(R"(
void bump(ref int x)
  requires true & Term ensures x' = x + 1;
void m(int a)
{
  a = 0;
  bump(a);
  assume(true);
}
)");
  auto Rs = PL.V->runGroup({"m"});
  ASSERT_EQ(Rs.size(), 1u);
  ASSERT_EQ(Rs[0].Assumptions.T.size(), 1u);
  // At the exit, a == 1 must be derivable from the callee's post.
  const PostAssume &T = Rs[0].Assumptions.T[0];
  // Find m's exit context and check it has a variable constrained to 1.
  EXPECT_NE(SC.isSat(T.Ctx), Tri::False);
}

TEST(Verify, NondetBranchesTagged) {
  Pipeline PL(R"(
void m(int x)
{
  if (nondet_bool()) return;
  else m(x);
}
)");
  auto Rs = PL.V->runGroup({"m"});
  const ScenarioAssumptions &A = Rs[0].Assumptions;
  // Both the exit and the recursion carry (complementary) choice tags.
  ASSERT_EQ(A.S.size(), 1u);
  ASSERT_EQ(A.S[0].Choices.size(), 1u);
  bool RecTaken = A.S[0].Choices.begin()->second;
  bool SawExitWithOpposite = false;
  for (const PostAssume &T : A.T)
    for (const auto &[Tag, B] : T.Choices)
      if (B != RecTaken)
        SawExitWithOpposite = true;
  EXPECT_TRUE(SawExitWithOpposite);
}

TEST(Verify, PostconditionFailureFlagged) {
  Pipeline PL(R"(
int bad(int x)
  requires true ensures res = x + 1;
{
  return x;
}
)");
  auto Rs = PL.V->runGroup({"bad"});
  EXPECT_TRUE(Rs[0].Assumptions.SafetyFailed);
  EXPECT_TRUE(PL.VDiags.hasErrors());
}

TEST(Verify, MemoryErrorFlagged) {
  Pipeline PL(R"(
data node { node next; }
void m(node x) { x.next = null; }
)");
  // No heap describes x: the field assignment is unsafe.
  auto Rs = PL.V->runGroup({"m"});
  EXPECT_TRUE(Rs[0].Assumptions.SafetyFailed);
}

TEST(Verify, CanonicalParamsIncludeGhosts) {
  Pipeline PL(R"(
data node { node next; }
pred lseg(root, q, n) == root = q & n = 0
  or root |-> node(p) * lseg(p, q, n - 1);
void walk(node x)
  requires lseg(x, null, n) ensures true;
{ if (x == null) return; else walk(x.next); }
)");
  const MethodDecl *M = PL.P.findMethod("walk");
  std::vector<VarId> Canon = Verifier::canonicalParams(*M, M->Specs[0]);
  ASSERT_EQ(Canon.size(), 2u);
  EXPECT_EQ(varName(Canon[0]), "x");
  EXPECT_EQ(varName(Canon[1]), "n");
}
