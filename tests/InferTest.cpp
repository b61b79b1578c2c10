//===- tests/InferTest.cpp - end-to-end inference on paper examples ------===//

#include "api/Analyzer.h"
#include "solver/SolverContext.h"

#include <gtest/gtest.h>

using namespace tnt;

namespace {

AnalysisResult analyzeOk(const std::string &Src,
                         const AnalyzerConfig &Cfg = {}) {
  AnalysisResult R = analyzeProgram(Src, Cfg);
  EXPECT_TRUE(R.Ok) << R.Diagnostics;
  return R;
}

/// Checks that every inferred case intersecting \p Region has
/// classification \p K (the summary may partition the region more finely
/// than the paper's presentation).
void expectCase(const TntSummary &S, const Formula &Region,
                TemporalSpec::Kind K) {
  SolverContext SC;
  bool Intersected = false;
  for (const CaseOutcome &C : S.flatten()) {
    if (SC.isSat(Formula::conj2(Region, C.Guard)) != Tri::True)
      continue;
    Intersected = true;
    EXPECT_EQ(C.Temporal.K, K)
        << "case " << C.Guard.str() << " intersects " << Region.str()
        << " with the wrong classification in\n"
        << S.str();
  }
  EXPECT_TRUE(Intersected) << "no case intersects " << Region.str();
}

LinExpr ex(const char *N) { return LinExpr::var(mkVar(N)); }

} // namespace

//===----------------------------------------------------------------------===//
// The running example (Fig. 1 / Section 2)
//===----------------------------------------------------------------------===//

TEST(InferFoo, PaperCaseSpec) {
  AnalysisResult R = analyzeOk(R"(
void foo(int x, int y)
{
  if (x < 0) return;
  else foo(x + y, y);
}
)");
  const MethodResult *M = R.find("foo");
  ASSERT_NE(M, nullptr);
  EXPECT_FALSE(M->SafetyFailed);
  // The paper derives:
  //   x <  0           -> Term
  //   x >= 0 && y <  0 -> Term[x]
  //   x >= 0 && y >= 0 -> Loop (post false)
  Formula XNeg = Formula::cmp(ex("x"), CmpKind::Lt, LinExpr(0));
  Formula TermCase = Formula::conj2(
      Formula::cmp(ex("x"), CmpKind::Ge, LinExpr(0)),
      Formula::cmp(ex("y"), CmpKind::Lt, LinExpr(0)));
  Formula LoopCase = Formula::conj2(
      Formula::cmp(ex("x"), CmpKind::Ge, LinExpr(0)),
      Formula::cmp(ex("y"), CmpKind::Ge, LinExpr(0)));
  expectCase(M->Summary, XNeg, TemporalSpec::Kind::Term);
  expectCase(M->Summary, TermCase, TemporalSpec::Kind::Term);
  expectCase(M->Summary, LoopCase, TemporalSpec::Kind::Loop);
  EXPECT_EQ(M->Summary.verdict(), TntSummary::Verdict::Conditional);
  EXPECT_TRUE(M->ReVerified);
}

TEST(InferFoo, LoopCasePostUnreachable) {
  AnalysisResult R = analyzeOk(R"(
void foo(int x, int y)
{
  if (x < 0) return;
  else foo(x + y, y);
}
)");
  const MethodResult *M = R.find("foo");
  ASSERT_NE(M, nullptr);
  for (const CaseOutcome &C : M->Summary.flatten()) {
    if (C.Temporal.K == TemporalSpec::Kind::Loop)
      EXPECT_FALSE(C.PostReachable);
    else
      EXPECT_TRUE(C.PostReachable);
  }
}

//===----------------------------------------------------------------------===//
// Simple terminating / non-terminating methods
//===----------------------------------------------------------------------===//

TEST(InferBasic, StraightLineIsTerm) {
  AnalysisResult R = analyzeOk("void m(int x) { x = x + 1; return; }");
  ASSERT_NE(R.find("m"), nullptr);
  EXPECT_EQ(R.find("m")->Summary.verdict(), TntSummary::Verdict::Terminating);
}

TEST(InferBasic, CountdownTerm) {
  AnalysisResult R = analyzeOk(R"(
void cd(int n)
{
  if (n <= 0) return;
  else cd(n - 1);
}
)");
  EXPECT_EQ(R.find("cd")->Summary.verdict(),
            TntSummary::Verdict::Terminating);
}

TEST(InferBasic, AlwaysLoop) {
  AnalysisResult R = analyzeOk("void lp(int x) { lp(x + 1); }");
  const MethodResult *M = R.find("lp");
  EXPECT_EQ(M->Summary.verdict(), TntSummary::Verdict::NonTerminating);
  EXPECT_TRUE(M->ReVerified);
}

TEST(InferBasic, WhileLoopLowered) {
  AnalysisResult R = analyzeOk(R"(
void m(int i, int n)
{
  while (i < n) { i = i + 1; }
}
)");
  // Both the wrapper and the loop method terminate.
  EXPECT_EQ(R.outcome("m"), Outcome::Yes);
}

TEST(InferBasic, InfiniteWhile) {
  AnalysisResult R = analyzeOk(R"(
void m(int i)
{
  while (i >= 0) { i = i + 1; }
}
)");
  const MethodResult *M = R.find("m");
  // For i >= 0 the loop diverges; for i < 0 it exits: conditional.
  EXPECT_EQ(M->Summary.verdict(), TntSummary::Verdict::Conditional);
}

TEST(InferBasic, MutualRecursion) {
  AnalysisResult R = analyzeOk(R"(
void even(int n)
{
  if (n == 0) return;
  else odd(n - 1);
}
void odd(int n)
{
  if (n == 0) return;
  else even(n - 1);
}
)");
  // Terminates for n >= 0; loops for n < 0: conditional for both.
  EXPECT_EQ(R.find("even")->Summary.verdict(),
            TntSummary::Verdict::Conditional);
  EXPECT_EQ(R.find("odd")->Summary.verdict(),
            TntSummary::Verdict::Conditional);
}

TEST(InferBasic, CallerInheritsLoop) {
  AnalysisResult R = analyzeOk(R"(
void lp(int x) { lp(x); }
void main_m() { lp(3); }
)");
  EXPECT_EQ(R.find("lp")->Summary.verdict(),
            TntSummary::Verdict::NonTerminating);
  EXPECT_EQ(R.outcome("main_m"), Outcome::No);
}

TEST(InferBasic, ConditionalCallerOfLoop) {
  AnalysisResult R = analyzeOk(R"(
void lp(int x) { lp(x); }
void m(int c)
{
  if (c > 0) lp(c);
  else return;
}
)");
  const MethodResult *M = R.find("m");
  Formula CPos = Formula::cmp(ex("c"), CmpKind::Gt, LinExpr(0));
  Formula CNeg = Formula::cmp(ex("c"), CmpKind::Le, LinExpr(0));
  expectCase(M->Summary, CPos, TemporalSpec::Kind::Loop);
  expectCase(M->Summary, CNeg, TemporalSpec::Kind::Term);
}

//===----------------------------------------------------------------------===//
// Nested recursion (Fig. 3)
//===----------------------------------------------------------------------===//

TEST(InferNested, AckermannWithSpec) {
  AnalysisResult R = analyzeOk(R"(
int Ack(int m, int n)
  requires true ensures res >= n + 1;
{
  if (m == 0) return n + 1;
  else if (n == 0) return Ack(m - 1, 1);
  else return Ack(m - 1, Ack(m, n - 1));
}
)");
  const MethodResult *M = R.find("Ack");
  ASSERT_NE(M, nullptr);
  EXPECT_FALSE(M->SafetyFailed);
  // With the res >= n+1 bound, the paper proves Term[m,n] for
  // m>0 && n>=0, Term for m=0, Loop for m<0 || n<0.
  Formula Base = Formula::cmp(ex("m"), CmpKind::Eq, LinExpr(0));
  Formula NegM = Formula::cmp(ex("m"), CmpKind::Lt, LinExpr(0));
  Formula Rec = Formula::conj2(Formula::cmp(ex("m"), CmpKind::Gt, LinExpr(0)),
                               Formula::cmp(ex("n"), CmpKind::Ge, LinExpr(0)));
  expectCase(M->Summary, Base, TemporalSpec::Kind::Term);
  expectCase(M->Summary, NegM, TemporalSpec::Kind::Loop);
  expectCase(M->Summary, Rec, TemporalSpec::Kind::Term);
  EXPECT_EQ(M->Summary.verdict(), TntSummary::Verdict::Conditional);
}

TEST(InferNested, AckermannWithoutSpecLeavesMayLoop) {
  AnalysisResult R = analyzeOk(R"(
int Ack(int m, int n)
{
  if (m == 0) return n + 1;
  else if (n == 0) return Ack(m - 1, 1);
  else return Ack(m - 1, Ack(m, n - 1));
}
)");
  const MethodResult *M = R.find("Ack");
  // Without the output bound the inner call's second argument is
  // unconstrained: the paper reports MayLoop for m>0 && n>=0.
  EXPECT_EQ(M->Summary.verdict(), TntSummary::Verdict::Unknown);
  expectCase(M->Summary, Formula::cmp(ex("m"), CmpKind::Eq, LinExpr(0)),
             TemporalSpec::Kind::Term);
}

TEST(InferNested, McCarthy91WithSpec) {
  AnalysisResult R = analyzeOk(R"(
int Mc91(int n)
  requires true ensures (n <= 100 & res = 91) or (n > 100 & res = n - 10);
{
  if (n > 100) return n - 10;
  else return Mc91(Mc91(n + 11));
}
)");
  const MethodResult *M = R.find("Mc91");
  ASSERT_NE(M, nullptr);
  EXPECT_FALSE(M->SafetyFailed) << R.Diagnostics;
  // With the specification the paper proves termination for all inputs.
  EXPECT_EQ(M->Summary.verdict(), TntSummary::Verdict::Terminating)
      << M->Summary.str();
}

//===----------------------------------------------------------------------===//
// Heap examples (Fig. 4)
//===----------------------------------------------------------------------===//

TEST(InferHeap, AppendTerminatesOnLseg) {
  AnalysisResult R = analyzeOk(R"(
data node { node next; }
pred lseg(root, q, n) == root = q & n = 0
  or root |-> node(p) * lseg(p, q, n - 1);
pred cll(root, n) == root |-> node(p) * lseg(p, root, n - 1);

void append(node x, node y)
  requires lseg(x, null, n) & x != null ensures lseg(x, y, n);
  requires cll(x, n) ensures true;
{
  if (x.next == null) x.next = y;
  else append(x.next, y);
}
)");
  const MethodResult *Lseg = R.find("append", 0);
  ASSERT_NE(Lseg, nullptr);
  EXPECT_FALSE(Lseg->SafetyFailed) << R.Diagnostics;
  EXPECT_EQ(Lseg->Summary.verdict(), TntSummary::Verdict::Terminating)
      << Lseg->Summary.str();

  const MethodResult *Cll = R.find("append", 1);
  ASSERT_NE(Cll, nullptr);
  EXPECT_FALSE(Cll->SafetyFailed) << R.Diagnostics;
  EXPECT_EQ(Cll->Summary.verdict(), TntSummary::Verdict::NonTerminating)
      << Cll->Summary.str();
}

//===----------------------------------------------------------------------===//
// Nondeterminism (Section 8's handling)
//===----------------------------------------------------------------------===//

TEST(InferNondet, AngelicLoopBranch) {
  AnalysisResult R = analyzeOk(R"(
void m(int x)
{
  if (nondet_bool()) return;
  else m(x);
}
)");
  // One branch loops: marked non-terminating under the paper's rule.
  EXPECT_EQ(R.find("m")->Summary.verdict(),
            TntSummary::Verdict::NonTerminating);
}

TEST(InferNondet, NondetArgStaysUnknown) {
  AnalysisResult R = analyzeOk(R"(
void m(int x)
{
  if (x <= 0) return;
  else m(nondet_int());
}
)");
  // The next value is unconstrained: neither Term nor Loop for x > 0.
  EXPECT_EQ(R.find("m")->Summary.verdict(), TntSummary::Verdict::Unknown);
}

//===----------------------------------------------------------------------===//
// Baseline knobs
//===----------------------------------------------------------------------===//

TEST(InferConfig, TermOnlyNeverAnswersLoop) {
  AnalyzerConfig Cfg;
  Cfg.Solve.EnableNonTermProof = false;
  AnalysisResult R = analyzeOk("void lp(int x) { lp(x); }", Cfg);
  EXPECT_EQ(R.find("lp")->Summary.verdict(), TntSummary::Verdict::Unknown);
}

TEST(InferConfig, NoAbductionLosesFooPrecision) {
  AnalyzerConfig Cfg;
  Cfg.Solve.EnableAbduction = false;
  AnalysisResult R = analyzeOk(R"(
void foo(int x, int y)
{
  if (x < 0) return;
  else foo(x + y, y);
}
)",
                               Cfg);
  // Without case-split abduction the x>=0 region cannot be separated
  // into y<0 / y>=0: it stays MayLoop.
  EXPECT_EQ(R.find("foo")->Summary.verdict(), TntSummary::Verdict::Unknown);
}

TEST(InferConfig, FuelBudgetClassifiesTimeout) {
  AnalyzerConfig Cfg;
  Cfg.FuelBudget = 1; // Absurdly small.
  AnalysisResult R = analyzeOk(R"(
void foo(int x, int y)
{
  if (x < 0) return;
  else foo(x + y, y);
}
)",
                               Cfg);
  EXPECT_GT(R.FuelUsed, 1u);
  EXPECT_EQ(R.outcome("foo"), Outcome::Timeout);
}

TEST(InferConfig, MonolithicModeStillSolvesSimple) {
  AnalyzerConfig Cfg;
  Cfg.Modular = false;
  AnalysisResult R = analyzeOk(R"(
void cd(int n)
{
  if (n <= 0) return;
  else cd(n - 1);
}
)",
                               Cfg);
  EXPECT_EQ(R.find("cd")->Summary.verdict(),
            TntSummary::Verdict::Terminating);
}
