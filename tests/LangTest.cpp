//===- tests/LangTest.cpp - frontend: lexer/parser/resolve/lower -*- C++-*-===//

#include "lang/CallGraph.h"
#include "lang/Parser.h"
#include "lang/Resolve.h"
#include "lang/Transforms.h"

#include <gtest/gtest.h>

using namespace tnt;

namespace {

Program parseOk(const std::string &Src) {
  DiagnosticEngine Diags;
  std::optional<Program> P = parseProgram(Src, Diags);
  EXPECT_TRUE(P.has_value()) << Diags.str();
  return P ? std::move(*P) : Program{};
}

const char *FooSrc = R"(
void foo(int x, int y)
{
  if (x < 0) return;
  else foo(x + y, y);
}
)";

const char *AckSrc = R"(
int Ack(int m, int n)
  requires true ensures res >= n + 1;
{
  if (m == 0) return n + 1;
  else if (n == 0) return Ack(m - 1, 1);
  else return Ack(m - 1, Ack(m, n - 1));
}
)";

const char *AppendSrc = R"(
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
)";

} // namespace

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

TEST(Lexer, BasicTokens) {
  DiagnosticEngine Diags;
  std::vector<Token> Ts = tokenize("x' |-> <= == != && ||", Diags);
  ASSERT_FALSE(Diags.hasErrors());
  ASSERT_EQ(Ts.size(), 8u); // 7 tokens + EOF
  EXPECT_EQ(Ts[0].K, Tok::Ident);
  EXPECT_EQ(Ts[0].Text, "x'");
  EXPECT_EQ(Ts[1].K, Tok::PointsTo);
  EXPECT_EQ(Ts[2].K, Tok::Le);
  EXPECT_EQ(Ts[3].K, Tok::EqEq);
  EXPECT_EQ(Ts[4].K, Tok::NotEq);
  EXPECT_EQ(Ts[5].K, Tok::AmpAmp);
  EXPECT_EQ(Ts[6].K, Tok::PipePipe);
}

TEST(Lexer, CommentsAndLocations) {
  DiagnosticEngine Diags;
  std::vector<Token> Ts = tokenize("// line\n/* block\n */ x", Diags);
  ASSERT_FALSE(Diags.hasErrors());
  ASSERT_EQ(Ts.size(), 2u);
  EXPECT_EQ(Ts[0].Text, "x");
  EXPECT_EQ(Ts[0].Loc.Line, 3u);
}

TEST(Lexer, Keywords) {
  DiagnosticEngine Diags;
  std::vector<Token> Ts =
      tokenize("requires ensures Term Loop MayLoop emp or", Diags);
  EXPECT_EQ(Ts[0].K, Tok::KwRequires);
  EXPECT_EQ(Ts[1].K, Tok::KwEnsures);
  EXPECT_EQ(Ts[2].K, Tok::KwTerm);
  EXPECT_EQ(Ts[3].K, Tok::KwLoop);
  EXPECT_EQ(Ts[4].K, Tok::KwMayLoop);
  EXPECT_EQ(Ts[5].K, Tok::KwEmp);
  EXPECT_EQ(Ts[6].K, Tok::KwOr);
}

TEST(Lexer, ReportsStrayCharacters) {
  DiagnosticEngine Diags;
  tokenize("x @ y", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

TEST(Parser, FooProgram) {
  Program P = parseOk(FooSrc);
  ASSERT_EQ(P.Methods.size(), 1u);
  const MethodDecl &M = P.Methods[0];
  EXPECT_EQ(M.Name, "foo");
  EXPECT_EQ(M.Params.size(), 2u);
  EXPECT_TRUE(M.Specs.empty()); // unknowns added by the analysis
  ASSERT_TRUE(M.Body);
}

TEST(Parser, AckSpec) {
  Program P = parseOk(AckSrc);
  ASSERT_EQ(P.Methods.size(), 1u);
  const MethodDecl &M = P.Methods[0];
  ASSERT_EQ(M.Specs.size(), 1u);
  EXPECT_TRUE(M.Specs[0].PrePure.isTop());
  // res >= n + 1 mentions res.
  std::set<VarId> Free = M.Specs[0].PostPure.freeVars();
  EXPECT_TRUE(Free.count(mkVar("res")));
  EXPECT_TRUE(Free.count(mkVar("n")));
}

TEST(Parser, AppendHeapSpecs) {
  Program P = parseOk(AppendSrc);
  ASSERT_EQ(P.Datas.size(), 1u);
  ASSERT_EQ(P.Preds.size(), 2u);
  const PredDecl &Lseg = P.Preds[0];
  EXPECT_EQ(Lseg.Name, "lseg");
  ASSERT_EQ(Lseg.Branches.size(), 2u);
  EXPECT_TRUE(Lseg.Branches[0].Heap.isEmp());
  ASSERT_EQ(Lseg.Branches[1].Heap.Atoms.size(), 2u);
  EXPECT_EQ(Lseg.Branches[1].Heap.Atoms[0].K, HeapAtom::Kind::PointsTo);
  EXPECT_EQ(Lseg.Branches[1].Heap.Atoms[1].K, HeapAtom::Kind::Pred);

  const MethodDecl &M = P.Methods[0];
  ASSERT_EQ(M.Specs.size(), 2u);
  EXPECT_EQ(M.Specs[0].PreHeap.Atoms.size(), 1u);
  EXPECT_EQ(M.Specs[0].PostHeap.Atoms.size(), 1u);
  EXPECT_EQ(M.Specs[1].PreHeap.Atoms[0].Name, "cll");
}

TEST(Parser, TemporalSpecs) {
  Program P = parseOk(R"(
void lib(int x)
  requires x >= 0 & Term[x] ensures true;
void libloop()
  requires Loop ensures false;
void libmay()
  requires MayLoop ensures true;
)");
  ASSERT_EQ(P.Methods.size(), 3u);
  EXPECT_EQ(P.Methods[0].Specs[0].Temporal.K, TemporalSpec::Kind::Term);
  ASSERT_EQ(P.Methods[0].Specs[0].Temporal.Measure.size(), 1u);
  EXPECT_EQ(P.Methods[1].Specs[0].Temporal.K, TemporalSpec::Kind::Loop);
  EXPECT_TRUE(P.Methods[1].Specs[0].PostPure.isBottom());
  EXPECT_EQ(P.Methods[2].Specs[0].Temporal.K, TemporalSpec::Kind::MayLoop);
}

TEST(Parser, WhileAndNondet) {
  Program P = parseOk(R"(
void m(int x)
{
  while (x > 0) { x = x - 1; }
  if (nondet_bool()) { x = nondet_int(); }
}
)");
  ASSERT_EQ(P.Methods.size(), 1u);
  const Stmt &Body = *P.Methods[0].Body;
  ASSERT_GE(Body.Stmts.size(), 2u);
  EXPECT_EQ(Body.Stmts[0]->K, Stmt::Kind::While);
  EXPECT_EQ(Body.Stmts[1]->K, Stmt::Kind::If);
  EXPECT_EQ(Body.Stmts[1]->E->K, Expr::Kind::NondetBool);
}

TEST(Parser, SyntaxErrorReported) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(parseProgram("void m( { }", Diags).has_value());
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(Parser, SpecDisjunctionParens) {
  Program P = parseOk(R"(
void m(int n)
  requires (n < 100 or n > 200) & true ensures true;
{ return; }
)");
  const Formula &Pre = P.Methods[0].Specs[0].PrePure;
  EXPECT_TRUE(Pre.eval({{mkVar("n"), 50}}));
  EXPECT_FALSE(Pre.eval({{mkVar("n"), 150}}));
  EXPECT_TRUE(Pre.eval({{mkVar("n"), 250}}));
}

TEST(Parser, MultiplicationVsSepConj) {
  Program P = parseOk(R"(
data node { node next; }
pred two(root, n) == root |-> node(p) * lseg2(p, 2 * n);
pred lseg2(root, n) == root = 0 & n = 0;
void m(node x) requires two(x, m) ensures true; { return; }
)");
  // 2*n parsed as multiplication inside pred args; '*' between atoms as
  // separating conjunction.
  ASSERT_EQ(P.Preds[0].Branches.size(), 1u);
  EXPECT_EQ(P.Preds[0].Branches[0].Heap.Atoms.size(), 2u);
}

TEST(Parser, DeepNestingIsAnError) {
  // Each shape 100k levels deep: a diagnostic, not a stack overflow —
  // in the parser or in any later pass over the tree it would build.
  auto repeat = [](const std::string &S, size_t N) {
    std::string Out;
    Out.reserve(S.size() * N);
    for (size_t I = 0; I < N; ++I)
      Out += S;
    return Out;
  };
  const size_t N = 100000;
  const std::vector<std::pair<const char *, std::string>> Shapes = {
      {"parens", "int main(int n) { return " + repeat("(", N) + "n" +
                     repeat(")", N) + "; }"},
      {"sum chain", "int main(int n) { return n" + repeat(" + n", N) + "; }"},
      {"blocks",
       "int main(int n) { " + repeat("{", N) + "return n;" + repeat("}", N) +
           " }"},
      {"if chain",
       "int main(int n) { " + repeat("if (n > 0) ", N) + "return n; }"},
      {"unary minus", "int main(int n) { return " + repeat("-", N) + "n; }"},
      {"spec parens", "int main(int n) requires " + repeat("(", N) +
                          "n > 0" + repeat(")", N) +
                          " ensures true; { return n; }"},
      {"spec minus", "int main(int n) requires " + repeat("-", N) +
                         "n > 0 ensures true; { return n; }"},
  };
  for (const auto &[Name, Src] : Shapes) {
    DiagnosticEngine Diags;
    EXPECT_FALSE(parseProgram(Src, Diags).has_value()) << Name;
    EXPECT_NE(Diags.str().find("nesting exceeds"), std::string::npos)
        << Name << ": " << Diags.str().substr(0, 200);
  }
  // Just under the bound still parses.
  const size_t Ok = MaxParseDepth - 10;
  parseOk("int main(int n) { return " + repeat("(", Ok) + "n" +
          repeat(")", Ok) + "; }");
  parseOk("int main(int n) { return n" + repeat(" + n", Ok) + "; }");
}

//===----------------------------------------------------------------------===//
// Resolver
//===----------------------------------------------------------------------===//

TEST(Resolve, AcceptsGoodPrograms) {
  DiagnosticEngine Diags;
  Program P = parseOk(FooSrc);
  EXPECT_TRUE(resolveProgram(P, Diags)) << Diags.str();
  Program P2 = parseOk(AppendSrc);
  EXPECT_TRUE(resolveProgram(P2, Diags)) << Diags.str();
}

TEST(Resolve, RejectsUndeclaredVariable) {
  DiagnosticEngine Diags;
  Program P = parseOk("void m() { x = 1; }");
  EXPECT_FALSE(resolveProgram(P, Diags));
}

TEST(Resolve, RejectsUnknownCallee) {
  DiagnosticEngine Diags;
  Program P = parseOk("void m() { g(); }");
  EXPECT_FALSE(resolveProgram(P, Diags));
}

TEST(Resolve, RejectsArityMismatch) {
  DiagnosticEngine Diags;
  Program P = parseOk("void g(int x) { return; } void m() { g(); }");
  EXPECT_FALSE(resolveProgram(P, Diags));
}

TEST(Resolve, RejectsNonlinearMultiplication) {
  DiagnosticEngine Diags;
  Program P = parseOk("void m(int x, int y) { x = x * y; }");
  EXPECT_FALSE(resolveProgram(P, Diags));
}

TEST(Resolve, RejectsBadFieldAccess) {
  DiagnosticEngine Diags;
  Program P = parseOk(R"(
data node { node next; }
void m(node x) { x.prev = x; }
)");
  EXPECT_FALSE(resolveProgram(P, Diags));
}

TEST(Resolve, RejectsReturnInWhile) {
  DiagnosticEngine Diags;
  Program P = parseOk("void m(int x) { while (x > 0) { return; } }");
  EXPECT_FALSE(resolveProgram(P, Diags));
}

TEST(Resolve, RejectsPrimitiveWithoutSpec) {
  DiagnosticEngine Diags;
  Program P = parseOk("void prim(int x);");
  EXPECT_FALSE(resolveProgram(P, Diags));
}

TEST(Resolve, BlockScoping) {
  DiagnosticEngine Diags;
  Program P = parseOk("void m() { { int x; x = 1; } { int x; x = 2; } }");
  EXPECT_TRUE(resolveProgram(P, Diags)) << Diags.str();
}

//===----------------------------------------------------------------------===//
// Loop lowering
//===----------------------------------------------------------------------===//

TEST(LowerLoops, SimpleCountdown) {
  DiagnosticEngine Diags;
  Program P = parseOk("void m(int x) { while (x > 0) { x = x - 1; } }");
  ASSERT_TRUE(resolveProgram(P, Diags));
  ASSERT_TRUE(lowerLoops(P, Diags)) << Diags.str();
  ASSERT_EQ(P.Methods.size(), 2u);
  const MethodDecl &LM = P.Methods[1];
  EXPECT_TRUE(LM.FromLoop);
  ASSERT_EQ(LM.Params.size(), 1u);
  EXPECT_TRUE(LM.Params[0].ByRef);
  // Post: !(x' > 0) i.e. x' <= 0.
  ASSERT_EQ(LM.Specs.size(), 1u);
  Formula Post = LM.Specs[0].PostPure;
  EXPECT_TRUE(Post.eval({{mkVar("x'"), 0}}));
  EXPECT_FALSE(Post.eval({{mkVar("x'"), 1}}));
  // The original body now calls the loop method.
  EXPECT_EQ(P.Methods[0].Body->Stmts[0]->K, Stmt::Kind::CallStmt);
  // And the loop method is self-recursive.
  CallGraph G = CallGraph::build(P);
  EXPECT_TRUE(G.isRecursive(LM.Name));
}

TEST(LowerLoops, NestedLoops) {
  DiagnosticEngine Diags;
  Program P = parseOk(R"(
void m(int i, int j)
{
  while (i > 0) {
    int k;
    k = j;
    while (k > 0) { k = k - 1; }
    i = i - 1;
  }
}
)");
  ASSERT_TRUE(resolveProgram(P, Diags));
  ASSERT_TRUE(lowerLoops(P, Diags)) << Diags.str();
  // Two synthesized methods, inner lowered first.
  ASSERT_EQ(P.Methods.size(), 3u);
  EXPECT_TRUE(P.Methods[1].FromLoop);
  EXPECT_TRUE(P.Methods[2].FromLoop);
}

TEST(LowerLoops, NondetConditionGetsTruePost) {
  DiagnosticEngine Diags;
  Program P = parseOk(
      "void m(int x) { while (nondet_int() > x) { x = x + 1; } }");
  ASSERT_TRUE(resolveProgram(P, Diags));
  ASSERT_TRUE(lowerLoops(P, Diags)) << Diags.str();
  ASSERT_EQ(P.Methods.size(), 2u);
  EXPECT_TRUE(P.Methods[1].Specs[0].PostPure.isTop());
}

TEST(LowerLoops, RejectsHeapLoop) {
  DiagnosticEngine Diags;
  Program P = parseOk(R"(
data node { node next; }
void m(node x) { while (x != null) { x = x.next; } }
)");
  ASSERT_TRUE(resolveProgram(P, Diags));
  EXPECT_FALSE(lowerLoops(P, Diags));
}

//===----------------------------------------------------------------------===//
// Call graph
//===----------------------------------------------------------------------===//

TEST(CallGraph, SelfRecursion) {
  Program P = parseOk(FooSrc);
  CallGraph G = CallGraph::build(P);
  EXPECT_TRUE(G.isRecursive("foo"));
  EXPECT_TRUE(G.sameScc("foo", "foo"));
  ASSERT_EQ(G.sccs().size(), 1u);
}

TEST(CallGraph, MutualRecursionGroupedAndOrdered) {
  Program P = parseOk(R"(
void h() { return; }
void f(int x) { g(x); }
void g(int x) { f(x); h(); }
void main_m() { f(3); }
)");
  CallGraph G = CallGraph::build(P);
  EXPECT_TRUE(G.sameScc("f", "g"));
  EXPECT_FALSE(G.sameScc("f", "h"));
  EXPECT_TRUE(G.isRecursive("f"));
  EXPECT_FALSE(G.isRecursive("h"));
  EXPECT_FALSE(G.isRecursive("main_m"));
  // Bottom-up order: h before {f,g} before main_m.
  size_t HIdx = 0, FGIdx = 0, MainIdx = 0;
  for (size_t I = 0; I < G.sccs().size(); ++I) {
    for (const std::string &N : G.sccs()[I]) {
      if (N == "h")
        HIdx = I;
      if (N == "f")
        FGIdx = I;
      if (N == "main_m")
        MainIdx = I;
    }
  }
  EXPECT_LT(HIdx, FGIdx);
  EXPECT_LT(FGIdx, MainIdx);
}

TEST(CallGraph, CalleesListed) {
  Program P = parseOk(R"(
void a() { b(); c(); }
void b() { return; }
void c() { b(); }
)");
  CallGraph G = CallGraph::build(P);
  EXPECT_EQ(G.callees("a").size(), 2u);
  EXPECT_EQ(G.callees("b").size(), 0u);
  EXPECT_TRUE(G.callees("c").count("b"));
}
