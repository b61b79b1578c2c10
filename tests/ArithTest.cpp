//===- tests/ArithTest.cpp - arith layer unit tests ------------*- C++ -*-===//

#include "arith/Formula.h"

#include <gtest/gtest.h>

using namespace tnt;

namespace {

// Intern in a fixed order so VarId-keyed term printing is deterministic
// regardless of argument evaluation order inside the tests.
struct InternOrder {
  InternOrder() {
    mkVar("x");
    mkVar("y");
    mkVar("z");
  }
} GInternOrder;

VarId X() { return mkVar("x"); }
VarId Y() { return mkVar("y"); }
VarId Z() { return mkVar("z"); }

LinExpr ex(VarId V) { return LinExpr::var(V); }

} // namespace

//===----------------------------------------------------------------------===//
// VarPool
//===----------------------------------------------------------------------===//

TEST(VarPool, InternIsIdempotent) {
  EXPECT_EQ(mkVar("same"), mkVar("same"));
  EXPECT_NE(mkVar("a1"), mkVar("a2"));
}

TEST(VarPool, FreshNeverCollides) {
  VarId A = freshVar("tmp");
  VarId B = freshVar("tmp");
  EXPECT_NE(A, B);
  EXPECT_NE(varName(A), varName(B));
  // Fresh names use '!' which the parser rejects in identifiers.
  EXPECT_NE(varName(A).find('!'), std::string::npos);
}

//===----------------------------------------------------------------------===//
// LinExpr
//===----------------------------------------------------------------------===//

TEST(LinExpr, Algebra) {
  LinExpr E = ex(X()) * 2 + ex(Y()) - LinExpr(3);
  EXPECT_EQ(E.coeff(X()), 2);
  EXPECT_EQ(E.coeff(Y()), 1);
  EXPECT_EQ(E.coeff(Z()), 0);
  EXPECT_EQ(E.constant(), -3);

  LinExpr Zero = E - E;
  EXPECT_TRUE(Zero.isZero());
  EXPECT_TRUE((E * 0).isZero());
}

TEST(LinExpr, SparseInvariant) {
  LinExpr E = ex(X()) + ex(Y());
  E = E - ex(Y());
  EXPECT_FALSE(E.mentions(Y()));
  EXPECT_TRUE(E.mentions(X()));
}

TEST(LinExpr, Substitute) {
  // (2x + y) [x := y + 1] == 3y + 2.
  LinExpr E = ex(X()) * 2 + ex(Y());
  LinExpr S = E.substitute(X(), ex(Y()) + 1);
  EXPECT_EQ(S.coeff(Y()), 3);
  EXPECT_EQ(S.constant(), 2);
  EXPECT_FALSE(S.mentions(X()));
}

TEST(LinExpr, SubstituteAbsent) {
  LinExpr E = ex(Y()) * 5;
  EXPECT_EQ(E.substitute(X(), LinExpr(42)), E);
}

TEST(LinExpr, RenameSwallowsCollisions) {
  // x + y with y -> x gives 2x.
  LinExpr E = ex(X()) + ex(Y());
  std::map<VarId, VarId> R{{Y(), X()}};
  LinExpr Out = E.rename(R);
  EXPECT_EQ(Out.coeff(X()), 2);
  EXPECT_FALSE(Out.mentions(Y()));
}

TEST(LinExpr, EvalAndGcd) {
  LinExpr E = ex(X()) * 4 + ex(Y()) * 6 - 2;
  EXPECT_EQ(E.coeffGcd(), 2);
  std::map<VarId, int64_t> M{{X(), 1}, {Y(), 2}};
  EXPECT_EQ(E.eval(M), 4 + 12 - 2);
}

TEST(LinExpr, EvalClampsInsteadOfWrapping) {
  const int64_t P62 = int64_t(1) << 62;
  LinExpr E = ex(X()) * P62 - 2;
  // 2^62 * -2 - 2 is below INT64_MIN; 2^62 * 3 - 2 is above INT64_MAX.
  EXPECT_EQ(E.eval({{X(), -2}}), INT64_MIN);
  EXPECT_EQ(E.eval({{X(), 3}}), INT64_MAX);
  EXPECT_EQ(E.eval({{X(), 2}}), INT64_MAX - 1);
  // The sign survives, and with it the truth of a constraint.
  EXPECT_TRUE(Constraint::leZero(E).eval({{X(), -2}}));
  EXPECT_FALSE(Constraint::leZero(E).eval({{X(), 3}}));
  // Large terms that cancel stay exact.
  LinExpr F = ex(X()) * INT64_MAX + ex(Y()) * INT64_MAX;
  EXPECT_EQ(F.eval({{X(), 3}, {Y(), -3}}), 0);
}

TEST(LinExpr, Str) {
  EXPECT_EQ((ex(X()) * 2 - ex(Y()) + 1).str(), "2*x - y + 1");
  EXPECT_EQ(LinExpr(0).str(), "0");
  EXPECT_EQ((-ex(X())).str(), "-x");
}

//===----------------------------------------------------------------------===//
// Constraint
//===----------------------------------------------------------------------===//

TEST(Constraint, StrictTightening) {
  // x < y over Z becomes x - y + 1 <= 0.
  Constraint C = Constraint::make(ex(X()), CmpKind::Lt, ex(Y()));
  EXPECT_TRUE(C.isLe());
  EXPECT_EQ(C.expr().coeff(X()), 1);
  EXPECT_EQ(C.expr().coeff(Y()), -1);
  EXPECT_EQ(C.expr().constant(), 1);
}

TEST(Constraint, GeGtNormalization) {
  Constraint Ge = Constraint::make(ex(X()), CmpKind::Ge, LinExpr(0));
  EXPECT_TRUE(Ge.isLe());
  EXPECT_EQ(Ge.expr().coeff(X()), -1);

  Constraint Gt = Constraint::make(ex(X()), CmpKind::Gt, LinExpr(0));
  EXPECT_EQ(Gt.expr().constant(), 1); // -x + 1 <= 0.
}

TEST(Constraint, ConstantTruth) {
  EXPECT_EQ(Constraint::make(LinExpr(1), CmpKind::Le, LinExpr(2))
                .constantTruth()
                .value(),
            true);
  EXPECT_EQ(Constraint::make(LinExpr(3), CmpKind::Eq, LinExpr(2))
                .constantTruth()
                .value(),
            false);
  EXPECT_FALSE(
      Constraint::make(ex(X()), CmpKind::Le, LinExpr(2)).constantTruth());
}

TEST(Constraint, NormalizedGcdTightening) {
  // 2x <= 1 tightens to x <= 0.
  Constraint C = Constraint::make(ex(X()) * 2, CmpKind::Le, LinExpr(1));
  Constraint N = C.normalized().value();
  EXPECT_EQ(N.expr().coeff(X()), 1);
  EXPECT_EQ(N.expr().constant(), 0);
}

TEST(Constraint, NormalizedGcdRefutesEquality) {
  // 2x = 1 has no integer solution.
  Constraint C = Constraint::make(ex(X()) * 2, CmpKind::Eq, LinExpr(1));
  EXPECT_FALSE(C.normalized().has_value());
}

TEST(Constraint, Negation) {
  Constraint Le = Constraint::make(ex(X()), CmpKind::Le, LinExpr(5));
  std::vector<Constraint> Neg = Le.negated();
  ASSERT_EQ(Neg.size(), 1u);
  // !(x <= 5) == x >= 6 == -x + 6 <= 0.
  EXPECT_EQ(Neg[0].expr().coeff(X()), -1);
  EXPECT_EQ(Neg[0].expr().constant(), 6);

  Constraint Eq = Constraint::make(ex(X()), CmpKind::Eq, LinExpr(0));
  EXPECT_TRUE(Eq.negated()[0].isNe());
}

TEST(Constraint, Eval) {
  Constraint C = Constraint::make(ex(X()) + ex(Y()), CmpKind::Le, LinExpr(3));
  EXPECT_TRUE(C.eval({{X(), 1}, {Y(), 2}}));
  EXPECT_FALSE(C.eval({{X(), 2}, {Y(), 2}}));
}

//===----------------------------------------------------------------------===//
// Formula
//===----------------------------------------------------------------------===//

TEST(Formula, ConstantFolding) {
  Formula T = Formula::top();
  Formula F = Formula::bottom();
  EXPECT_TRUE(Formula::conj2(T, F).isBottom());
  EXPECT_TRUE(Formula::disj2(T, F).isTop());
  EXPECT_TRUE(Formula::neg(T).isBottom());
  EXPECT_TRUE(Formula::conj({}).isTop());
  EXPECT_TRUE(Formula::disj({}).isBottom());
}

TEST(Formula, AtomConstantFolds) {
  Formula F = Formula::cmp(LinExpr(1), CmpKind::Le, LinExpr(0));
  EXPECT_TRUE(F.isBottom());
  Formula T = Formula::cmp(LinExpr(0), CmpKind::Le, LinExpr(0));
  EXPECT_TRUE(T.isTop());
}

TEST(Formula, FlattensNestedConnectives) {
  Formula A = Formula::cmp(ex(X()), CmpKind::Le, LinExpr(0));
  Formula B = Formula::cmp(ex(Y()), CmpKind::Le, LinExpr(0));
  Formula C = Formula::cmp(ex(Z()), CmpKind::Le, LinExpr(0));
  Formula F = Formula::conj2(A, Formula::conj2(B, C));
  EXPECT_EQ(F.node()->Children.size(), 3u);
}

TEST(Formula, FreeVars) {
  Formula F = Formula::conj2(Formula::cmp(ex(X()), CmpKind::Le, ex(Y())),
                             Formula::cmp(ex(Z()), CmpKind::Eq, LinExpr(0)));
  std::set<VarId> Free = F.freeVars();
  EXPECT_EQ(Free.size(), 3u);
  EXPECT_TRUE(Free.count(X()));

  Formula Ex = Formula::exists({Z()}, F);
  Free = Ex.freeVars();
  EXPECT_EQ(Free.size(), 2u);
  EXPECT_FALSE(Free.count(Z()));
}

TEST(Formula, ExistsOverAbsentVarIsDropped) {
  Formula F = Formula::cmp(ex(X()), CmpKind::Le, LinExpr(0));
  Formula Ex = Formula::exists({Y()}, F);
  EXPECT_TRUE(Ex.structEq(F));
}

TEST(Formula, SubstituteShadowing) {
  // (exists x . x <= y)[x := 5] leaves the bound x alone.
  Formula Body = Formula::cmp(ex(X()), CmpKind::Le, ex(Y()));
  Formula Ex = Formula::exists({X()}, Body);
  Formula S = Ex.substitute(X(), LinExpr(5));
  EXPECT_TRUE(S.structEq(Ex));
}

TEST(Formula, SubstituteCaptureAvoidance) {
  // (exists x . x <= y)[y := x] must NOT capture: result is
  // exists x' . x' <= x.
  Formula Body = Formula::cmp(ex(X()), CmpKind::Le, ex(Y()));
  Formula Ex = Formula::exists({X()}, Body);
  Formula S = Ex.substitute(Y(), ex(X()));
  std::set<VarId> Free = S.freeVars();
  EXPECT_EQ(Free.size(), 1u);
  EXPECT_TRUE(Free.count(X()));
  // Semantically: for x = anything, exists x' with x' <= x: true.
  EXPECT_TRUE(S.eval({{X(), 0}}));
}

TEST(Formula, RenameTargetCollidingWithBinderFreshensBinder) {
  // rename x -> b in (exists b . x < b): erasing bound variables from
  // the renaming *domain* is not enough — the *target* b would be
  // captured, yielding the unsatisfiable (exists b . b < b). The
  // colliding binder must be freshened instead.
  VarId B = mkVar("cap_b");
  Formula Ex =
      Formula::exists({B}, Formula::cmp(ex(X()), CmpKind::Lt, LinExpr::var(B)));
  Formula S = Ex.rename({{X(), B}});
  std::set<VarId> Free = S.freeVars();
  ASSERT_EQ(Free.size(), 1u);
  EXPECT_TRUE(Free.count(B));
  // Semantically: exists b' . b < b' holds for every b.
  EXPECT_TRUE(S.eval({{B, 0}}));
  EXPECT_TRUE(S.eval({{B, 7}}));
}

TEST(Formula, RenameSourceNotFreeLeavesNodeAlone) {
  // x is not free under the quantifier, so renaming it is a no-op and
  // must not freshen the binder it targets.
  VarId B = mkVar("cap_b2");
  Formula Ex =
      Formula::exists({B}, Formula::cmp(ex(Y()), CmpKind::Le, LinExpr::var(B)));
  Formula S = Ex.rename({{X(), B}});
  EXPECT_EQ(S.node(), Ex.node());
}

TEST(Formula, SubstParallelSwapUnderExists) {
  // (exists z . x < z && z < y)[x := y, y := x] swaps the bounds.
  VarId Zv = mkVar("sp_z");
  Formula F = Formula::exists(
      {Zv}, Formula::conj2(Formula::cmp(ex(X()), CmpKind::Lt, LinExpr::var(Zv)),
                           Formula::cmp(LinExpr::var(Zv), CmpKind::Lt,
                                        ex(Y()))));
  Formula S = substParallelFormula(F, {X(), Y()}, {ex(Y()), ex(X())});
  EXPECT_TRUE(S.eval({{X(), 2}, {Y(), 0}}));  // exists z in (0, 2)
  EXPECT_FALSE(S.eval({{X(), 0}, {Y(), 2}})); // empty interval (2, 0)
}

TEST(Formula, SubstParallelArgMentioningBinderAvoidsCapture) {
  // (exists b . x <= b)[x := b] must keep the argument's b free.
  VarId B = mkVar("sp_b");
  Formula F =
      Formula::exists({B}, Formula::cmp(ex(X()), CmpKind::Le, LinExpr::var(B)));
  Formula S = substParallelFormula(F, {X()}, {LinExpr::var(B)});
  std::set<VarId> Free = S.freeVars();
  ASSERT_EQ(Free.size(), 1u);
  EXPECT_TRUE(Free.count(B));
  // exists b' . b <= b' holds for every b.
  EXPECT_TRUE(S.eval({{B, 5}}));
}

TEST(Formula, EvalExistsSupportsManyBoundVars) {
  // Three binders: beyond the old two-variable limit, whose guarding
  // assert compiled out under NDEBUG and left variables unassigned.
  VarId A = mkVar("ev_a"), B = mkVar("ev_b"), C = mkVar("ev_c");
  Formula F = Formula::exists(
      {A, B, C},
      Formula::cmp(LinExpr::var(A) + LinExpr::var(B) + LinExpr::var(C),
                   CmpKind::Eq, ex(X())));
  EXPECT_TRUE(F.eval({{X(), 3}}));
  Formula Unsat = Formula::exists(
      {A, B, C},
      Formula::conj2(
          Formula::cmp(LinExpr::var(A) + LinExpr::var(B), CmpKind::Ge,
                       LinExpr::var(C) + 1),
          Formula::cmp(LinExpr::var(C), CmpKind::Ge,
                       LinExpr::var(A) + LinExpr::var(B))));
  EXPECT_FALSE(Unsat.eval({}));
}

TEST(Formula, EvalExistsWindowCentersOnAssignedValues) {
  // exists b . b = x with x = 1000: the witness is near the assigned
  // value, far outside the +-8 window around 0 the old search used.
  VarId B = mkVar("ev_big");
  Formula F = Formula::exists(
      {B}, Formula::cmp(LinExpr::var(B), CmpKind::Eq, ex(X())));
  EXPECT_TRUE(F.eval({{X(), 1000}}));
  EXPECT_TRUE(F.eval({{X(), -1000}}));
}

TEST(Formula, NegatedExistentialRefusesDnf) {
  // not (exists b . x < b) is a universal: outside the DNF fragment.
  // The old path asserted in debug and mis-expanded the universal as
  // an existential under NDEBUG; now toDNF conservatively refuses.
  VarId B = mkVar("neg_b");
  Formula Ex =
      Formula::exists({B}, Formula::cmp(ex(X()), CmpKind::Lt, LinExpr::var(B)));
  EXPECT_FALSE(Formula::neg(Ex).toDNF().has_value());
}

TEST(Formula, InterningSharesStructurallyEqualNodes) {
  Formula A = Formula::cmp(ex(X()), CmpKind::Le, LinExpr(0));
  Formula B = Formula::cmp(ex(Y()), CmpKind::Ge, LinExpr(2));
  // Commutative canonicalization: both orders intern to one node, and
  // structEq degenerates to the pointer compare.
  Formula F1 = Formula::conj2(A, B);
  Formula F2 = Formula::conj2(B, A);
  EXPECT_EQ(F1.node(), F2.node());
  EXPECT_TRUE(F1.structEq(F2));
  Formula G1 = Formula::disj2(F1, Formula::neg(A));
  Formula G2 = Formula::disj2(Formula::neg(A), F2);
  EXPECT_EQ(G1.node(), G2.node());
  // Duplicate children collapse (idempotence).
  EXPECT_EQ(Formula::conj2(A, A).node(), A.node());
  // Distinct formulas stay distinct.
  EXPECT_NE(F1.node(), G1.node());
  EXPECT_FALSE(F1.structEq(G1));
}

TEST(Formula, InterningCanonicalizesBinderOrder) {
  Formula Body = Formula::cmp(ex(X()) + ex(Y()), CmpKind::Le, ex(Z()));
  EXPECT_EQ(Formula::exists({X(), Y()}, Body).node(),
            Formula::exists({Y(), X(), Y()}, Body).node());
}

TEST(Formula, EvalPropositional) {
  Formula F = Formula::disj2(
      Formula::cmp(ex(X()), CmpKind::Eq, LinExpr(1)),
      Formula::neg(Formula::cmp(ex(Y()), CmpKind::Le, LinExpr(0))));
  EXPECT_TRUE(F.eval({{X(), 1}, {Y(), 0}}));
  EXPECT_TRUE(F.eval({{X(), 0}, {Y(), 5}}));
  EXPECT_FALSE(F.eval({{X(), 0}, {Y(), 0}}));
}

TEST(Formula, NNFEliminatesNot) {
  Formula F = Formula::neg(Formula::conj2(
      Formula::cmp(ex(X()), CmpKind::Le, LinExpr(0)),
      Formula::neg(Formula::cmp(ex(Y()), CmpKind::Eq, LinExpr(0)))));
  Formula N = F.toNNF();
  // !(x<=0 && y!=0) == x>=1 || y==0.
  std::function<bool(const Formula &)> NoNot = [&](const Formula &G) {
    if (G.node()->kind() == FormulaNode::Kind::Not)
      return false;
    for (const Formula &K : G.node()->Children)
      if (!NoNot(K))
        return false;
    return true;
  };
  EXPECT_TRUE(NoNot(N));
  // Semantics preserved on a grid.
  for (int64_t XV = -2; XV <= 2; ++XV)
    for (int64_t YV = -2; YV <= 2; ++YV) {
      std::map<VarId, int64_t> M{{X(), XV}, {Y(), YV}};
      EXPECT_EQ(F.eval(M), N.eval(M)) << XV << "," << YV;
    }
}

TEST(Formula, DNFSplitsNe) {
  Formula F = Formula::cmp(ex(X()), CmpKind::Ne, LinExpr(0));
  auto DNF = F.toDNF();
  ASSERT_TRUE(DNF.has_value());
  EXPECT_EQ(DNF->size(), 2u);
}

TEST(Formula, DNFDistributes) {
  // (a || b) && (c || d) -> 4 clauses.
  Formula A = Formula::cmp(ex(X()), CmpKind::Le, LinExpr(0));
  Formula B = Formula::cmp(ex(X()), CmpKind::Ge, LinExpr(10));
  Formula C = Formula::cmp(ex(Y()), CmpKind::Le, LinExpr(0));
  Formula D = Formula::cmp(ex(Y()), CmpKind::Ge, LinExpr(10));
  Formula F = Formula::conj2(Formula::disj2(A, B), Formula::disj2(C, D));
  auto DNF = F.toDNF();
  ASSERT_TRUE(DNF.has_value());
  EXPECT_EQ(DNF->size(), 4u);
  for (const ConstraintConj &Conj : *DNF)
    EXPECT_EQ(Conj.size(), 2u);
}

TEST(Formula, DNFOverflowCap) {
  // 2^12 clauses exceeds a cap of 16.
  std::vector<Formula> Fs;
  for (int I = 0; I < 12; ++I) {
    VarId V = mkVar("dnf_v" + std::to_string(I));
    Fs.push_back(Formula::disj2(
        Formula::cmp(LinExpr::var(V), CmpKind::Le, LinExpr(0)),
        Formula::cmp(LinExpr::var(V), CmpKind::Ge, LinExpr(10))));
  }
  EXPECT_FALSE(Formula::conj(Fs).toDNF(16).has_value());
}

TEST(Formula, StrSmoke) {
  Formula F = Formula::conj2(Formula::cmp(ex(X()), CmpKind::Le, ex(Y())),
                             Formula::top());
  EXPECT_NE(F.str().find("<= 0"), std::string::npos);
}
