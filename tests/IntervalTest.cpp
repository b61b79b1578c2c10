//===- tests/IntervalTest.cpp - interval-prefilter edge cases ---*- C++ -*-===//
//
// The interval rung of the sat query path in isolation: saturating
// int64 arithmetic at the extremes, strict-vs-non-strict tightening,
// contradictory equalities, fixpoint termination on cyclic contraction
// chains, the Ne bail-out, witness overflow rejection, and a fixed-seed
// property sweep pinning every definite prefilter verdict against Omega.
//
//===----------------------------------------------------------------------===//

#include "arith/Intern.h"
#include "solver/Interval.h"
#include "solver/Omega.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>

using namespace tnt;

namespace {

LinExpr ev(const char *N, int64_t Coeff = 1) {
  return LinExpr::var(mkVar(N), Coeff);
}

Constraint cmp(const LinExpr &L, CmpKind K, int64_t C) {
  return Constraint::make(L, K, LinExpr(C));
}

//===----------------------------------------------------------------------===//
// Saturating arithmetic at the int64 extremes.
//===----------------------------------------------------------------------===//

TEST(Interval, SatAddExtremes) {
  EXPECT_EQ(satAdd(1, 2), 3);
  EXPECT_EQ(satAdd(INT64_MAX, 1), INT64_MAX);
  EXPECT_EQ(satAdd(INT64_MAX, INT64_MAX), INT64_MAX);
  EXPECT_EQ(satAdd(INT64_MIN, -1), INT64_MIN);
  EXPECT_EQ(satAdd(INT64_MIN, INT64_MIN), INT64_MIN);
  // Opposite signs never overflow.
  EXPECT_EQ(satAdd(INT64_MAX, INT64_MIN), -1);
  EXPECT_EQ(satAdd(INT64_MIN, INT64_MAX), -1);
  EXPECT_EQ(satAdd(INT64_MAX, -1), INT64_MAX - 1);
  EXPECT_EQ(satAdd(INT64_MIN, 1), INT64_MIN + 1);
}

TEST(Interval, SatMulExtremes) {
  EXPECT_EQ(satMul(3, -4), -12);
  EXPECT_EQ(satMul(INT64_MAX, 2), INT64_MAX);
  EXPECT_EQ(satMul(INT64_MAX, -2), INT64_MIN);
  EXPECT_EQ(satMul(INT64_MIN, 2), INT64_MIN);
  // -MIN is the classic UB negation; saturation clamps it instead.
  EXPECT_EQ(satMul(INT64_MIN, -1), INT64_MAX);
  EXPECT_EQ(satMul(-1, INT64_MIN), INT64_MAX);
  EXPECT_EQ(satMul(INT64_MIN, INT64_MIN), INT64_MAX);
  EXPECT_EQ(satMul(INT64_MAX, 0), 0);
  EXPECT_EQ(satMul(0, INT64_MIN), 0);
  EXPECT_EQ(satMul(INT64_MAX, 1), INT64_MAX);
  EXPECT_EQ(satMul(INT64_MIN, 1), INT64_MIN);
}

//===----------------------------------------------------------------------===//
// Definite verdicts on simple boxes.
//===----------------------------------------------------------------------===//

TEST(Interval, EmptyBoxIsUnsat) {
  // x >= 5 && x <= 3.
  ConstraintConj Conj = {cmp(ev("iv_a"), CmpKind::Ge, 5),
                         cmp(ev("iv_a"), CmpKind::Le, 3)};
  EXPECT_EQ(intervalPrefilter(Conj).Verdict, Tri::False);
}

TEST(Interval, PointBoxIsSatWithVerifiedWitness) {
  // 2 <= x <= 2: the witness is the point itself.
  ConstraintConj Conj = {cmp(ev("iv_b"), CmpKind::Ge, 2),
                         cmp(ev("iv_b"), CmpKind::Le, 2)};
  IntervalOutcome IO = intervalPrefilter(Conj);
  ASSERT_EQ(IO.Verdict, Tri::True);
  for (const Constraint &C : Conj)
    EXPECT_TRUE(C.eval(IO.Witness));
}

TEST(Interval, StrictVsNonStrictTightening) {
  // Over the integers, x > 0 && x < 1 tightens to x >= 1 && x <= 0:
  // empty. The non-strict twin x >= 0 && x <= 1 is satisfiable.
  ConstraintConj Strict = {cmp(ev("iv_c"), CmpKind::Gt, 0),
                           cmp(ev("iv_c"), CmpKind::Lt, 1)};
  EXPECT_EQ(intervalPrefilter(Strict).Verdict, Tri::False);

  ConstraintConj NonStrict = {cmp(ev("iv_c"), CmpKind::Ge, 0),
                              cmp(ev("iv_c"), CmpKind::Le, 1)};
  EXPECT_EQ(intervalPrefilter(NonStrict).Verdict, Tri::True);
}

TEST(Interval, ContradictoryEqualities) {
  // x == 3 && x == 4.
  ConstraintConj Conj = {cmp(ev("iv_d"), CmpKind::Eq, 3),
                         cmp(ev("iv_d"), CmpKind::Eq, 4)};
  EXPECT_EQ(intervalPrefilter(Conj).Verdict, Tri::False);

  // x == 3 && x <= 2: equality rows contract both sides.
  ConstraintConj Mixed = {cmp(ev("iv_d"), CmpKind::Eq, 3),
                          cmp(ev("iv_d"), CmpKind::Le, 2)};
  EXPECT_EQ(intervalPrefilter(Mixed).Verdict, Tri::False);
}

TEST(Interval, ConstantAtomRefutation) {
  // 0 <= 0 && 1 <= 0: the second atom is constant-false.
  ConstraintConj Conj = {Constraint::leZero(LinExpr(0)),
                         Constraint::leZero(LinExpr(1))};
  EXPECT_EQ(intervalPrefilter(Conj).Verdict, Tri::False);
}

TEST(Interval, NeAtomsAreNeverAnswered) {
  // Omega's contract is Ne-free input (callers split Ne first), so the
  // prefilter must decline ANY conjunction carrying one — even a
  // constant Ne it could refute honestly. Output bytes are pinned
  // against the Omega path's actual behavior, not against ideal Ne
  // semantics.
  ConstraintConj ConstNe = {Constraint(LinExpr(0), RelKind::Ne)};
  EXPECT_EQ(intervalPrefilter(ConstNe).Verdict, Tri::Unknown);

  ConstraintConj Mixed = {cmp(ev("iv_e"), CmpKind::Ge, 5),
                          cmp(ev("iv_e"), CmpKind::Le, 3),
                          Constraint(ev("iv_e") - 7, RelKind::Ne)};
  EXPECT_EQ(intervalPrefilter(Mixed).Verdict, Tri::Unknown);
}

//===----------------------------------------------------------------------===//
// Termination and soundness on diverging contraction chains.
//===----------------------------------------------------------------------===//

TEST(Interval, CyclicChainTerminatesUnknown) {
  // x >= 0, y >= 0, x <= y - 1, y <= x - 1: each pass raises both
  // lower bounds by one forever; the pass cap must stop it (the test
  // would hang otherwise) and the verdict stays Unknown — never a
  // false SAT.
  ConstraintConj Conj = {
      cmp(ev("iv_f"), CmpKind::Ge, 0), cmp(ev("iv_g"), CmpKind::Ge, 0),
      Constraint::leZero(ev("iv_f") - ev("iv_g") + 1),
      Constraint::leZero(ev("iv_g") - ev("iv_f") + 1)};
  EXPECT_EQ(intervalPrefilter(Conj).Verdict, Tri::Unknown);
}

TEST(Interval, DivergingChainWitnessOverflowRejected) {
  // Regression for the witness-overflow unsoundness: pfb = pfc + 1,
  // pfc <= 3*pfb, pfc <= -5 is UNSAT, but with no finite lower bounds
  // the contraction dives toward the sentinels and stops at the pass
  // cap with huge-magnitude endpoints; a witness built from them once
  // wrapped LinExpr::eval into "satisfied". The overflow-checked
  // verification must reject it — False or Unknown are both sound
  // here, a True answer is the bug.
  ConstraintConj Conj = {
      Constraint::eqZero(ev("iv_h") - ev("iv_i") - 1),
      Constraint::leZero(ev("iv_h", -3) + ev("iv_i")),
      Constraint::leZero(ev("iv_i") + 5)};
  EXPECT_EQ(Omega::isSatConj(Conj), Tri::False);
  EXPECT_NE(intervalPrefilter(Conj).Verdict, Tri::True);
}

TEST(Interval, ExtremeConstantsStaySound) {
  // Bounds at the representation edge: x >= INT64_MAX is satisfiable
  // (witness INT64_MAX); adding x <= 0 refutes it. Saturation may
  // widen either into Unknown, but definite answers must be right.
  ConstraintConj Hi = {cmp(ev("iv_j"), CmpKind::Ge, INT64_MAX)};
  IntervalOutcome IO = intervalPrefilter(Hi);
  EXPECT_NE(IO.Verdict, Tri::False);
  if (IO.Verdict == Tri::True)
    for (const Constraint &C : Hi)
      EXPECT_TRUE(C.eval(IO.Witness));

  ConstraintConj Clash = {cmp(ev("iv_j"), CmpKind::Ge, INT64_MAX),
                          cmp(ev("iv_j"), CmpKind::Le, 0)};
  EXPECT_NE(intervalPrefilter(Clash).Verdict, Tri::True);
}

//===----------------------------------------------------------------------===//
// Property sweep: every definite prefilter verdict agrees with Omega.
//===----------------------------------------------------------------------===//

TEST(Interval, PrefilterVerdictsMatchOmegaOnRandomConjunctions) {
  // Fixed seed: the sweep is part of the pinned suite, not a fuzzer.
  // Small Ne-free systems where Omega always decides, so agreement can
  // be asserted exactly — this is the prefilter's core invariant (an
  // interval answer must be THE answer, not merely a sound one).
  std::mt19937 Gen(20150613);
  std::uniform_int_distribution<int> NumAtoms(1, 4), NumVars(1, 3),
      Coeff(-3, 3), Konst(-10, 10), RelPick(0, 3);

  unsigned Answered = 0;
  const unsigned Rounds = 600;
  for (unsigned R = 0; R < Rounds; ++R) {
    const char *Names[3] = {"iv_p0", "iv_p1", "iv_p2"};
    int Vars = NumVars(Gen);
    ConstraintConj Conj;
    int Atoms = NumAtoms(Gen);
    for (int A = 0; A < Atoms; ++A) {
      LinExpr E((int64_t)Konst(Gen));
      for (int V = 0; V < Vars; ++V) {
        int C = Coeff(Gen);
        if (C != 0)
          E = E + ev(Names[V], C);
      }
      // 3:1 Le-to-Eq mix, mirroring real queries.
      Conj.push_back(RelPick(Gen) == 0 ? Constraint::eqZero(E)
                                       : Constraint::leZero(E));
    }

    IntervalOutcome IO = intervalPrefilter(Conj);
    if (IO.Verdict == Tri::Unknown)
      continue;
    ++Answered;
    Tri O = Omega::isSatConj(Conj);
    ASSERT_NE(O, Tri::Unknown) << "sweep domain assumption: " << conjStr(Conj);
    EXPECT_EQ(IO.Verdict, O) << conjStr(Conj);
    if (IO.Verdict == Tri::True)
      for (const Constraint &C : Conj)
        EXPECT_TRUE(C.eval(IO.Witness)) << conjStr(Conj);
  }
  // The sweep must actually exercise both engines side by side.
  EXPECT_GT(Answered, Rounds / 4);
}

} // namespace
