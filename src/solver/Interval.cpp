//===- solver/Interval.cpp - Interval-propagation prefilter ----*- C++ -*-===//

#include "solver/Interval.h"

#include "support/Rational.h"

#include <map>
#include <optional>
#include <set>
#include <vector>

using namespace tnt;

int64_t tnt::satAdd(int64_t A, int64_t B) {
  int64_t R;
  if (!__builtin_add_overflow(A, B, &R))
    return R;
  return (A < 0) ? INT64_MIN : INT64_MAX; // Overflow keeps A's sign.
}

int64_t tnt::satMul(int64_t A, int64_t B) {
  int64_t R;
  if (!__builtin_mul_overflow(A, B, &R))
    return R;
  return ((A < 0) != (B < 0)) ? INT64_MIN : INT64_MAX;
}

namespace {

int64_t satSub(int64_t A, int64_t B) {
  int64_t R;
  if (!__builtin_sub_overflow(A, B, &R))
    return R;
  return (B < 0) ? INT64_MAX : INT64_MIN;
}

/// One row of the propagation system: Expr <= 0. An Eq constraint
/// contributes two rows (E <= 0 and -E <= 0); Ne contributes none.
struct Row {
  const LinExpr *Expr;
  bool Negate;
};

/// Contraction never converges on cyclic chains like {x >= 0, y >= 0,
/// x <= y - 1, y <= x - 1}, where each pass tightens both lower bounds
/// by one forever. The cap bounds work per query; hitting it simply
/// yields Unknown, which is always sound.
constexpr unsigned MaxPasses = 64;

/// Exact evaluation of E at W, or nullopt when any step overflows
/// int64. LinExpr::eval wraps silently, and diverging contractions
/// (same cyclic chains as above, unbounded on one side) leave
/// near-sentinel endpoints in the box — a witness built from those can
/// wrap a huge product into range and "satisfy" an atom it violates.
/// Overflow means the witness is unusable, not that it is wrong.
std::optional<int64_t> checkedEval(const LinExpr &E, const Model &W) {
  int64_t Sum = E.constant();
  for (const auto &[V, C] : E.coeffs()) {
    auto It = W.find(V);
    int64_t Val = It == W.end() ? 0 : It->second;
    int64_t Term, Next;
    if (__builtin_mul_overflow(C, Val, &Term) ||
        __builtin_add_overflow(Sum, Term, &Next))
      return std::nullopt;
    Sum = Next;
  }
  return Sum;
}

} // namespace

IntervalOutcome tnt::intervalPrefilter(const ConstraintConj &Conj) {
  IntervalOutcome Out;

  // The prefilter substitutes for Omega, so it must stay strictly
  // inside Omega's contract: Ne atoms are split by callers before the
  // Omega test (toRows asserts so). A conjunction that violates the
  // contract falls through to Omega untouched — answering it here with
  // the honest Ne semantics would DIFFER from what the Omega path does
  // with it, changing output bytes.
  for (const Constraint &C : Conj)
    if (C.isNe())
      return Out; // Unknown.

  // Constant atoms decide themselves; a false one refutes the whole
  // conjunction exactly, matching the constant-folding refutation of
  // Omega's row normalization (no interval reasoning, so no
  // saturation caveats).
  for (const Constraint &C : Conj)
    if (std::optional<bool> T = C.constantTruth(); T.has_value() && !*T) {
      Out.Verdict = Tri::False;
      return Out;
    }

  std::set<VarId> VarSet;
  for (const Constraint &C : Conj)
    C.collectVars(VarSet);

  std::vector<Row> Rows;
  Rows.reserve(Conj.size() * 2);
  for (const Constraint &C : Conj) {
    if (C.expr().isConstant())
      continue; // Handled above.
    switch (C.rel()) {
    case RelKind::Le:
      Rows.push_back({&C.expr(), false});
      break;
    case RelKind::Eq:
      Rows.push_back({&C.expr(), false});
      Rows.push_back({&C.expr(), true});
      break;
    case RelKind::Ne:
      break; // No convex contraction; the witness check still sees it.
    }
  }

  std::map<VarId, IntInterval> Box;
  for (VarId V : VarSet)
    Box[V];

  // Contract to a fixpoint (or the pass cap). For a row
  // sum ci*xi + K <= 0 and a pivot xi:
  //   ci*xi <= -K - sum_{j != i} min(cj*xj over [Lo_j, Hi_j])
  // computed with per-pivot sums (O(n^2) per row) rather than a
  // subtracted total, so one saturated term never corrupts the others.
  bool Changed = true;
  for (unsigned Pass = 0; Changed && Pass < MaxPasses; ++Pass) {
    Changed = false;
    for (const Row &R : Rows) {
      const auto &Coeffs = R.Expr->coeffs();
      int64_t K = R.Expr->constant();
      if (R.Negate)
        K = satSub(0, K);

      // Lower bound of each term cj*xj over its current interval.
      // INT64_MIN doubles as "unbounded below" — whether from a true
      // -inf endpoint or saturation, treating it as -inf only widens.
      std::vector<std::pair<VarId, int64_t>> TermMin;
      TermMin.reserve(Coeffs.size());
      std::vector<int64_t> Cs;
      Cs.reserve(Coeffs.size());
      for (const auto &[V, C0] : Coeffs) {
        int64_t C = R.Negate ? satSub(0, C0) : C0;
        const IntInterval &I = Box[V];
        int64_t M;
        if (C > 0)
          M = I.loFinite() ? satMul(C, I.Lo) : INT64_MIN;
        else
          M = I.hiFinite() ? satMul(C, I.Hi) : INT64_MIN;
        TermMin.emplace_back(V, M);
        Cs.push_back(C);
      }

      for (size_t I = 0; I < TermMin.size(); ++I) {
        int64_t Sum = 0;
        bool Unbounded = false;
        for (size_t J = 0; J < TermMin.size(); ++J) {
          if (J == I)
            continue;
          if (TermMin[J].second == INT64_MIN) {
            Unbounded = true;
            break;
          }
          Sum = satAdd(Sum, TermMin[J].second);
          if (Sum == INT64_MIN) {
            Unbounded = true;
            break;
          }
        }
        if (Unbounded)
          continue;
        int64_t Bound = satSub(satSub(0, K), Sum);
        // A sentinel bound is indistinguishable from infinity (true
        // or saturated); skipping the contraction is the sound move
        // either way. It also keeps INT64_MIN / -1, the one quotient
        // int64 cannot hold, out of the divisions below.
        if (Bound == INT64_MIN || Bound == INT64_MAX)
          continue;
        int64_t C = Cs[I];
        IntInterval &Iv = Box[TermMin[I].first];
        if (C > 0) {
          int64_t NewHi = floorDiv(Bound, C);
          if (NewHi < Iv.Hi) {
            Iv.Hi = NewHi;
            Changed = true;
          }
        } else {
          int64_t NewLo = ceilDiv(Bound, C);
          if (NewLo > Iv.Lo) {
            Iv.Lo = NewLo;
            Changed = true;
          }
        }
        if (Iv.empty()) {
          Out.Verdict = Tri::False;
          return Out;
        }
      }
    }
  }

  // SAT probe: the point of the box nearest zero. If it satisfies
  // every atom under overflow-checked evaluation, the conjunction is
  // proven satisfiable by witness, independent of any contraction
  // imprecision above. (Only Eq/Le remain; Ne bailed at entry.)
  Model W;
  for (const auto &[V, I] : Box)
    W[V] = I.Lo > 0 ? I.Lo : I.Hi < 0 ? I.Hi : 0;
  for (const Constraint &C : Conj) {
    std::optional<int64_t> V = checkedEval(C.expr(), W);
    if (!V.has_value())
      return Out; // Overflowed: witness unverifiable -> Unknown.
    if (C.isEq() ? *V != 0 : *V > 0)
      return Out; // Unknown.
  }
  Out.Verdict = Tri::True;
  Out.Witness = std::move(W);
  return Out;
}
