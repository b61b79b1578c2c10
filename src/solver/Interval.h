//===- solver/Interval.h - Interval-propagation prefilter ------*- C++ -*-===//
//
// Part of the hiptntpp project: a reproduction of "Termination and
// Non-Termination Specification Inference" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An ICP-style interval-propagation prefilter over constraint
/// conjunctions: the rung of SolverContext::isSatConj that runs after
/// the caches and before Omega. Per-variable integer intervals are
/// contracted against every Eq/Le constraint to a fixpoint (or a pass
/// cap, for cyclic dependency chains whose contraction never
/// converges); an empty interval is a cheap UNSAT, and a point picked
/// from the contracted box that evaluates every constraint to true is
/// a cheap, model-verified SAT. Everything else is Unknown and falls
/// through to the full Omega test.
///
/// All bound arithmetic SATURATES in int64: INT64_MIN / INT64_MAX are
/// the -inf / +inf sentinels, and any add/multiply that would overflow
/// clamps to the sentinel of its sign — a widening, so a saturated
/// bound can only lose precision (more Unknowns), never soundness.
/// Both definite verdicts are exact:
///
///  * False: the contracted box is empty, and contraction only ever
///    removes points no integer solution can use — so the conjunction
///    really is unsatisfiable, and Omega would agree.
///  * True: a concrete witness was checked against EVERY constraint
///    under overflow-checked evaluation — so the conjunction really is
///    satisfiable. (Plain LinExpr::eval wraps silently; a diverging
///    contraction can leave near-sentinel endpoints whose products
///    wrap back into range and fake a model, so the check rejects any
///    witness whose evaluation overflows instead.)
///
/// Conjunctions containing a Ne atom are never answered: Omega's
/// contract is that callers split Ne before the test (toRows asserts
/// so), and a query that slips through anyway must take the same path
/// it always took, not a semantically honest shortcut — output bytes
/// are pinned against the Omega path's actual behavior.
///
/// That exactness is what lets the prefilter answer a query without
/// consulting Omega while keeping output bytes unchanged: the verdict
/// is the one Omega would have produced, only cheaper.
///
//===----------------------------------------------------------------------===//

#ifndef TNT_SOLVER_INTERVAL_H
#define TNT_SOLVER_INTERVAL_H

#include "arith/Constraint.h"
#include "solver/Model.h"
#include "solver/Omega.h"

namespace tnt {

/// A (possibly unbounded) integer interval with saturating endpoints.
/// INT64_MIN as Lo means -inf; INT64_MAX as Hi means +inf. (A real
/// bound that lands exactly on a sentinel is indistinguishable from
/// infinity — a conservative widening, like every saturation here.)
struct IntInterval {
  int64_t Lo = INT64_MIN;
  int64_t Hi = INT64_MAX;

  bool empty() const { return Lo > Hi; }
  bool loFinite() const { return Lo != INT64_MIN; }
  bool hiFinite() const { return Hi != INT64_MAX; }
};

/// Outcome of one prefilter run. Witness is populated exactly when
/// Verdict is True (the model that was verified).
struct IntervalOutcome {
  Tri Verdict = Tri::Unknown;
  Model Witness;
};

/// Runs interval contraction over \p Conj (see file comment). Pure and
/// deterministic: no interning, no shared state, answer depends only on
/// the conjunction's content.
IntervalOutcome intervalPrefilter(const ConstraintConj &Conj);

/// Saturating int64 helpers, exposed for the edge-case unit tests.
/// Values at the sentinels behave as the matching infinity.
int64_t satAdd(int64_t A, int64_t B);
int64_t satMul(int64_t A, int64_t B);

} // namespace tnt

#endif // TNT_SOLVER_INTERVAL_H
