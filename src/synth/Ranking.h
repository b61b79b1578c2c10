//===- synth/Ranking.h - Ranking function synthesis ------------*- C++ -*-===//
//
// Part of the hiptntpp project: a reproduction of "Termination and
// Non-Termination Specification Inference" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Linear and lexicographic ranking-function synthesis over the internal
/// edges of a strongly connected component of the temporal reachability
/// graph — the prove_Term / gen / syn_rank / subst_rank procedures of
/// Section 5.4 (Fig. 8).
///
/// Lexicographic measures use the order-free scheme: every component is
/// non-increasing and bounded on every edge, and every edge strictly
/// decreases at least one component. Over the integers this rules out
/// infinite paths regardless of component order.
///
/// Each round adds one component. Candidate k of a round makes the k-th
/// remaining edge the strictly decreasing one, over templates of its
/// own, and is one Farkas LP; the round takes the lowest k whose LP is
/// feasible and drops every edge the new component strictly decreases.
/// Candidate 0 is solved first, alone. The other candidates are built
/// on the calling thread in candidate order and solved through
/// WorkStealingPool::findFirst, which returns the same lowest k and, on
/// a task of a pool with more than one worker, solves them on idle
/// workers. The templates minted for candidates past k are then rewound
/// (VarPool::rewindFresh) and the context is charged for exactly the
/// solves the in-order loop makes, so results, LP counts and every
/// later fresh id do not depend on where the call ran.
///
//===----------------------------------------------------------------------===//

#ifndef TNT_SYNTH_RANKING_H
#define TNT_SYNTH_RANKING_H

#include "arith/Constraint.h"
#include "solver/SolverContext.h"

#include <map>
#include <vector>

namespace tnt {

/// One (mutually) recursive transition between unknown pre-predicates of
/// the same SCC: from pred \p Src (over its canonical parameters) to pred
/// \p Dst whose actual arguments are \p DstArgs, under context \p Ctx
/// (the rho label of the reachability-graph edge).
struct RankEdge {
  size_t Src = 0;
  size_t Dst = 0;
  ConstraintConj Ctx;
  std::vector<LinExpr> DstArgs;
};

/// Result of ranking synthesis for one SCC.
struct RankResult {
  bool Success = false;
  /// Pred index -> lexicographic measure [e1, e2, ...] over the pred's
  /// canonical parameters. Single-element for plain linear ranking.
  std::vector<std::vector<LinExpr>> Measures;
};

/// Synthesizes per-predicate ranking measures for an SCC.
///
/// \param PredParams canonical parameter lists, one per predicate.
/// \param Edges the internal transitions.
/// \param MaxLex maximum number of lexicographic components.
/// \param SC the decision context for decrease checks and LP accounting.
RankResult synthesizeRanking(const std::vector<std::vector<VarId>> &PredParams,
                             const std::vector<RankEdge> &Edges,
                             unsigned MaxLex = 4,
                             SolverContext &SC = SolverContext::defaultCtx());

} // namespace tnt

#endif // TNT_SYNTH_RANKING_H
