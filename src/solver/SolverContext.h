//===- solver/SolverContext.h - Instance-based decision context -*- C++ -*-===//
//
// Part of the hiptntpp project: a reproduction of "Termination and
// Non-Termination Specification Inference" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instance-based decision-procedure context: per-context query
/// counters and an optional budget token over the stateless Omega test.
/// Every conjunction-level query is counted, charged to the token and
/// answered by Omega; every non-trivial DNF expansion is counted and
/// computed by Formula::toDNF. A context caches nothing, so its answers
/// never depend on what it was asked before. Contexts are internally
/// synchronized, so one context may be shared by several threads; for
/// deterministic parallel analysis each independent unit of work (one
/// call-graph SCC group) gets its own context, making query counts a
/// function of the work alone, not of scheduling.
///
/// These are the SAT/UNSAT/entailment oracles used throughout the
/// inference engine (guard feasibility in Def. 2, base-case inference
/// in 5.1, unreachability proofs in 5.5, case-split feasibility in
/// 5.6). SolverContext::defaultCtx() is a process-wide context for
/// tests, benches and single-analysis callers.
///
//===----------------------------------------------------------------------===//

#ifndef TNT_SOLVER_SOLVERCONTEXT_H
#define TNT_SOLVER_SOLVERCONTEXT_H

#include "arith/Formula.h"
#include "solver/Omega.h"

#include <cstdint>
#include <mutex>
#include <set>

namespace tnt {

class CancellationToken;

/// Per-context query counters (the micro benches and the analyzer's
/// fuel accounting read these; merged at scheduler join points).
struct SolverStats {
  /// Conjunction-level satisfiability queries issued.
  uint64_t SatQueries = 0;
  /// Inert: always 0. Kept only because perfbench/driver.cpp reads it;
  /// nothing else may use it.
  uint64_t CacheHits = 0;
  /// Inert: always 0. Kept only because perfbench/driver.cpp reads it;
  /// nothing else may use it.
  uint64_t CacheMisses = 0;
  /// Farkas/simplex LP solves attributed to this context.
  uint64_t LpSolves = 0;
  /// Bland pivots those solves made.
  uint64_t LpPivots = 0;
  /// Of those, solves rejected because exact arithmetic left 64 bits.
  uint64_t LpOverflows = 0;
  /// DNF expansions of non-trivial formulas (True/False/Atom expand
  /// uncounted).
  uint64_t DnfQueries = 0;
  /// Inert: always 0. Kept only because perfbench/driver.cpp reads it;
  /// nothing else may use it.
  uint64_t IntervalUnsat = 0;
  /// Inert: always 0. Kept only because perfbench/driver.cpp reads it;
  /// nothing else may use it.
  uint64_t IntervalSat = 0;

  /// Solver work charged to this context for budget purposes: every
  /// query issued.
  uint64_t fuelUsed() const { return SatQueries; }

  SolverStats &operator+=(const SolverStats &O) {
    SatQueries += O.SatQueries;
    LpSolves += O.LpSolves;
    LpPivots += O.LpPivots;
    LpOverflows += O.LpOverflows;
    DnfQueries += O.DnfQueries;
    return *this;
  }
};

/// An instance-based formula-level decision procedure. All answers are
/// three-valued; helpers with boolean results resolve Unknown in the
/// documented conservative direction.
class SolverContext {
public:
  SolverContext() = default;
  SolverContext(const SolverContext &) = delete;
  SolverContext &operator=(const SolverContext &) = delete;

  /// Satisfiability of an arbitrary formula (via DNF + Omega).
  Tri isSat(const Formula &F);

  /// Validity of A => B (via isSat(A && !B)).
  Tri implies(const Formula &A, const Formula &B);

  /// True iff implies(A,B) is definitely valid. Unknown maps to false
  /// (claiming an entailment requires proof).
  bool entails(const Formula &A, const Formula &B) {
    return implies(A, B) == Tri::True;
  }

  /// True iff F is definitely satisfiable. Unknown maps to false.
  bool definitelySat(const Formula &F) { return isSat(F) == Tri::True; }

  /// True iff F is definitely unsatisfiable. Unknown maps to false.
  bool definitelyUnsat(const Formula &F) { return isSat(F) == Tri::False; }

  /// Result of existential elimination.
  struct ElimResult {
    Formula F;
    /// False when the result over-approximates exists Vars . Input.
    bool Exact = true;
  };

  /// Eliminates \p Vars existentially (quantifier elimination on the
  /// DNF, disjunct by disjunct).
  ElimResult eliminate(const Formula &F, const std::set<VarId> &Vars);

  /// Semantic cleanup: drops unsatisfiable disjuncts, redundant
  /// conjuncts, and subsumed disjuncts. Returns the input unchanged when
  /// DNF expansion overflows.
  Formula simplify(const Formula &F);

  /// Conjunction-level satisfiability (the unit every formula query
  /// decomposes into): counts the query, charges the attached token
  /// and asks Omega.
  Tri isSatConj(const ConstraintConj &Conj);

  /// Counted DNF expansion: F.toDNF(MaxClauses), with existential
  /// witnesses renamed apart into fresh variables on every call.
  std::optional<std::vector<ConstraintConj>> toDNF(const Formula &F,
                                                   size_t MaxClauses = 4096);

  SolverStats stats() const;
  void resetStats();

  /// Attribution hooks for the synthesis layer (FarkasSystem).
  void noteLpSolve(uint64_t Pivots);
  void noteLpOverflow();

  /// Attaches a cooperative cancellation token. Every satisfiability
  /// query charges the token by one, so a program-wide budget is
  /// enforced exactly at query granularity. Attach before the context
  /// issues queries (read without the context mutex). Pass nullptr to
  /// detach.
  void attachCancellation(CancellationToken *T) { Cancel = T; }

  /// True when an attached token has exceeded its budget. The
  /// inference loops poll this between steps and bail out gracefully
  /// (remaining unknowns finalize to MayLoop).
  bool cancelled() const;

  /// The process-wide default context. Internally synchronized; fine
  /// for tests and single-analysis use, but parallel analyses should
  /// use per-group contexts.
  static SolverContext &defaultCtx();

private:
  /// Cooperative budget token charged per query; not owned. Set before
  /// first use, read without holding Mu.
  CancellationToken *Cancel = nullptr;

  mutable std::mutex Mu;
  SolverStats Counters;
};

} // namespace tnt

#endif // TNT_SOLVER_SOLVERCONTEXT_H
