//===- solver/Omega.h - The Omega test for LIA conjunctions ----*- C++ -*-===//
//
// Part of the hiptntpp project: a reproduction of "Termination and
// Non-Termination Specification Inference" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pugh's Omega test: an exact decision procedure for conjunctions of
/// linear constraints over the integers, with equality elimination
/// (unit substitution + the modulus trick), real/dark shadows, and
/// splinter case analysis. Also provides Fourier-Motzkin style
/// existential projection with an exactness flag.
///
/// Reference: W. Pugh, "The Omega test: a fast and practical integer
/// programming algorithm for dependence analysis", Supercomputing '91.
///
//===----------------------------------------------------------------------===//

#ifndef TNT_SOLVER_OMEGA_H
#define TNT_SOLVER_OMEGA_H

#include "arith/Constraint.h"

#include <optional>

namespace tnt {

/// Three-valued answer of a decision procedure.
enum class Tri { True, False, Unknown };

/// Conjunction-level decision procedures. Stateless; all methods are
/// deterministic.
class Omega {
public:
  /// Is the conjunction satisfiable over the integers? Ne atoms are
  /// outside the procedure (DNF expansion splits them): a conjunction
  /// holding one is answered Unknown, in every build. Otherwise Unknown
  /// is returned only when the work budget is exhausted, which does not
  /// happen on the coefficient ranges our analyses produce.
  static Tri isSatConj(const ConstraintConj &Conj);

  /// Result of projecting a variable out of a conjunction.
  struct Projection {
    ConstraintConj Conj;
    /// True when the projection is exact over the integers (the result
    /// is equivalent to exists v . input); otherwise it is an
    /// over-approximation (implied by the input).
    bool Exact = true;
  };

  /// Eliminates \p V by integer-aware Fourier-Motzkin (with exact
  /// equality substitution when possible). On a conjunction holding a
  /// Ne atom it drops every constraint that mentions \p V instead and
  /// reports Exact = false.
  static Projection projectVar(const ConstraintConj &Conj, VarId V);

  /// Eliminates every variable in \p Vars in sequence (with a Ne atom
  /// present: drops every constraint mentioning one, Exact = false).
  static Projection projectVars(const ConstraintConj &Conj,
                                const std::set<VarId> &Vars);

  /// Removes constraints implied by the rest of the conjunction.
  /// Quadratic in the number of constraints; used on small contexts.
  /// Returns a conjunction holding a Ne atom unchanged.
  static ConstraintConj dropRedundant(const ConstraintConj &Conj);
};

} // namespace tnt

#endif // TNT_SOLVER_OMEGA_H
