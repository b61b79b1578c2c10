//===- simplex/Simplex.h - Exact rational simplex ---------------*- C++ -*-===//
//
// Part of the hiptntpp project: a reproduction of "Termination and
// Non-Termination Specification Inference" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A phase-1 primal simplex over exact rationals with Bland's rule: it
/// decides feasibility and returns a vertex. This is the LP backend for
/// the Farkas-lemma constraint systems of the ranking-function
/// synthesizer (5.4) and the abductive case-split inference (5.6), and
/// the hot path of the analysis. `Rational` is the type of the rows that
/// go in and of the vertex that comes out, not of the inner loop: the
/// tableau is fraction-free, each row an int64 positive multiple of the
/// rational row with a list of its nonzero columns, and every step is
/// overflow-checked. See docs/ARCHITECTURE.md "Exact LP" for why it takes
/// the same pivots and returns the same vertex as a rational tableau.
///
/// The paper's implementation hands the corresponding constraints to a
/// nonlinear solver; see DESIGN.md 4(3) for why our systems are linear
/// and an exact LP suffices.
///
//===----------------------------------------------------------------------===//

#ifndef TNT_SIMPLEX_SIMPLEX_H
#define TNT_SIMPLEX_SIMPLEX_H

#include "support/Rational.h"

#include <map>
#include <string>
#include <vector>

namespace tnt {

/// Dense index of an LP variable.
using LVar = uint32_t;

/// One constraint term: Coef * Var.
struct LinTerm {
  LVar Var;
  Rational Coef;
};

/// Relation of an LP row.
enum class LpRel { Le, Ge, Eq };

/// An exact-arithmetic LP: declare variables, add rows, then check
/// feasibility. Instances are single-use after a solve (further rows may
/// be added and the problem re-solved from scratch).
class Simplex {
public:
  /// Declares a variable. Non-negative variables get one column; free
  /// variables are split internally.
  LVar addVar(const std::string &Name, bool NonNeg);

  /// Adds the row "sum Terms Rel Rhs".
  void addRow(const std::vector<LinTerm> &Terms, LpRel Rel,
              const Rational &Rhs);

  /// Overflow: some exact intermediate did not fit in 64 bits, so the
  /// solve stopped without an answer (see OverflowScope).
  enum class Result { Feasible, Infeasible, Overflow };

  /// Phase-1 feasibility.
  Result checkFeasible();

  /// Model access; valid after a Feasible solve.
  Rational value(LVar V) const;

  /// Bland pivots the last checkFeasible made.
  uint64_t pivots() const { return Pivots; }

  size_t numVars() const { return Vars.size(); }
  size_t numRows() const { return Rows.size(); }

private:
  struct VarInfo {
    std::string Name;
    bool NonNeg;
    // Column indices in the standard-form tableau. Neg is used only for
    // free variables (x = Pos - Neg).
    size_t Pos = 0;
    size_t Neg = 0;
  };
  struct RowInfo {
    std::vector<LinTerm> Terms;
    LpRel Rel;
    Rational Rhs;
  };

  std::vector<VarInfo> Vars;
  std::vector<RowInfo> Rows;
  std::map<LVar, Rational> Solution;
  uint64_t Pivots = 0;
};

} // namespace tnt

#endif // TNT_SIMPLEX_SIMPLEX_H
