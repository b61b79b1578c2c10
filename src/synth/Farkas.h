//===- synth/Farkas.h - Farkas' lemma constraint encoding ------*- C++ -*-===//
//
// Part of the hiptntpp project: a reproduction of "Termination and
// Non-Termination Specification Inference" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Encoding of universally quantified linear implications
///
///   forall x . (/\ p_i(x) >= 0)  ==>  c(x) >= 0
///
/// into linear constraints over Farkas multipliers and template
/// parameters, following the constraint-based synthesis recipe the paper
/// cites ([21,22,37,41] + Farkas' lemma [42]). Because the antecedents
/// are concrete program transition constraints, and abduction templates
/// enter with a unit multiplier, every generated system is LINEAR and is
/// discharged by the exact rational simplex (DESIGN.md 4(3)).
///
//===----------------------------------------------------------------------===//

#ifndef TNT_SYNTH_FARKAS_H
#define TNT_SYNTH_FARKAS_H

#include "arith/Constraint.h"
#include "simplex/Simplex.h"

#include <map>
#include <vector>

namespace tnt {

/// A linear expression over program variables whose coefficients (and
/// constant) are affine expressions over *parameter* variables — the
/// currency of template-based synthesis.
struct ParamLinExpr {
  /// Program variable -> parameter-affine coefficient.
  std::map<VarId, LinExpr> Coeffs;
  /// Parameter-affine constant part.
  LinExpr Const;

  /// Lifts a concrete expression (parameter-free).
  static ParamLinExpr fromConcrete(const LinExpr &E);

  /// Builds "Params[0] + sum Params[j+1] * Args[j]": the template with
  /// parameter list \p Params applied to argument expressions \p Args.
  /// Requires Params.size() == Args.size() + 1.
  static ParamLinExpr applyTemplate(const std::vector<VarId> &Params,
                                    const std::vector<LinExpr> &Args);

  ParamLinExpr operator+(const ParamLinExpr &O) const;
  ParamLinExpr operator-(const ParamLinExpr &O) const;
  ParamLinExpr operator-() const;
  ParamLinExpr operator+(int64_t K) const;
  ParamLinExpr operator-(int64_t K) const;

  /// Instantiates parameters with concrete values, producing an ordinary
  /// linear expression over the program variables.
  LinExpr instantiate(const std::map<VarId, int64_t> &ParamVals) const;

  /// All parameter variables mentioned.
  void collectParams(std::set<VarId> &Out) const;

  std::string str() const;
};

class SolverContext;

/// Accumulates Farkas-encoded implications into one LP and solves for the
/// template parameters. Each system owns its Simplex instance; when
/// constructed with a SolverContext, LP solves are attributed to that
/// context's statistics.
class FarkasSystem {
public:
  explicit FarkasSystem(SolverContext *SC = nullptr) : SC(SC) {}

  /// Encodes "Ante ==> Conseq >= 0". Equalities in \p Ante get free
  /// multipliers, inequalities non-negative ones. The encoding is
  /// complete for rationally feasible antecedents; callers should skip
  /// implications whose antecedent is unsatisfiable (trivially valid).
  void addImplication(const ConstraintConj &Ante, const ParamLinExpr &Conseq);

  /// Encodes "Ante && Template >= 0 ==> Conseq >= 0" with the template's
  /// Farkas multiplier fixed to 1 — the standard linearization for
  /// abductive templates (sound, mildly incomplete).
  void addImplicationWithTemplate(const ConstraintConj &Ante,
                                  const ParamLinExpr &Template,
                                  const ParamLinExpr &Conseq);

  /// Adds a plain linear side constraint over parameters:
  /// "E Rel 0" with E affine in parameters.
  void addParamConstraint(const LinExpr &E, LpRel Rel);

  /// Solves the accumulated system. False when it is infeasible, and
  /// also when an encoding step or the LP left 64 bits: the candidate
  /// is rejected and the context's LpOverflows counts it.
  bool solve();

  /// Integer parameter values (scaled by the common denominator of the
  /// LP solution, which preserves every encoded implication since they
  /// are positively homogeneous in the parameters up to the added
  /// constants — callers needing exact constants should re-verify).
  /// Valid after a successful solve().
  const std::map<VarId, int64_t> &params() const { return IntParams; }

private:
  LVar lpParam(VarId P);

  SolverContext *SC = nullptr;
  Simplex LP;
  std::map<VarId, LVar> ParamToLp;
  std::map<VarId, int64_t> IntParams;
  /// An add* call could not state a row exactly in 64 bits.
  bool EncodingOverflowed = false;
};

} // namespace tnt

#endif // TNT_SYNTH_FARKAS_H
