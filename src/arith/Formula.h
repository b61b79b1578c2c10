//===- arith/Formula.h - Presburger formula AST ----------------*- C++ -*-===//
//
// Part of the hiptntpp project: a reproduction of "Termination and
// Non-Termination Specification Inference" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pure (non-heap) fragment `pi` of the specification language of
/// Fig. 2: boolean combinations and existential quantification over
/// atomic linear constraints. Nodes are immutable, hash-consed in the
/// process-wide ArithIntern table, and shared; every transformation is
/// functional. Because construction canonicalizes commutative children
/// and interns the result, structurally equal formulas are represented
/// by one node and structEq is a pointer comparison.
///
//===----------------------------------------------------------------------===//

#ifndef TNT_ARITH_FORMULA_H
#define TNT_ARITH_FORMULA_H

#include "arith/Constraint.h"

#include <optional>
#include <set>
#include <string>
#include <vector>

namespace tnt {

class Formula;

/// Immutable node of a formula DAG. All members are set once before the
/// node enters the intern table and never mutated afterwards. Children
/// are themselves interned, so node identity (and operator==, used by
/// the intern table) compares children by pointer.
struct FormulaNode {
  enum class Kind { True, False, Atom, And, Or, Not, Exists };

  Kind K = Kind::True;
  Constraint Atom;
  std::vector<Formula> Children;
  std::vector<VarId> Bound;
  /// Cached structural hash: a function of the node's shape only
  /// (kinds, constraints, VarIds), never of pointer values, so it is
  /// identical across runs and thread schedules. Doubles as the fast
  /// path of the deterministic child ordering.
  size_t Hash = 0;

  Kind kind() const { return K; }

  /// Hash-cons identity (children by pointer); consistent with Hash.
  bool operator==(const FormulaNode &O) const;
  size_t hashValue() const { return Hash; }
};

/// Shared handle to an immutable, interned formula node. A
/// default-constructed Formula is invalid; use Formula::top() for
/// "true". Copies are pointer copies. Interned nodes live for the
/// process lifetime, except in a server's epoch mode, where a node
/// interned during an epoch dies with it (arith/Intern.h).
class Formula {
public:
  Formula() = default;

  /// The constant true / false formulas.
  static Formula top();
  static Formula bottom();
  /// An atomic constraint.
  static Formula atom(const Constraint &C);
  /// Convenience: the atom "L Cmp R".
  static Formula cmp(const LinExpr &L, CmpKind Cmp, const LinExpr &R);
  /// N-ary conjunction / disjunction with unit/absorbing folding,
  /// flattening, and commutative canonicalization (children sorted in a
  /// deterministic structural order and deduplicated).
  static Formula conj(const std::vector<Formula> &Fs);
  static Formula disj(const std::vector<Formula> &Fs);
  static Formula conj2(const Formula &A, const Formula &B) {
    return conj({A, B});
  }
  static Formula disj2(const Formula &A, const Formula &B) {
    return disj({A, B});
  }
  /// Negation (kept lazy; pushed inward by toNNF/toDNF).
  static Formula neg(const Formula &F);
  /// Existential quantification over \p Vars (binders are sorted and
  /// deduplicated; only variables free in the body are kept).
  static Formula exists(const std::vector<VarId> &Vars, const Formula &Body);

  bool isValid() const { return Node != nullptr; }
  bool isTop() const;
  bool isBottom() const;

  /// The underlying interned node; non-null for valid formulas. Stable
  /// for as long as the node lives (see the class comment).
  const FormulaNode *node() const { return Node; }

  /// Structural equality. Interning makes this a pointer comparison:
  /// structurally equal formulas (up to And/Or child order and
  /// duplicate children) share one node.
  bool structEq(const Formula &O) const { return Node == O.Node; }

  /// Free variables.
  std::set<VarId> freeVars() const;

  /// Capture-avoiding substitution of \p Repl for \p V.
  Formula substitute(VarId V, const LinExpr &Repl) const;
  /// Simultaneous capture-avoiding renaming: binders that collide with
  /// a renaming target are freshened first, so a target never gets
  /// captured by an enclosing Exists.
  Formula rename(const std::map<VarId, VarId> &Renaming) const;

  /// Evaluates under a total assignment of the free variables. Bound
  /// variables (any arity) are searched over a small window around 0
  /// and around each value of the assignment, so witnesses near the
  /// assigned magnitudes are found; adequate for testing on small
  /// certificates.
  bool eval(const std::map<VarId, int64_t> &Assign) const;

  /// Disjunctive normal form: each element is a conjunction of canonical
  /// Eq/Le constraints. Ne atoms are split; existentially bound variables
  /// are renamed apart into fresh free variables (sound for
  /// satisfiability). \p MaxClauses caps blowup; on overflow — or when
  /// the formula contains a negated existential, which the DNF fragment
  /// cannot express soundly — returns std::nullopt. Expands toNNF()
  /// clause by clause.
  std::optional<std::vector<ConstraintConj>>
  toDNF(size_t MaxClauses = 4096) const;

  /// Negation normal form with Not eliminated (Ne atoms allowed) and
  /// positive existentials renamed apart into fresh free variables.
  Formula toNNF() const;

  std::string str() const;

private:
  explicit Formula(const FormulaNode *N) : Node(N) {}

  static Formula make(FormulaNode::Kind K, Constraint Atom,
                      std::vector<Formula> Children, std::vector<VarId> Bound);

  const FormulaNode *Node = nullptr;
};

/// Deterministic structural total order on interned nodes: depends only
/// on formula shape (never on pointer values), so And/Or child
/// canonicalization yields the same order for every run and thread
/// schedule. Distinct interned nodes always compare unequal.
bool formulaStructLess(const FormulaNode *A, const FormulaNode *B);

/// Builds the conjunction of a constraint list as a Formula.
Formula conjToFormula(const ConstraintConj &Conj);

/// Simultaneous capture-safe substitution Params[j] := Args[j].
Formula substParallelFormula(const Formula &F,
                             const std::vector<VarId> &Params,
                             const std::vector<LinExpr> &Args);

} // namespace tnt

#endif // TNT_ARITH_FORMULA_H
