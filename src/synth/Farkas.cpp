//===- synth/Farkas.cpp ---------------------------------------*- C++ -*-===//

#include "synth/Farkas.h"

#include "solver/SolverContext.h"

#include <cassert>

using namespace tnt;

ParamLinExpr ParamLinExpr::fromConcrete(const LinExpr &E) {
  ParamLinExpr P;
  for (const auto &[V, C] : E.coeffs())
    P.Coeffs[V] = LinExpr(C);
  P.Const = LinExpr(E.constant());
  return P;
}

ParamLinExpr ParamLinExpr::applyTemplate(const std::vector<VarId> &Params,
                                         const std::vector<LinExpr> &Args) {
  assert(Params.size() == Args.size() + 1 && "template arity mismatch");
  ParamLinExpr P;
  P.Const = LinExpr::var(Params[0]);
  for (size_t J = 0; J < Args.size(); ++J) {
    VarId CJ = Params[J + 1];
    const LinExpr &Arg = Args[J];
    // c_j * Arg: distribute the parameter over the argument's concrete
    // coefficients.
    P.Const = P.Const + LinExpr::var(CJ, Arg.constant());
    for (const auto &[V, A] : Arg.coeffs()) {
      LinExpr &Slot = P.Coeffs[V];
      Slot = Slot + LinExpr::var(CJ, A);
    }
  }
  // Drop zero coefficient slots for canonical form.
  for (auto It = P.Coeffs.begin(); It != P.Coeffs.end();)
    It = It->second.isZero() ? P.Coeffs.erase(It) : std::next(It);
  return P;
}

ParamLinExpr ParamLinExpr::operator+(const ParamLinExpr &O) const {
  ParamLinExpr P = *this;
  P.Const = P.Const + O.Const;
  for (const auto &[V, C] : O.Coeffs) {
    LinExpr &Slot = P.Coeffs[V];
    Slot = Slot + C;
    if (Slot.isZero())
      P.Coeffs.erase(V);
  }
  return P;
}

ParamLinExpr ParamLinExpr::operator-(const ParamLinExpr &O) const {
  return *this + (-O);
}

ParamLinExpr ParamLinExpr::operator-() const {
  ParamLinExpr P;
  P.Const = -Const;
  for (const auto &[V, C] : Coeffs)
    P.Coeffs[V] = -C;
  return P;
}

ParamLinExpr ParamLinExpr::operator+(int64_t K) const {
  ParamLinExpr P = *this;
  P.Const = P.Const + K;
  return P;
}

ParamLinExpr ParamLinExpr::operator-(int64_t K) const {
  return *this + (-K);
}

LinExpr ParamLinExpr::instantiate(
    const std::map<VarId, int64_t> &ParamVals) const {
  LinExpr Out(Const.eval(ParamVals));
  for (const auto &[V, C] : Coeffs)
    Out = Out + LinExpr::var(V, C.eval(ParamVals));
  return Out;
}

void ParamLinExpr::collectParams(std::set<VarId> &Out) const {
  Const.collectVars(Out);
  for (const auto &[V, C] : Coeffs) {
    (void)V;
    C.collectVars(Out);
  }
}

std::string ParamLinExpr::str() const {
  std::string Out = "(" + Const.str() + ")";
  for (const auto &[V, C] : Coeffs)
    Out += " + (" + C.str() + ")*" + varName(V);
  return Out;
}

LVar FarkasSystem::lpParam(VarId P) {
  auto It = ParamToLp.find(P);
  if (It != ParamToLp.end())
    return It->second;
  LVar L = LP.addVar(varName(P), /*NonNeg=*/false);
  ParamToLp.emplace(P, L);
  return L;
}

void FarkasSystem::addImplication(const ConstraintConj &Ante,
                                  const ParamLinExpr &Conseq) {
  addImplicationWithTemplate(Ante, ParamLinExpr(), Conseq);
}

void FarkasSystem::addImplicationWithTemplate(const ConstraintConj &Ante,
                                              const ParamLinExpr &Template,
                                              const ParamLinExpr &Conseq) {
  // Every int64 step below is exact or raises the overflow flag, which
  // this scope hands to solve() (the encoding must not wrap: a wrapped
  // coefficient would be a different, possibly feasible, system).
  OverflowScope Overflow;

  // Multiplier variables: Lambda0 (slack) plus one per antecedent row.
  LVar Lambda0 = LP.addVar("l0", /*NonNeg=*/true);
  struct AnteRow {
    LVar Mult;
    const LinExpr *E;
    Rational Sign; // p_i(x) = Sign * E(x) is the >= 0 orientation.
  };
  std::vector<AnteRow> RowsA;
  for (const Constraint &C : Ante) {
    assert(!C.isNe() && "Ne not allowed in Farkas antecedents");
    // e <= 0 gives p = -e >= 0 with a non-negative multiplier;
    // e == 0 gives p = e with a free multiplier.
    if (C.isLe())
      RowsA.push_back({LP.addVar("l", true), &C.expr(), Rational(-1)});
    else
      RowsA.push_back({LP.addVar("le", false), &C.expr(), Rational(1)});
  }

  // Identity: Conseq(x) == Lambda0 + sum Mult_i * p_i(x) + 1 * Template(x)
  // for all x. Collect the program variables involved.
  std::set<VarId> ProgVars;
  for (const AnteRow &R : RowsA)
    R.E->collectVars(ProgVars);
  for (const auto &[V, C] : Conseq.Coeffs) {
    (void)C;
    ProgVars.insert(V);
  }
  for (const auto &[V, C] : Template.Coeffs) {
    (void)C;
    ProgVars.insert(V);
  }

  auto addParamTerms = [this](std::vector<LinTerm> &Terms, const LinExpr &E,
                              const Rational &Sign) {
    for (const auto &[P, A] : E.coeffs())
      Terms.push_back({lpParam(P), Sign * Rational(A)});
  };

  // One equality per program variable:
  //   sum Mult_i * p_i[v] + Template[v](params) - Conseq[v](params) = 0
  // with the parameter-affine constants moved to the RHS.
  for (VarId V : ProgVars) {
    std::vector<LinTerm> Terms;
    for (const AnteRow &R : RowsA) {
      int64_t C = R.E->coeff(V);
      if (C != 0)
        Terms.push_back({R.Mult, R.Sign * Rational(C)});
    }
    Rational Rhs;
    auto ItT = Template.Coeffs.find(V);
    if (ItT != Template.Coeffs.end()) {
      addParamTerms(Terms, ItT->second, Rational(1));
      Rhs -= Rational(ItT->second.constant());
    }
    auto ItC = Conseq.Coeffs.find(V);
    if (ItC != Conseq.Coeffs.end()) {
      addParamTerms(Terms, ItC->second, Rational(-1));
      Rhs += Rational(ItC->second.constant());
    }
    LP.addRow(Terms, LpRel::Eq, Rhs);
  }

  // Constant row:
  //   Lambda0 + sum Mult_i * p_i.const + Template.Const - Conseq.Const = 0.
  std::vector<LinTerm> Terms;
  Terms.push_back({Lambda0, Rational(1)});
  for (const AnteRow &R : RowsA) {
    int64_t C = R.E->constant();
    if (C != 0)
      Terms.push_back({R.Mult, R.Sign * Rational(C)});
  }
  Rational Rhs;
  addParamTerms(Terms, Template.Const, Rational(1));
  Rhs -= Rational(Template.Const.constant());
  addParamTerms(Terms, Conseq.Const, Rational(-1));
  Rhs += Rational(Conseq.Const.constant());
  LP.addRow(Terms, LpRel::Eq, Rhs);
  EncodingOverflowed |= Overflow.overflowed();
}

void FarkasSystem::addParamConstraint(const LinExpr &E, LpRel Rel) {
  OverflowScope Overflow;
  std::vector<LinTerm> Terms;
  for (const auto &[P, A] : E.coeffs())
    Terms.push_back({lpParam(P), Rational(A)});
  LP.addRow(Terms, Rel, -Rational(E.constant()));
  EncodingOverflowed |= Overflow.overflowed();
}

bool FarkasSystem::solve() {
  if (SC)
    SC->noteLpSolve();
  IntParams.clear();
  OverflowScope Overflow;
  // A system the encoding could not state exactly is not solved.
  Simplex::Result R =
      EncodingOverflowed ? Simplex::Result::Overflow : LP.checkFeasible();
  if (R == Simplex::Result::Infeasible)
    return false;
  bool Ok = R == Simplex::Result::Feasible;
  if (Ok) {
    // Scale the parameter assignment to integers. Scaling the
    // synthesized function by a positive integer preserves ">= 0"
    // templates exactly and strengthens ">= 1" decreases, so downstream
    // uses stay sound (and are re-verified by the solver regardless).
    int64_t Scale = 1;
    for (const auto &[P, L] : ParamToLp)
      Scale = lcm64(Scale, LP.value(L).den());
    for (const auto &[P, L] : ParamToLp) {
      Rational V = LP.value(L) * Rational(Scale);
      Ok = Ok && V.isInt();
      IntParams[P] = V.num();
    }
  }
  // An encoding, LP or scaling that left 64 bits has no trustworthy
  // answer: reject the candidate, so the verdict can only fall back to
  // Unknown.
  if (!Ok || Overflow.overflowed()) {
    IntParams.clear();
    if (SC)
      SC->noteLpOverflow();
    return false;
  }
  return true;
}
