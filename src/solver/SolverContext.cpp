//===- solver/SolverContext.cpp -------------------------------*- C++ -*-===//

#include "solver/SolverContext.h"

#include "solver/Cancellation.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>

using namespace tnt;

namespace {

/// Conjunction-level entailment: A |= c for every c in B. Used by the
/// cross-clause subsumption pass of simplify(); queries go straight to
/// Omega (uncounted), matching the historical fuel accounting.
Tri conjEntails(const ConstraintConj &A, const ConstraintConj &B) {
  // Uncounted Omega runs, so a span of their own keeps them apart from
  // the counted omegaSat queries.
  trace::Span EntailsSpan("entails", "solver");
  bool SawUnknown = false;
  for (const Constraint &C : B) {
    for (const Constraint &Neg : C.negated()) {
      ConstraintConj Test = A;
      if (Neg.isNe()) {
        ConstraintConj T1 = A, T2 = A;
        T1.push_back(Constraint::leZero(Neg.expr() + 1));
        T2.push_back(Constraint::leZero(-Neg.expr() + 1));
        Tri R1 = Omega::isSatConj(T1), R2 = Omega::isSatConj(T2);
        if (R1 == Tri::True || R2 == Tri::True)
          return Tri::False;
        if (R1 == Tri::Unknown || R2 == Tri::Unknown)
          SawUnknown = true;
        continue;
      }
      Test.push_back(Neg);
      Tri R = Omega::isSatConj(Test);
      if (R == Tri::True)
        return Tri::False;
      if (R == Tri::Unknown)
        SawUnknown = true;
    }
  }
  return SawUnknown ? Tri::Unknown : Tri::True;
}

/// Rewrites away existentials in negative positions by exact projection,
/// so that NNF/DNF only ever see positive existentials (which renaming
/// apart handles soundly). \p Positive tracks polarity; \p Exact is
/// cleared when an inexact projection was used, in which case the result
/// is STRONGER than the input (safe for "sat" answers, inconclusive for
/// "unsat" ones).
Formula rewriteNegExists(SolverContext &SC, const Formula &F, bool Positive,
                         bool &Exact) {
  const FormulaNode *N = F.node();
  switch (N->kind()) {
  case FormulaNode::Kind::True:
  case FormulaNode::Kind::False:
  case FormulaNode::Kind::Atom:
    return F;
  case FormulaNode::Kind::And:
  case FormulaNode::Kind::Or: {
    std::vector<Formula> Kids;
    Kids.reserve(N->Children.size());
    for (const Formula &C : N->Children)
      Kids.push_back(rewriteNegExists(SC, C, Positive, Exact));
    return N->kind() == FormulaNode::Kind::And ? Formula::conj(Kids)
                                               : Formula::disj(Kids);
  }
  case FormulaNode::Kind::Not:
    return Formula::neg(rewriteNegExists(SC, N->Children[0], !Positive, Exact));
  case FormulaNode::Kind::Exists: {
    Formula Body = rewriteNegExists(SC, N->Children[0], Positive, Exact);
    if (Positive)
      return Formula::exists(N->Bound, Body);
    std::set<VarId> Bound(N->Bound.begin(), N->Bound.end());
    SolverContext::ElimResult R = SC.eliminate(Body, Bound);
    Exact = Exact && R.Exact;
    return R.F;
  }
  }
  return F;
}

} // namespace

SolverContext &SolverContext::defaultCtx() {
  static SolverContext Ctx;
  return Ctx;
}

bool SolverContext::cancelled() const {
  return Cancel != nullptr && Cancel->cancelled();
}

Tri SolverContext::isSatConj(const ConstraintConj &Conj) {
  {
    std::lock_guard<std::mutex> L(Mu);
    ++Counters.SatQueries;
  }
  if (Cancel != nullptr)
    Cancel->charge();
  trace::Span OmegaSpan("omegaSat", "solver");
  return Omega::isSatConj(Conj);
}

std::optional<std::vector<ConstraintConj>>
SolverContext::toDNF(const Formula &F, size_t MaxClauses) {
  assert(F.isValid() && "toDNF on invalid formula");
  // Trivial nodes expand in constant time: no count, no span.
  switch (F.node()->kind()) {
  case FormulaNode::Kind::True:
  case FormulaNode::Kind::False:
  case FormulaNode::Kind::Atom:
    return F.toDNF(MaxClauses);
  default:
    break;
  }
  {
    std::lock_guard<std::mutex> L(Mu);
    ++Counters.DnfQueries;
  }
  trace::Span DnfSpan("dnfExpand", "solver");
  return F.toDNF(MaxClauses);
}

Tri SolverContext::isSat(const Formula &F) {
  assert(F.isValid() && "isSat on invalid formula");
  if (F.isTop())
    return Tri::True;
  if (F.isBottom())
    return Tri::False;
  bool Exact = true;
  Formula G = rewriteNegExists(*this, F, /*Positive=*/true, Exact);
  if (G.isTop())
    return Tri::True;
  if (G.isBottom())
    return Exact ? Tri::False : Tri::Unknown;
  std::optional<std::vector<ConstraintConj>> DNF = toDNF(G);
  if (!DNF)
    return Tri::Unknown;
  bool SawUnknown = false;
  for (const ConstraintConj &Conj : *DNF) {
    Tri R = isSatConj(Conj);
    if (R == Tri::True)
      return Tri::True;
    if (R == Tri::Unknown)
      SawUnknown = true;
  }
  if (SawUnknown)
    return Tri::Unknown;
  return Exact ? Tri::False : Tri::Unknown;
}

Tri SolverContext::implies(const Formula &A, const Formula &B) {
  Tri R = isSat(Formula::conj2(A, Formula::neg(B)));
  if (R == Tri::False)
    return Tri::True;
  if (R == Tri::True)
    return Tri::False;
  return Tri::Unknown;
}

SolverContext::ElimResult SolverContext::eliminate(const Formula &F,
                                                   const std::set<VarId> &Vars) {
  ElimResult Out;
  if (Vars.empty()) {
    Out.F = F;
    return Out;
  }
  std::optional<std::vector<ConstraintConj>> DNF = toDNF(F);
  if (!DNF) {
    // Give up on elimination; wrap in an explicit quantifier.
    Out.F = Formula::exists({Vars.begin(), Vars.end()}, F);
    Out.Exact = true;
    return Out;
  }
  bool Exact = true;
  std::vector<Formula> Disjuncts;
  std::vector<ConstraintConj> Seen;
  for (const ConstraintConj &Conj : *DNF) {
    Omega::Projection P = Omega::projectVars(Conj, Vars);
    Exact = Exact && P.Exact;
    std::sort(P.Conj.begin(), P.Conj.end());
    P.Conj.erase(std::unique(P.Conj.begin(), P.Conj.end()), P.Conj.end());
    if (std::find(Seen.begin(), Seen.end(), P.Conj) != Seen.end())
      continue;
    Seen.push_back(P.Conj);
    if (isSatConj(P.Conj) == Tri::False)
      continue;
    Disjuncts.push_back(conjToFormula(P.Conj));
  }
  Out.F = Formula::disj(Disjuncts);
  Out.Exact = Exact;
  return Out;
}

Formula SolverContext::simplify(const Formula &F) {
  assert(F.isValid() && "simplify on invalid formula");
  // Negated existentials cannot be DNF-expanded; eliminate them by
  // projection first. When projection is inexact the rewrite would
  // strengthen the formula, so fall back to the input (toDNF then
  // refuses the residual negation and F is returned unchanged).
  bool Exact = true;
  Formula G = rewriteNegExists(*this, F, /*Positive=*/true, Exact);
  if (!Exact)
    G = F;
  std::optional<std::vector<ConstraintConj>> DNF = toDNF(G);
  if (!DNF)
    return F;
  // Per-clause cleanup always runs; the quadratic cross-clause
  // subsumption only below MaxClauses.
  constexpr size_t MaxClauses = 48;
  constexpr size_t MaxConjSize = 12;
  auto dedup = [](ConstraintConj Conj) {
    std::sort(Conj.begin(), Conj.end());
    Conj.erase(std::unique(Conj.begin(), Conj.end()), Conj.end());
    return Conj;
  };
  std::vector<ConstraintConj> Live;
  for (const ConstraintConj &Conj : *DNF) {
    ConstraintConj D = dedup(Conj);
    if (isSatConj(D) == Tri::False)
      continue;
    if (D.size() <= MaxConjSize)
      D = dedup(Omega::dropRedundant(D));
    if (std::find(Live.begin(), Live.end(), D) != Live.end())
      continue;
    Live.push_back(std::move(D));
  }
  if (Live.size() > MaxClauses) {
    std::vector<Formula> Disjuncts;
    for (const ConstraintConj &D : Live)
      Disjuncts.push_back(conjToFormula(D));
    return Formula::disj(Disjuncts);
  }
  // Drop disjuncts subsumed by another disjunct.
  std::vector<bool> Dead(Live.size(), false);
  for (size_t I = 0; I < Live.size(); ++I) {
    if (Dead[I])
      continue;
    for (size_t J = 0; J < Live.size(); ++J) {
      if (I == J || Dead[J])
        continue;
      if (conjEntails(Live[J], Live[I]) == Tri::True) {
        // J is inside I... careful: J |= I means J is stronger; drop J.
        Dead[J] = true;
      }
    }
  }
  std::vector<Formula> Disjuncts;
  for (size_t I = 0; I < Live.size(); ++I)
    if (!Dead[I])
      Disjuncts.push_back(conjToFormula(Live[I]));
  return Formula::disj(Disjuncts);
}

SolverStats SolverContext::stats() const {
  std::lock_guard<std::mutex> L(Mu);
  return Counters;
}

void SolverContext::resetStats() {
  std::lock_guard<std::mutex> L(Mu);
  Counters = SolverStats();
}

void SolverContext::noteLpSolve(uint64_t Pivots) {
  std::lock_guard<std::mutex> L(Mu);
  ++Counters.LpSolves;
  Counters.LpPivots += Pivots;
}

void SolverContext::noteLpOverflow() {
  std::lock_guard<std::mutex> L(Mu);
  ++Counters.LpOverflows;
}
