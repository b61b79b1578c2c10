//===- solver/Omega.cpp ---------------------------------------*- C++ -*-===//

#include "solver/Omega.h"

#include "support/Rational.h"

#include <algorithm>
#include <cassert>

using namespace tnt;

namespace {

/// Internal row: Expr <= 0 (IsEq == false) or Expr == 0 (IsEq == true).
struct Row {
  LinExpr Expr;
  bool IsEq;
};

/// Outcome of structural normalization.
enum class NormResult { Ok, Unsat };

/// Normalizes rows in place: gcd-reduction/tightening, constant folding,
/// duplicate removal. Returns Unsat if any row is refuted.
NormResult normalizeRows(std::vector<Row> &Rows) {
  std::vector<Row> Out;
  for (Row &R : Rows) {
    Constraint C(R.Expr, R.IsEq ? RelKind::Eq : RelKind::Le);
    std::optional<Constraint> N = C.normalized();
    if (!N)
      return NormResult::Unsat; // GCD test refuted an equality.
    if (std::optional<bool> Truth = N->constantTruth()) {
      if (!*Truth)
        return NormResult::Unsat;
      continue; // Trivially true.
    }
    Out.push_back({N->expr(), N->isEq()});
  }
  // Deduplicate (syntactic) to keep the pair blowup in check.
  std::sort(Out.begin(), Out.end(), [](const Row &A, const Row &B) {
    if (A.IsEq != B.IsEq)
      return A.IsEq < B.IsEq;
    return A.Expr < B.Expr;
  });
  Out.erase(std::unique(Out.begin(), Out.end(),
                        [](const Row &A, const Row &B) {
                          return A.IsEq == B.IsEq && A.Expr == B.Expr;
                        }),
            Out.end());
  Rows = std::move(Out);
  return NormResult::Ok;
}

/// Substitutes V := Repl in every row.
void substAll(std::vector<Row> &Rows, VarId V, const LinExpr &Repl) {
  for (Row &R : Rows)
    R.Expr = R.Expr.substitute(V, Repl);
}

std::set<VarId> rowVars(const std::vector<Row> &Rows) {
  std::set<VarId> Vs;
  for (const Row &R : Rows)
    R.Expr.collectVars(Vs);
  return Vs;
}

/// Eliminates all equalities exactly. Returns Unsat if refuted. On
/// success Rows contains only inequalities.
NormResult eliminateEqualities(std::vector<Row> &Rows, int &Budget) {
  for (;;) {
    if (--Budget < 0)
      return NormResult::Ok; // Caller converts exhausted budget to Unknown.
    if (normalizeRows(Rows) == NormResult::Unsat)
      return NormResult::Unsat;
    // Find an equality.
    auto It = std::find_if(Rows.begin(), Rows.end(),
                           [](const Row &R) { return R.IsEq; });
    if (It == Rows.end())
      return NormResult::Ok;
    Row Eq = *It;
    Rows.erase(It);

    // Choose the variable with the smallest absolute coefficient.
    VarId Best = 0;
    int64_t BestAbs = 0;
    for (const auto &[V, C] : Eq.Expr.coeffs()) {
      int64_t A = C < 0 ? -C : C;
      if (BestAbs == 0 || A < BestAbs) {
        BestAbs = A;
        Best = V;
      }
    }
    assert(BestAbs > 0 && "equality with no variables survived normalize");

    if (BestAbs == 1) {
      // s*x + r = 0 with s = +-1  ==>  x = -s*r.
      int64_t S = Eq.Expr.coeff(Best);
      LinExpr Rest = Eq.Expr.substitute(Best, LinExpr(0));
      LinExpr Repl = (-Rest) * S; // 1/s == s for s in {1,-1}.
      substAll(Rows, Best, Repl);
      continue;
    }

    // Pugh's modulus trick: m = |a_k| + 1; introduce sigma and the
    // auxiliary equality  sum hatMod(a_i,m) x_i + hatMod(c,m) = m*sigma,
    // in which x_k has coefficient -sign(a_k), so it can be solved for
    // x_k exactly and substituted everywhere (including into Eq itself,
    // whose coefficients shrink geometrically).
    int64_t Ak = Eq.Expr.coeff(Best);
    int64_t M = BestAbs + 1;
    VarId Sigma = freshVar("omega_s");
    LinExpr Aux;
    for (const auto &[V, C] : Eq.Expr.coeffs())
      Aux = Aux + LinExpr::var(V, hatMod(C, M));
    Aux = Aux + hatMod(Eq.Expr.constant(), M);
    Aux = Aux - LinExpr::var(Sigma, M);
    int64_t CoefK = Aux.coeff(Best);
    assert((CoefK == 1 || CoefK == -1) && "modulus trick must yield unit");
    (void)Ak;
    // Solve Aux = 0 for x_k: x_k = -CoefK * (Aux - CoefK*x_k).
    LinExpr Rest = Aux.substitute(Best, LinExpr(0));
    LinExpr Repl = (-Rest) * CoefK;
    Eq.Expr = Eq.Expr.substitute(Best, Repl);
    substAll(Rows, Best, Repl);
    Rows.push_back(Eq);
  }
}

struct Bound {
  int64_t Coef;  // positive: a in (a x >= alpha) or b in (b x <= beta)
  LinExpr Rest;  // alpha (for lower) or beta (for upper), x-free
};

/// Splits the inequalities on \p V into lower/upper bounds and the rest.
void splitBounds(const std::vector<Row> &Rows, VarId V,
                 std::vector<Bound> &Lower, std::vector<Bound> &Upper,
                 std::vector<Row> &Rest) {
  for (const Row &R : Rows) {
    int64_t C = R.Expr.coeff(V);
    if (C == 0) {
      // Equalities not mentioning V pass through untouched.
      Rest.push_back(R);
      continue;
    }
    assert(!R.IsEq && "equalities on V must be eliminated first");
    LinExpr Other = R.Expr.substitute(V, LinExpr(0));
    if (C > 0) {
      // c*x + other <= 0  ==>  c*x <= -other.
      Upper.push_back({C, -Other});
    } else {
      // c*x + other <= 0 with c < 0  ==>  (-c)*x >= other.
      Lower.push_back({-C, Other});
    }
  }
}

/// Chooses the elimination variable minimizing the pair product; prefers
/// variables that are unbounded on one side (free elimination).
VarId chooseVar(const std::vector<Row> &Rows, const std::set<VarId> &Vars) {
  VarId Best = *Vars.begin();
  long BestCost = -1;
  for (VarId V : Vars) {
    long L = 0, U = 0;
    for (const Row &R : Rows) {
      int64_t C = R.Expr.coeff(V);
      if (C > 0)
        ++U;
      else if (C < 0)
        ++L;
    }
    long Cost = L * U;
    if (BestCost < 0 || Cost < BestCost) {
      BestCost = Cost;
      Best = V;
      if (Cost == 0)
        break;
    }
  }
  return Best;
}

Tri satRows(std::vector<Row> Rows, int &Budget);

/// Real-shadow rows for the pair set plus Rest.
std::vector<Row> shadow(const std::vector<Bound> &Lower,
                        const std::vector<Bound> &Upper,
                        const std::vector<Row> &Rest, bool Dark) {
  std::vector<Row> Out = Rest;
  for (const Bound &L : Lower)
    for (const Bound &U : Upper) {
      // a x >= alpha, b x <= beta  ==>  a*beta - b*alpha >= 0
      // (dark shadow: >= (a-1)(b-1)).
      LinExpr E = L.Rest * U.Coef - U.Rest * L.Coef; // b*alpha - a*beta
      if (Dark)
        E = E + (L.Coef - 1) * (U.Coef - 1);
      Out.push_back({E, false}); // E <= 0.
    }
  return Out;
}

Tri satRows(std::vector<Row> Rows, int &Budget) {
  if (--Budget < 0)
    return Tri::Unknown;
  if (eliminateEqualities(Rows, Budget) == NormResult::Unsat)
    return Tri::False;
  if (Budget < 0)
    return Tri::Unknown;

  for (;;) {
    if (--Budget < 0)
      return Tri::Unknown;
    if (normalizeRows(Rows) == NormResult::Unsat)
      return Tri::False;
    std::set<VarId> Vars = rowVars(Rows);
    if (Vars.empty())
      return Tri::True; // All rows folded away.

    VarId V = chooseVar(Rows, Vars);
    std::vector<Bound> Lower, Upper;
    std::vector<Row> Rest;
    splitBounds(Rows, V, Lower, Upper, Rest);

    if (Lower.empty() || Upper.empty()) {
      // V is unbounded on one side: every constraint on V is satisfiable
      // by pushing V far enough; drop them.
      Rows = std::move(Rest);
      continue;
    }

    bool Exact = true;
    for (const Bound &L : Lower)
      for (const Bound &U : Upper)
        if (L.Coef != 1 && U.Coef != 1)
          Exact = false;

    std::vector<Row> Real = shadow(Lower, Upper, Rest, /*Dark=*/false);
    if (Exact) {
      Rows = std::move(Real);
      continue;
    }

    Tri R = satRows(Real, Budget);
    if (R == Tri::False)
      return Tri::False;

    std::vector<Row> Darker = shadow(Lower, Upper, Rest, /*Dark=*/true);
    Tri D = satRows(Darker, Budget);
    if (D == Tri::True)
      return Tri::True;
    if (D == Tri::Unknown || R == Tri::Unknown)
      return Tri::Unknown;

    // Splinters: any solution outside the dark shadow pins a*x within a
    // bounded offset of some lower bound.
    int64_t MaxB = 1;
    for (const Bound &U : Upper)
      MaxB = std::max(MaxB, U.Coef);
    bool SawUnknown = false;
    for (const Bound &L : Lower) {
      int64_t A = L.Coef;
      int64_t MaxI = floorDiv(A * MaxB - A - MaxB, MaxB);
      if (MaxI > 16) // Coefficients blew up: give up rather than crawl.
        return Tri::Unknown;
      for (int64_t I = 0; I <= MaxI; ++I) {
        std::vector<Row> Sub = Rows;
        LinExpr EqE = LinExpr::var(V, A) - L.Rest - I;
        Sub.push_back({EqE, true});
        Tri S = satRows(std::move(Sub), Budget);
        if (S == Tri::True)
          return Tri::True;
        if (S == Tri::Unknown)
          SawUnknown = true;
      }
    }
    return SawUnknown ? Tri::Unknown : Tri::False;
  }
}

/// Rows of a conjunction without Ne atoms (the entry points check).
std::vector<Row> toRows(const ConstraintConj &Conj) {
  std::vector<Row> Rows;
  Rows.reserve(Conj.size());
  for (const Constraint &C : Conj)
    Rows.push_back({C.expr(), C.isEq()});
  return Rows;
}

bool hasNe(const ConstraintConj &Conj) {
  return std::any_of(Conj.begin(), Conj.end(),
                     [](const Constraint &C) { return C.isNe(); });
}

/// The projection of a conjunction holding a Ne atom: every constraint
/// that mentions a variable of \p Vars is dropped. Implied by the input,
/// so a sound over-approximation, and flagged inexact.
Omega::Projection dropMentioning(const ConstraintConj &Conj,
                                 const std::set<VarId> &Vars) {
  Omega::Projection P;
  P.Exact = false;
  for (const Constraint &C : Conj)
    if (std::none_of(Vars.begin(), Vars.end(),
                     [&](VarId V) { return C.expr().mentions(V); }))
      P.Conj.push_back(C);
  return P;
}

} // namespace

Tri Omega::isSatConj(const ConstraintConj &Conj) {
  if (hasNe(Conj))
    return Tri::Unknown;
  int Budget = 20000;
  return satRows(toRows(Conj), Budget);
}

Omega::Projection Omega::projectVar(const ConstraintConj &Conj, VarId V) {
  if (hasNe(Conj))
    return dropMentioning(Conj, {V});
  Projection P;
  std::vector<Row> Rows = toRows(Conj);
  if (normalizeRows(Rows) == NormResult::Unsat) {
    P.Conj = {Constraint::eqZero(LinExpr(1))}; // false
    return P;
  }

  // Prefer exact elimination through an equality.
  for (size_t I = 0; I < Rows.size(); ++I) {
    const Row &R = Rows[I];
    if (!R.IsEq)
      continue;
    int64_t C = R.Expr.coeff(V);
    if (C == 1 || C == -1) {
      LinExpr Rest = R.Expr.substitute(V, LinExpr(0));
      LinExpr Repl = (-Rest) * C;
      std::vector<Row> Out = Rows;
      Out.erase(Out.begin() + I);
      substAll(Out, V, Repl);
      if (normalizeRows(Out) == NormResult::Unsat) {
        P.Conj = {Constraint::eqZero(LinExpr(1))};
        return P;
      }
      for (const Row &O : Out)
        P.Conj.push_back(
            Constraint(O.Expr, O.IsEq ? RelKind::Eq : RelKind::Le));
      P.Exact = true;
      return P;
    }
  }

  // Inequality-only case: equalities mentioning V with non-unit
  // coefficients are relaxed into bound pairs (inexact in general).
  std::vector<Row> Ineqs;
  bool HadHardEq = false;
  for (const Row &R : Rows) {
    if (R.IsEq && R.Expr.coeff(V) != 0) {
      HadHardEq = true;
      Ineqs.push_back({R.Expr, false});
      Ineqs.push_back({-R.Expr, false});
    } else {
      Ineqs.push_back(R);
    }
  }
  std::vector<Bound> Lower, Upper;
  std::vector<Row> Rest;
  splitBounds(Ineqs, V, Lower, Upper, Rest);
  bool Exact = !HadHardEq;
  for (const Bound &L : Lower)
    for (const Bound &U : Upper)
      if (L.Coef != 1 && U.Coef != 1)
        Exact = false;
  std::vector<Row> Out = shadow(Lower, Upper, Rest, /*Dark=*/false);
  if (normalizeRows(Out) == NormResult::Unsat) {
    P.Conj = {Constraint::eqZero(LinExpr(1))};
    return P;
  }
  for (const Row &O : Out)
    P.Conj.push_back(Constraint(O.Expr, O.IsEq ? RelKind::Eq : RelKind::Le));
  P.Exact = Exact;
  return P;
}

Omega::Projection Omega::projectVars(const ConstraintConj &Conj,
                                     const std::set<VarId> &Vars) {
  if (hasNe(Conj))
    return dropMentioning(Conj, Vars);
  Projection P;
  P.Conj = Conj;
  P.Exact = true;
  for (VarId V : Vars) {
    Projection Step = projectVar(P.Conj, V);
    P.Conj = std::move(Step.Conj);
    P.Exact = P.Exact && Step.Exact;
  }
  return P;
}

ConstraintConj Omega::dropRedundant(const ConstraintConj &Conj) {
  if (hasNe(Conj))
    return Conj;
  ConstraintConj Kept = Conj;
  for (size_t I = 0; I < Kept.size();) {
    // Does the rest imply Kept[I]? Test rest && !Kept[I] for UNSAT.
    ConstraintConj Rest;
    for (size_t J = 0; J < Kept.size(); ++J)
      if (J != I)
        Rest.push_back(Kept[J]);
    bool Redundant = true;
    for (const Constraint &NegPart : Kept[I].negated()) {
      ConstraintConj Test = Rest;
      if (NegPart.isNe()) {
        // Split once more.
        ConstraintConj T1 = Rest, T2 = Rest;
        T1.push_back(Constraint::leZero(NegPart.expr() + 1));
        T2.push_back(Constraint::leZero(-NegPart.expr() + 1));
        if (isSatConj(T1) != Tri::False || isSatConj(T2) != Tri::False)
          Redundant = false;
        continue;
      }
      Test.push_back(NegPart);
      if (isSatConj(Test) != Tri::False)
        Redundant = false;
    }
    if (Redundant)
      Kept.erase(Kept.begin() + I);
    else
      ++I;
  }
  return Kept;
}
