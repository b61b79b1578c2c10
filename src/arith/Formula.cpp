//===- arith/Formula.cpp --------------------------------------*- C++ -*-===//

#include "arith/Formula.h"

#include "arith/Intern.h"

#include <algorithm>
#include <cassert>
#include <functional>

using namespace tnt;

bool FormulaNode::operator==(const FormulaNode &O) const {
  if (K != O.K || Bound != O.Bound || Children.size() != O.Children.size())
    return false;
  if (K == Kind::Atom && !(Atom == O.Atom))
    return false;
  for (size_t I = 0; I < Children.size(); ++I)
    if (Children[I].node() != O.Children[I].node())
      return false;
  return true;
}

namespace {

/// Structural hash of a node whose children are already interned (and
/// therefore carry their own cached hashes). Mixes shape only — kinds,
/// constraint hashes, VarIds — never pointers, so the value is stable
/// across runs.
size_t computeHash(const FormulaNode &N) {
  uint64_t H = 1469598103934665603ull;
  auto mix = [&H](uint64_t V) {
    H ^= V;
    H *= 1099511628211ull;
  };
  mix(static_cast<uint64_t>(N.K));
  if (N.K == FormulaNode::Kind::Atom)
    mix(N.Atom.hashValue());
  for (const Formula &C : N.Children)
    mix(C.node()->Hash);
  for (VarId B : N.Bound)
    mix(B);
  return static_cast<size_t>(H);
}

} // namespace

bool tnt::formulaStructLess(const FormulaNode *A, const FormulaNode *B) {
  if (A == B)
    return false;
  // Hash first: cheap, deterministic, and almost always decisive.
  if (A->Hash != B->Hash)
    return A->Hash < B->Hash;
  if (A->K != B->K)
    return A->K < B->K;
  if (A->K == FormulaNode::Kind::Atom)
    return A->Atom < B->Atom;
  if (A->Bound != B->Bound)
    return A->Bound < B->Bound;
  if (A->Children.size() != B->Children.size())
    return A->Children.size() < B->Children.size();
  for (size_t I = 0; I < A->Children.size(); ++I) {
    const FormulaNode *CA = A->Children[I].node();
    const FormulaNode *CB = B->Children[I].node();
    if (CA != CB)
      return formulaStructLess(CA, CB);
  }
  // All components equal: the intern table would have produced one
  // node, so this is only reachable for A == B (handled above).
  return false;
}

Formula Formula::make(FormulaNode::Kind K, Constraint Atom,
                      std::vector<Formula> Children, std::vector<VarId> Bound) {
  if (K == FormulaNode::Kind::And || K == FormulaNode::Kind::Or) {
    // Commutative canonicalization: deterministic structural order plus
    // idempotence (duplicate children collapse).
    std::sort(Children.begin(), Children.end(),
              [](const Formula &A, const Formula &B) {
                return formulaStructLess(A.node(), B.node());
              });
    Children.erase(std::unique(Children.begin(), Children.end(),
                               [](const Formula &A, const Formula &B) {
                                 return A.node() == B.node();
                               }),
                   Children.end());
    if (Children.size() == 1)
      return Children[0];
  }
  FormulaNode N;
  N.K = K;
  N.Atom = std::move(Atom);
  N.Children = std::move(Children);
  N.Bound = std::move(Bound);
  N.Hash = computeHash(N);
  return Formula(ArithIntern::global().formula(N));
}

Formula Formula::top() {
  static const Formula T =
      make(FormulaNode::Kind::True, Constraint(), {}, {});
  return T;
}

Formula Formula::bottom() {
  static const Formula F =
      make(FormulaNode::Kind::False, Constraint(), {}, {});
  return F;
}

Formula Formula::atom(const Constraint &C) {
  if (std::optional<bool> Truth = C.constantTruth())
    return *Truth ? top() : bottom();
  return make(FormulaNode::Kind::Atom, C, {}, {});
}

Formula Formula::cmp(const LinExpr &L, CmpKind Cmp, const LinExpr &R) {
  return atom(Constraint::make(L, Cmp, R));
}

Formula Formula::conj(const std::vector<Formula> &Fs) {
  std::vector<Formula> Kids;
  for (const Formula &F : Fs) {
    assert(F.isValid() && "conjunct must be valid");
    if (F.isBottom())
      return bottom();
    if (F.isTop())
      continue;
    if (F.node()->K == FormulaNode::Kind::And) {
      for (const Formula &K : F.node()->Children)
        Kids.push_back(K);
      continue;
    }
    Kids.push_back(F);
  }
  if (Kids.empty())
    return top();
  if (Kids.size() == 1)
    return Kids[0];
  return make(FormulaNode::Kind::And, Constraint(), std::move(Kids), {});
}

Formula Formula::disj(const std::vector<Formula> &Fs) {
  std::vector<Formula> Kids;
  for (const Formula &F : Fs) {
    assert(F.isValid() && "disjunct must be valid");
    if (F.isTop())
      return top();
    if (F.isBottom())
      continue;
    if (F.node()->K == FormulaNode::Kind::Or) {
      for (const Formula &K : F.node()->Children)
        Kids.push_back(K);
      continue;
    }
    Kids.push_back(F);
  }
  if (Kids.empty())
    return bottom();
  if (Kids.size() == 1)
    return Kids[0];
  return make(FormulaNode::Kind::Or, Constraint(), std::move(Kids), {});
}

Formula Formula::neg(const Formula &F) {
  assert(F.isValid() && "negand must be valid");
  if (F.isTop())
    return bottom();
  if (F.isBottom())
    return top();
  if (F.node()->K == FormulaNode::Kind::Not)
    return F.node()->Children[0];
  return make(FormulaNode::Kind::Not, Constraint(), {F}, {});
}

Formula Formula::exists(const std::vector<VarId> &Vars, const Formula &Body) {
  assert(Body.isValid() && "body must be valid");
  if (Vars.empty() || Body.isTop() || Body.isBottom())
    return Body;
  std::set<VarId> Free = Body.freeVars();
  // Binders are independent, so a sorted deduplicated set is the
  // canonical spelling of the quantifier prefix.
  std::set<VarId> UsedSet;
  for (VarId V : Vars)
    if (Free.count(V))
      UsedSet.insert(V);
  if (UsedSet.empty())
    return Body;
  return make(FormulaNode::Kind::Exists, Constraint(), {Body},
              std::vector<VarId>(UsedSet.begin(), UsedSet.end()));
}

bool Formula::isTop() const {
  return Node && Node->K == FormulaNode::Kind::True;
}

bool Formula::isBottom() const {
  return Node && Node->K == FormulaNode::Kind::False;
}

static void collectFree(const Formula &F, std::set<VarId> &Bound,
                        std::set<VarId> &Out) {
  const FormulaNode *N = F.node();
  switch (N->K) {
  case FormulaNode::Kind::True:
  case FormulaNode::Kind::False:
    return;
  case FormulaNode::Kind::Atom: {
    std::set<VarId> Vs;
    N->Atom.collectVars(Vs);
    for (VarId V : Vs)
      if (!Bound.count(V))
        Out.insert(V);
    return;
  }
  case FormulaNode::Kind::And:
  case FormulaNode::Kind::Or:
  case FormulaNode::Kind::Not:
    for (const Formula &C : N->Children)
      collectFree(C, Bound, Out);
    return;
  case FormulaNode::Kind::Exists: {
    std::vector<VarId> Added;
    for (VarId V : N->Bound)
      if (Bound.insert(V).second)
        Added.push_back(V);
    collectFree(N->Children[0], Bound, Out);
    for (VarId V : Added)
      Bound.erase(V);
    return;
  }
  }
}

std::set<VarId> Formula::freeVars() const {
  assert(isValid() && "freeVars on invalid formula");
  std::set<VarId> Bound, Out;
  collectFree(*this, Bound, Out);
  return Out;
}

Formula Formula::substitute(VarId V, const LinExpr &Repl) const {
  assert(isValid() && "substitute on invalid formula");
  const FormulaNode *N = Node;
  switch (N->K) {
  case FormulaNode::Kind::True:
  case FormulaNode::Kind::False:
    return *this;
  case FormulaNode::Kind::Atom:
    return atom(N->Atom.substitute(V, Repl));
  case FormulaNode::Kind::And:
  case FormulaNode::Kind::Or: {
    std::vector<Formula> Kids;
    Kids.reserve(N->Children.size());
    for (const Formula &C : N->Children)
      Kids.push_back(C.substitute(V, Repl));
    return N->K == FormulaNode::Kind::And ? conj(Kids) : disj(Kids);
  }
  case FormulaNode::Kind::Not:
    return neg(N->Children[0].substitute(V, Repl));
  case FormulaNode::Kind::Exists: {
    // Shadowed: nothing to do.
    if (std::find(N->Bound.begin(), N->Bound.end(), V) != N->Bound.end())
      return *this;
    // Capture avoidance: rename any bound variable occurring in Repl.
    std::set<VarId> ReplVars;
    Repl.collectVars(ReplVars);
    std::map<VarId, VarId> Renaming;
    std::vector<VarId> NewBound;
    for (VarId B : N->Bound) {
      if (ReplVars.count(B)) {
        VarId NB = freshVar(varName(B));
        Renaming[B] = NB;
        NewBound.push_back(NB);
      } else {
        NewBound.push_back(B);
      }
    }
    Formula Body = N->Children[0];
    if (!Renaming.empty())
      Body = Body.rename(Renaming);
    return exists(NewBound, Body.substitute(V, Repl));
  }
  }
  return *this;
}

Formula Formula::rename(const std::map<VarId, VarId> &Renaming) const {
  assert(isValid() && "rename on invalid formula");
  const FormulaNode *N = Node;
  switch (N->K) {
  case FormulaNode::Kind::True:
  case FormulaNode::Kind::False:
    return *this;
  case FormulaNode::Kind::Atom:
    return atom(N->Atom.rename(Renaming));
  case FormulaNode::Kind::And:
  case FormulaNode::Kind::Or: {
    std::vector<Formula> Kids;
    Kids.reserve(N->Children.size());
    for (const Formula &C : N->Children)
      Kids.push_back(C.rename(Renaming));
    return N->K == FormulaNode::Kind::And ? conj(Kids) : disj(Kids);
  }
  case FormulaNode::Kind::Not:
    return neg(N->Children[0].rename(Renaming));
  case FormulaNode::Kind::Exists: {
    // Bound variables shadow the renaming.
    std::map<VarId, VarId> Inner = Renaming;
    for (VarId B : N->Bound)
      Inner.erase(B);
    if (Inner.empty())
      return *this;
    // Capture avoidance: a renaming *target* that collides with a
    // binder would be captured (e.g. x -> b under "exists b"); freshen
    // such binders before applying the renaming. Only the collision
    // case pays for a freeVars() walk — it prunes pairs whose source
    // is not free in the body (they cannot act, and keeping them would
    // force needless freshening).
    std::set<VarId> Targets;
    for (const auto &[From, To] : Inner)
      Targets.insert(To);
    bool Collides = false;
    for (VarId B : N->Bound)
      if (Targets.count(B)) {
        Collides = true;
        break;
      }
    std::map<VarId, VarId> Freshen;
    std::vector<VarId> NewBound = N->Bound;
    if (Collides) {
      std::set<VarId> Free = N->Children[0].freeVars();
      Targets.clear();
      for (auto It = Inner.begin(); It != Inner.end();) {
        if (Free.count(It->first)) {
          Targets.insert(It->second);
          ++It;
        } else {
          It = Inner.erase(It);
        }
      }
      if (Inner.empty())
        return *this;
      NewBound.clear();
      for (VarId B : N->Bound) {
        if (Targets.count(B)) {
          VarId NB = freshVar(varName(B));
          Freshen[B] = NB;
          NewBound.push_back(NB);
        } else {
          NewBound.push_back(B);
        }
      }
    }
    Formula Body = N->Children[0];
    if (!Freshen.empty())
      Body = Body.rename(Freshen);
    return exists(NewBound, Body.rename(Inner));
  }
  }
  return *this;
}

bool Formula::eval(const std::map<VarId, int64_t> &Assign) const {
  assert(isValid() && "eval on invalid formula");
  const FormulaNode *N = Node;
  switch (N->K) {
  case FormulaNode::Kind::True:
    return true;
  case FormulaNode::Kind::False:
    return false;
  case FormulaNode::Kind::Atom:
    return N->Atom.eval(Assign);
  case FormulaNode::Kind::And:
    for (const Formula &C : N->Children)
      if (!C.eval(Assign))
        return false;
    return true;
  case FormulaNode::Kind::Or:
    for (const Formula &C : N->Children)
      if (C.eval(Assign))
        return true;
    return false;
  case FormulaNode::Kind::Not:
    return !N->Children[0].eval(Assign);
  case FormulaNode::Kind::Exists: {
    // Witness search over any arity: candidate values are a small
    // window around 0 and around each assigned value, so witnesses
    // near the assigned magnitudes (e.g. "exists b . b = x" with
    // x = 1000) are found. A total budget caps the Cands^arity
    // blowup; exhausting it means "no witness found" — the search is
    // an under-approximation by design, adequate for small
    // certificates.
    const int64_t Window = 8;
    std::vector<int64_t> Cands;
    for (int64_t D = -Window; D <= Window; ++D)
      Cands.push_back(D);
    for (const auto &[V, Val] : Assign)
      for (int64_t D = -Window; D <= Window; ++D)
        Cands.push_back(Val + D);
    std::sort(Cands.begin(), Cands.end());
    Cands.erase(std::unique(Cands.begin(), Cands.end()), Cands.end());
    size_t Budget = 1u << 20;
    std::map<VarId, int64_t> A = Assign;
    std::function<bool(size_t)> Search = [&](size_t I) {
      if (I == N->Bound.size()) {
        if (Budget == 0)
          return false;
        --Budget;
        return N->Children[0].eval(A);
      }
      for (int64_t V : Cands) {
        if (Budget == 0)
          return false;
        A[N->Bound[I]] = V;
        if (Search(I + 1))
          return true;
      }
      return false;
    };
    return Search(0);
  }
  }
  return false;
}

namespace {

Formula nnfOf(const Formula &F, bool Negate) {
  const FormulaNode *N = F.node();
  switch (N->K) {
  case FormulaNode::Kind::True:
    return Negate ? Formula::bottom() : Formula::top();
  case FormulaNode::Kind::False:
    return Negate ? Formula::top() : Formula::bottom();
  case FormulaNode::Kind::Atom: {
    if (!Negate)
      return F;
    std::vector<Constraint> Neg = N->Atom.negated();
    std::vector<Formula> Fs;
    Fs.reserve(Neg.size());
    for (const Constraint &C : Neg)
      Fs.push_back(Formula::atom(C));
    return Formula::disj(Fs);
  }
  case FormulaNode::Kind::And:
  case FormulaNode::Kind::Or: {
    bool IsAnd = (N->K == FormulaNode::Kind::And) != Negate;
    std::vector<Formula> Kids;
    Kids.reserve(N->Children.size());
    for (const Formula &C : N->Children)
      Kids.push_back(nnfOf(C, Negate));
    return IsAnd ? Formula::conj(Kids) : Formula::disj(Kids);
  }
  case FormulaNode::Kind::Not:
    return nnfOf(N->Children[0], !Negate);
  case FormulaNode::Kind::Exists: {
    // A negated existential (a universal) is outside the NNF fragment.
    // Solver entry points eliminate negative existentials by exact
    // projection before NNF (rewriteNegExists in SolverContext); for
    // callers that skip that pass, keep the Not node intact as a
    // residue — expandNNF refuses to expand it (conservative nullopt)
    // instead of mis-expanding the universal as an existential, which
    // is what the old NDEBUG-compiled-out assert silently allowed.
    if (Negate)
      return Formula::neg(F);
    std::map<VarId, VarId> Renaming;
    for (VarId B : N->Bound)
      Renaming[B] = freshVar(varName(B));
    return nnfOf(N->Children[0].rename(Renaming), false);
  }
  }
  return F;
}

/// DNF clause expansion of an already-NNF formula (as produced by
/// nnfOf), capped at \p MaxClauses.
std::optional<std::vector<ConstraintConj>> expandNNF(const Formula &Nnf,
                                                     size_t MaxClauses) {
  // Recursive expansion with clause cap.
  struct Expander {
    size_t Cap;
    bool Overflow = false;

    std::vector<ConstraintConj> expand(const Formula &F) {
      if (Overflow)
        return {};
      const FormulaNode *Nd = F.node();
      switch (Nd->K) {
      case FormulaNode::Kind::True:
        return {ConstraintConj{}};
      case FormulaNode::Kind::False:
        return {};
      case FormulaNode::Kind::Atom: {
        const Constraint &C = Nd->Atom;
        if (C.isNe()) {
          // e != 0 == e <= -1 or -e <= -1.
          Constraint Lt = Constraint::leZero(C.expr() + 1);
          Constraint Gt = Constraint::leZero(-C.expr() + 1);
          return {ConstraintConj{Lt}, ConstraintConj{Gt}};
        }
        return {ConstraintConj{C}};
      }
      case FormulaNode::Kind::Or: {
        std::vector<ConstraintConj> Out;
        for (const Formula &K : Nd->Children) {
          std::vector<ConstraintConj> Sub = expand(K);
          for (ConstraintConj &Cl : Sub) {
            Out.push_back(std::move(Cl));
            if (Out.size() > Cap) {
              Overflow = true;
              return {};
            }
          }
        }
        return Out;
      }
      case FormulaNode::Kind::And: {
        std::vector<ConstraintConj> Out{ConstraintConj{}};
        for (const Formula &K : Nd->Children) {
          std::vector<ConstraintConj> Sub = expand(K);
          std::vector<ConstraintConj> Next;
          for (const ConstraintConj &A : Out)
            for (const ConstraintConj &B : Sub) {
              ConstraintConj Merged = A;
              Merged.insert(Merged.end(), B.begin(), B.end());
              Next.push_back(std::move(Merged));
              if (Next.size() > Cap) {
                Overflow = true;
                return {};
              }
            }
          Out = std::move(Next);
          if (Out.empty())
            return Out; // Unsatisfiable conjunct.
        }
        return Out;
      }
      case FormulaNode::Kind::Exists:
      case FormulaNode::Kind::Not:
        // Residual negation: a negated existential nnfOf could not push
        // through. (nnfOf renames every positive existential apart, so
        // an Exists only ever arrives under a Not.) Refuse to expand
        // rather than produce an unsound DNF; callers treat nullopt
        // conservatively.
        Overflow = true;
        return {};
      }
      return {};
    }
  };

  Expander E{MaxClauses};
  std::vector<ConstraintConj> Out = E.expand(Nnf);
  if (E.Overflow)
    return std::nullopt;
  return Out;
}

} // namespace

Formula Formula::toNNF() const {
  assert(isValid() && "toNNF on invalid formula");
  return nnfOf(*this, false);
}

std::optional<std::vector<ConstraintConj>>
Formula::toDNF(size_t MaxClauses) const {
  return expandNNF(toNNF(), MaxClauses);
}

std::string Formula::str() const {
  if (!isValid())
    return "<invalid>";
  const FormulaNode *N = Node;
  switch (N->K) {
  case FormulaNode::Kind::True:
    return "true";
  case FormulaNode::Kind::False:
    return "false";
  case FormulaNode::Kind::Atom:
    return N->Atom.str();
  case FormulaNode::Kind::And:
  case FormulaNode::Kind::Or: {
    std::string Sep = N->K == FormulaNode::Kind::And ? " && " : " || ";
    std::string Out = "(";
    for (size_t I = 0; I < N->Children.size(); ++I) {
      if (I)
        Out += Sep;
      Out += N->Children[I].str();
    }
    return Out + ")";
  }
  case FormulaNode::Kind::Not:
    return "!(" + N->Children[0].str() + ")";
  case FormulaNode::Kind::Exists: {
    std::string Out = "(exists ";
    for (size_t I = 0; I < N->Bound.size(); ++I) {
      if (I)
        Out += ",";
      Out += varName(N->Bound[I]);
    }
    return Out + " . " + N->Children[0].str() + ")";
  }
  }
  return "<unknown>";
}

Formula tnt::substParallelFormula(const Formula &F,
                                  const std::vector<VarId> &Params,
                                  const std::vector<LinExpr> &Args) {
  assert(Params.size() == Args.size() && "parallel substitution arity");
  // Route through fresh temporaries so argument expressions mentioning
  // the parameters are not re-substituted.
  std::map<VarId, VarId> Tmp;
  for (VarId P : Params)
    if (!Tmp.count(P))
      Tmp[P] = freshVar("par_tmp");
  Formula Out = F.rename(Tmp);
  for (size_t J = 0; J < Params.size(); ++J)
    Out = Out.substitute(Tmp[Params[J]], Args[J]);
  return Out;
}

Formula tnt::conjToFormula(const ConstraintConj &Conj) {
  std::vector<Formula> Fs;
  Fs.reserve(Conj.size());
  for (const Constraint &C : Conj)
    Fs.push_back(Formula::atom(C));
  return Formula::conj(Fs);
}
