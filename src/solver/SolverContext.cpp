//===- solver/SolverContext.cpp -------------------------------*- C++ -*-===//

#include "solver/SolverContext.h"

#include "solver/Cancellation.h"
#include "solver/GlobalCache.h"
#include "solver/Interval.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>

using namespace tnt;

namespace {

/// Conjunction-level entailment: A |= c for every c in B. Used by the
/// cross-clause subsumption pass of simplify(); queries go straight to
/// Omega (uncounted), matching the historical fuel accounting.
Tri conjEntails(const ConstraintConj &A, const ConstraintConj &B) {
  // On corpora where the interval prefilter answers every counted
  // query, this is where the Omega wall-clock actually goes — worth a
  // span of its own.
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

SolverContext::SolverContext(size_t CacheCapacity, size_t DnfMemoCapacity)
    : Capacity(CacheCapacity), DnfCapacity(DnfMemoCapacity) {}

SolverContext &SolverContext::defaultCtx() {
  static SolverContext Ctx;
  return Ctx;
}

bool SolverContext::cancelled() const {
  return Cancel != nullptr && Cancel->cancelled();
}

Tri SolverContext::computeSat(const ConstraintConj &Conj) {
  // The interval prefilter answers instead of Omega when it can. Both
  // its verdicts are exact (empty-box UNSAT, verified-witness SAT; see
  // Interval.h), so the answer — and everything downstream of it — is
  // the one Omega would give; only the engine differs. Callers count
  // and charge the query first: an interval answer is a local
  // computation and costs a query, exactly like the Omega run it
  // replaces.
  {
    trace::Span IvSpan("interval", "solver");
    IntervalOutcome IO = intervalPrefilter(Conj);
    if (IO.Verdict != Tri::Unknown) {
      std::lock_guard<std::mutex> L(Mu);
      if (IO.Verdict == Tri::False)
        ++Counters.IntervalUnsat;
      else
        ++Counters.IntervalSat;
      return IO.Verdict;
    }
  }
  trace::Span OmegaSpan("omegaSat", "solver");
  return Omega::isSatConj(Conj);
}

Tri SolverContext::isSatConj(const ConstraintConj &Conj) {
  if (Capacity == 0 && Global == nullptr) {
    // Cache disabled: the query still counts (fuel accounting), but it
    // is not a cache miss — there is no cache to miss. CacheHits and
    // CacheMisses stay zero, so stats readers report "disabled" rather
    // than a misleading 0% hit rate.
    {
      std::lock_guard<std::mutex> L(Mu);
      ++Counters.SatQueries;
    }
    if (Cancel != nullptr)
      Cancel->charge();
    return computeSat(Conj);
  }

  InternedConj Key = internConj(Conj);
  {
    std::lock_guard<std::mutex> L(Mu);
    ++Counters.SatQueries;
    if (Capacity != 0) {
      auto It = Cache.find(Key);
      if (It != Cache.end()) {
        ++Counters.CacheHits;
        // Refresh LRU position.
        Lru.splice(Lru.begin(), Lru, It->second);
        Tri Val = It->second->Val;
        // A local hit is charged like a computation: cache-transparent
        // fuel keeps budget cutoffs schedule-independent.
        if (Cancel != nullptr)
          Cancel->charge();
        return Val;
      }
      ++Counters.CacheMisses;
    }
  }

  // Local miss: consult the shared tier before paying for a
  // computation. The answer for a key is a pure function of the key,
  // so a hit is indistinguishable from the recomputation it saves; it
  // is installed in the local tier so repeats stay off the shared lock.
  if (Global != nullptr) {
    if (std::optional<Tri> Shared = Global->lookupSat(Key)) {
      std::lock_guard<std::mutex> L(Mu);
      ++Counters.GlobalSatHits;
      if (Capacity != 0 && Cache.find(Key) == Cache.end()) {
        Lru.push_front(CacheEntry{Key, *Shared});
        Cache.emplace(Key, Lru.begin());
        if (Cache.size() > Capacity) {
          Cache.erase(Lru.back().Key);
          Lru.pop_back();
          ++Counters.CacheEvictions;
        }
      }
      return *Shared;
    }
  }

  // A global-tier hit above returned without charging the token: the
  // query was paid for by the program that promoted the answer, the
  // same no-double-count rule fuelUsed() applies. From here on this
  // context answers the query itself, so charge it. The prefilter runs
  // after the tier lookups, so it only ever replaces a charged Omega
  // computation, never an uncharged tier hit.
  if (Cancel != nullptr)
    Cancel->charge();
  Tri R = computeSat(Conj);

  if (Capacity != 0) {
    std::lock_guard<std::mutex> L(Mu);
    if (Cache.find(Key) == Cache.end()) {
      Lru.push_front(CacheEntry{Key, R});
      Cache.emplace(std::move(Key), Lru.begin());
      if (Cache.size() > Capacity) {
        Cache.erase(Lru.back().Key);
        Lru.pop_back();
        ++Counters.CacheEvictions;
      }
    }
  }
  return R;
}

std::optional<std::vector<ConstraintConj>>
SolverContext::toDNF(const Formula &F, size_t MaxClauses) {
  assert(F.isValid() && "toDNF on invalid formula");
  // Trivial nodes expand in constant time; keep them out of the memo so
  // they neither churn the LRU nor inflate the hit rate.
  switch (F.node()->kind()) {
  case FormulaNode::Kind::True:
  case FormulaNode::Kind::False:
  case FormulaNode::Kind::Atom:
    return F.toDNF(MaxClauses);
  default:
    break;
  }
  if (DnfCapacity == 0 && Global == nullptr) {
    {
      std::lock_guard<std::mutex> L(Mu);
      ++Counters.DnfQueries;
    }
    return F.toDNF(MaxClauses);
  }

  const FormulaNode *Key = F.node();
  std::shared_ptr<const DnfPayload> Hit;
  bool HitOverflow = false;
  {
    std::lock_guard<std::mutex> L(Mu);
    ++Counters.DnfQueries;
    if (DnfCapacity != 0) {
      auto It = DnfMemo.find(Key);
      // An Overflow entry answers any retrieval with cap <= ComputedCap;
      // a larger cap might succeed, so it must recompute (a miss). A
      // stored skeleton answers every cap: success when it fits, else
      // overflow. Only the refcount is copied under the lock.
      if (It != DnfMemo.end() &&
          !(It->second->Overflow && MaxClauses > It->second->ComputedCap)) {
        ++Counters.DnfHits;
        DnfLru.splice(DnfLru.begin(), DnfLru, It->second);
        Hit = It->second->Payload;
        HitOverflow =
            It->second->Overflow || Hit->Clauses.size() > MaxClauses;
      } else {
        ++Counters.DnfMisses;
      }
    }
  }

  // Local miss: the shared tier only ever holds full (non-overflow)
  // skeletons, so a payload answers any cap — success when it fits,
  // overflow otherwise. The retrieval path below renames its
  // placeholders exactly as it would for a local hit, so which
  // program's computation was promoted is unobservable (placeholder
  // count, bases and order are a function of the node alone).
  if (!Hit && Global != nullptr) {
    if (std::shared_ptr<const DnfPayload> Shared = Global->lookupDnf(Key)) {
      std::lock_guard<std::mutex> L(Mu);
      ++Counters.GlobalDnfHits;
      if (DnfCapacity != 0) {
        // Install locally (replacing a stale overflow entry if one is
        // in the way), so repeats stay off the shared lock.
        auto It = DnfMemo.find(Key);
        if (It != DnfMemo.end()) {
          DnfLru.erase(It->second);
          DnfMemo.erase(It);
        }
        DnfEntry E;
        E.Key = Key;
        E.Payload = Shared;
        E.ComputedCap = MaxClauses;
        DnfLru.push_front(std::move(E));
        DnfMemo.emplace(Key, DnfLru.begin());
        if (DnfMemo.size() > DnfCapacity) {
          DnfMemo.erase(DnfLru.back().Key);
          DnfLru.pop_back();
          ++Counters.DnfEvictions;
        }
      }
      Hit = std::move(Shared);
      HitOverflow = Hit->Clauses.size() > MaxClauses;
    }
  }

  if (Hit) {
    // Re-freshen the skeleton's existential witnesses: each retrieval
    // gets its own fresh variables, exactly as a recomputation's toNNF
    // would mint them (same bases, same order, same count — so under a
    // VarPool scope the spellings match an unmemoized run byte for
    // byte). The counter is consumed even when the answer is overflow,
    // mirroring the unmemoized path where toNNF runs before the
    // expansion gives up.
    std::map<VarId, VarId> Renaming;
    for (const auto &[Placeholder, Base] : Hit->Placeholders)
      Renaming[Placeholder] = freshVar(Base);
    if (HitOverflow)
      return std::nullopt;
    std::vector<ConstraintConj> Clauses = Hit->Clauses;
    for (const auto &[CI, KI] : Hit->PlaceholderSites)
      Clauses[CI][KI] = Clauses[CI][KI].rename(Renaming);
    return Clauses;
  }

  // Both tiers missed with the local memo disabled (global tier only):
  // expand without recording — promotion is the per-context memo's job.
  if (DnfCapacity == 0) {
    trace::Span DnfSpan("dnfExpand", "solver");
    return F.toDNF(MaxClauses);
  }

  // Miss: expand once, recording the fresh variables toNNF introduces
  // so later retrievals can rename them apart again. The skeleton
  // returned now already carries fresh placeholders, so it is served
  // as-is.
  std::vector<std::pair<VarId, std::string>> Renamed;
  std::optional<std::vector<ConstraintConj>> Out;
  {
    trace::Span DnfSpan("dnfExpand", "solver");
    Formula Nnf = F.toNNF(&Renamed);
    Out = Formula::expandNNF(Nnf, MaxClauses);
  }

  // Build the whole entry (deep clause copy, placeholder-site scan)
  // before taking the lock; under Mu only the map/list insert and the
  // eviction run, so concurrent isSatConj lookups are not stalled.
  DnfEntry E;
  E.Key = Key;
  E.ComputedCap = MaxClauses;
  auto P = std::make_shared<DnfPayload>();
  if (Out) {
    P->Clauses = *Out;
    if (!Renamed.empty())
      for (uint32_t CI = 0; CI < P->Clauses.size(); ++CI)
        for (uint32_t KI = 0; KI < P->Clauses[CI].size(); ++KI)
          for (const auto &[Placeholder, Base] : Renamed)
            if (P->Clauses[CI][KI].expr().mentions(Placeholder)) {
              P->PlaceholderSites.emplace_back(CI, KI);
              break;
            }
  } else {
    E.Overflow = true;
  }
  // Placeholders are recorded even for overflow entries: a later hit
  // must consume the fresh-variable counter like a recomputation would.
  P->Placeholders = std::move(Renamed);
  E.Payload = std::move(P);

  {
    std::lock_guard<std::mutex> L(Mu);
    auto It = DnfMemo.find(Key);
    if (It != DnfMemo.end()) {
      // Either a racing fill or a stale overflow entry: replace it.
      DnfLru.erase(It->second);
      DnfMemo.erase(It);
    }
    DnfLru.push_front(std::move(E));
    DnfMemo.emplace(Key, DnfLru.begin());
    if (DnfMemo.size() > DnfCapacity) {
      DnfMemo.erase(DnfLru.back().Key);
      DnfLru.pop_back();
      ++Counters.DnfEvictions;
    }
  }
  return Out;
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
  // Per-clause cleanup always runs (queries are cached); the quadratic
  // cross-clause subsumption only below MaxClauses.
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

void SolverContext::clearCache() {
  std::lock_guard<std::mutex> L(Mu);
  Cache.clear();
  Lru.clear();
  DnfMemo.clear();
  DnfLru.clear();
}

size_t SolverContext::cacheSize() const {
  std::lock_guard<std::mutex> L(Mu);
  return Cache.size();
}

size_t SolverContext::dnfMemoSize() const {
  std::lock_guard<std::mutex> L(Mu);
  return DnfMemo.size();
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

void SolverContext::promoteTo(GlobalSolverCache &G) const {
  // Snapshot under the local lock, merge outside it: promotion must
  // not stall this context's (or anyone's) query path on the shared
  // tier's exclusive lock. Sat entries go most-recently-used first, so
  // when the shared tier's current generation is near a rotation the
  // hottest answers win the slots that precede it; only full skeletons
  // are promoted from the memo
  // (an overflow marker is only valid relative to its cap, and caps
  // are a caller detail the shared tier does not track).
  std::vector<std::pair<InternedConj, Tri>> SatEntries;
  std::vector<std::pair<const FormulaNode *, std::shared_ptr<const DnfPayload>>>
      DnfEntries;
  {
    std::lock_guard<std::mutex> L(Mu);
    SatEntries.reserve(Lru.size());
    for (const CacheEntry &E : Lru)
      SatEntries.emplace_back(E.Key, E.Val);
    for (const DnfEntry &E : DnfLru)
      if (!E.Overflow)
        DnfEntries.emplace_back(E.Key, E.Payload);
  }
  G.mergeSat(SatEntries);
  G.mergeDnf(DnfEntries);
}
