//===- solver/SolverContext.h - Instance-based decision context -*- C++ -*-===//
//
// Part of the hiptntpp project: a reproduction of "Termination and
// Non-Termination Specification Inference" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instance-based decision-procedure context. Each SolverContext
/// owns an LRU satisfiability cache keyed on canonical (hash-consed)
/// constraint conjunctions and its own query statistics, on top of the
/// stateless Omega / Simplex procedures. Contexts are internally
/// synchronized, so one context may be shared by several threads; for
/// deterministic parallel analysis each independent unit of work (one
/// call-graph SCC group) gets its own context, making query counts and
/// cache behavior a function of the work alone, not of scheduling.
///
/// These are the SAT/UNSAT/entailment oracles used throughout the
/// inference engine (guard feasibility in Def. 2, base-case inference
/// in 5.1, unreachability proofs in 5.5, case-split feasibility in
/// 5.6). The legacy `tnt::Solver` static facade forwards to
/// SolverContext::defaultCtx().
///
//===----------------------------------------------------------------------===//

#ifndef TNT_SOLVER_SOLVERCONTEXT_H
#define TNT_SOLVER_SOLVERCONTEXT_H

#include "arith/Formula.h"
#include "arith/Intern.h"
#include "solver/Omega.h"

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <set>
#include <unordered_map>

namespace tnt {

class CancellationToken;
class GlobalSolverCache;

/// Immutable body of a memoized DNF expansion, shared behind a
/// shared_ptr so a hit only copies a refcount under a lock and does
/// its clause copying/renaming outside it. Clauses is the skeleton as
/// first computed; Placeholders records the fresh variables toNNF
/// minted for existential binders, paired with the original binder
/// spelling used as the base for re-freshening (also recorded for
/// overflow entries, so hits consume the fresh-variable counter
/// exactly like an unmemoized run). Payloads are shared between the
/// per-context memo and the global cache tier: placeholder count,
/// bases and order are a function of the interned formula node alone,
/// so after the per-retrieval renaming every payload computed for a
/// node yields byte-identical clauses.
struct DnfPayload {
  std::vector<ConstraintConj> Clauses;
  std::vector<std::pair<VarId, std::string>> Placeholders;
  /// (clause, constraint) positions that mention a placeholder: the
  /// only spots a retrieval has to rename.
  std::vector<std::pair<uint32_t, uint32_t>> PlaceholderSites;
};

/// Per-context query counters (the micro benches and the analyzer's
/// fuel accounting read these; merged at scheduler join points).
struct SolverStats {
  /// Conjunction-level satisfiability queries issued (cache-transparent:
  /// hits count too, so fuel accounting is schedule-independent).
  uint64_t SatQueries = 0;
  /// Sat-cache lookups: hits + misses. Zero when the cache is disabled
  /// (capacity 0), so a disabled cache reads as "no lookups", not as a
  /// 0% hit rate.
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t CacheEvictions = 0;
  /// Farkas/simplex LP solves attributed to this context.
  uint64_t LpSolves = 0;
  /// Bland pivots those solves made.
  uint64_t LpPivots = 0;
  /// Of those, solves rejected because exact arithmetic left 64 bits.
  uint64_t LpOverflows = 0;
  /// DNF-memo counters (the memoized toDNF path). Non-trivial formulas
  /// only; DnfHits + DnfMisses == DnfQueries when the memo is enabled,
  /// and both stay zero when it is disabled (capacity 0).
  uint64_t DnfQueries = 0;
  uint64_t DnfHits = 0;
  uint64_t DnfMisses = 0;
  uint64_t DnfEvictions = 0;
  /// Queries answered by the attached global cache tier (zero when no
  /// tier is attached). A global sat hit still counts in SatQueries
  /// (and as a local CacheMiss), so per-tier hit rates stay readable;
  /// fuel accounting subtracts it — the program that originally
  /// computed the answer already paid for it (see fuelUsed()).
  uint64_t GlobalSatHits = 0;
  uint64_t GlobalDnfHits = 0;
  /// Queries the interval prefilter answered INSTEAD of Omega — charged
  /// exactly like an Omega run (they are local computations: counted in
  /// SatQueries, charged to the token, included in fuelUsed()), so the
  /// prefilter changes where an answer comes from but never what any
  /// budget observes.
  uint64_t IntervalUnsat = 0;
  uint64_t IntervalSat = 0;

  /// Solver work charged to this context for budget purposes: queries
  /// issued minus queries answered by the shared global tier. Local
  /// cache hits stay charged (cache-transparent, schedule-independent);
  /// global-tier hits were paid for by the program that promoted them.
  uint64_t fuelUsed() const { return SatQueries - GlobalSatHits; }

  SolverStats &operator+=(const SolverStats &O) {
    SatQueries += O.SatQueries;
    CacheHits += O.CacheHits;
    CacheMisses += O.CacheMisses;
    CacheEvictions += O.CacheEvictions;
    LpSolves += O.LpSolves;
    LpPivots += O.LpPivots;
    LpOverflows += O.LpOverflows;
    DnfQueries += O.DnfQueries;
    DnfHits += O.DnfHits;
    DnfMisses += O.DnfMisses;
    DnfEvictions += O.DnfEvictions;
    GlobalSatHits += O.GlobalSatHits;
    GlobalDnfHits += O.GlobalDnfHits;
    IntervalUnsat += O.IntervalUnsat;
    IntervalSat += O.IntervalSat;
    return *this;
  }
};

/// An instance-based formula-level decision procedure with a bounded
/// LRU query cache. All answers are three-valued; helpers with boolean
/// results resolve Unknown in the documented conservative direction.
class SolverContext {
public:
  /// Default cache bound: entries, not bytes; one entry is an interned
  /// pointer vector plus a Tri.
  static constexpr size_t DefaultCacheCapacity = 1u << 16;
  /// Default DNF-memo bound: entries; one entry holds a clause skeleton
  /// plus its placeholder-variable record.
  static constexpr size_t DefaultDnfMemoCapacity = 1u << 12;

  /// \p CacheCapacity == 0 disables satisfiability caching and
  /// \p DnfMemoCapacity == 0 disables DNF memoization (the uncached
  /// baselines of the micro benches).
  explicit SolverContext(size_t CacheCapacity = DefaultCacheCapacity,
                         size_t DnfMemoCapacity = DefaultDnfMemoCapacity);

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

  /// Cached conjunction-level satisfiability (the unit every formula
  /// query decomposes into). One fixed path: local LRU, then the global
  /// tier (exact generations, then the sat snapshot), then the interval
  /// prefilter, then Omega.
  Tri isSatConj(const ConstraintConj &Conj);

  /// Memoized DNF expansion, keyed on the interned formula node. The
  /// memo stores the quantifier-free clause *skeleton* together with
  /// the fresh variables toNNF introduced for existential binders
  /// ("placeholders"); every retrieval after the first re-freshens the
  /// placeholders, so each caller sees witnesses renamed apart exactly
  /// as the unmemoized path would produce them. Semantically equal to
  /// F.toDNF(MaxClauses) modulo that fresh-variable renaming.
  std::optional<std::vector<ConstraintConj>> toDNF(const Formula &F,
                                                   size_t MaxClauses = 4096);

  SolverStats stats() const;
  void resetStats();

  /// Drops every cached entry, sat cache and DNF memo (stats are kept).
  void clearCache();
  size_t cacheSize() const;
  size_t cacheCapacity() const { return Capacity; }
  bool cacheEnabled() const { return Capacity != 0; }
  size_t dnfMemoSize() const;
  size_t dnfMemoCapacity() const { return DnfCapacity; }
  bool dnfMemoEnabled() const { return DnfCapacity != 0; }

  /// Attribution hooks for the synthesis layer (FarkasSystem).
  void noteLpSolve(uint64_t Pivots);
  void noteLpOverflow();

  /// Attaches the read-mostly global cache tier. The tier is consulted
  /// on local misses (both sat cache and DNF memo) and never written
  /// during queries; promoteTo() is the only writer. Attach before the
  /// context issues queries — the pointer is read without the context
  /// mutex. Pass nullptr to detach.
  void attachGlobalTier(GlobalSolverCache *G) { Global = G; }
  GlobalSolverCache *globalTier() const { return Global; }

  /// Attaches a cooperative cancellation token. Every satisfiability
  /// query this context answers itself — i.e. everything fuelUsed()
  /// charges: local computations AND local cache hits, but not queries
  /// the shared global tier answered — charges the token by one, so a
  /// program-wide budget is enforced exactly at query granularity.
  /// Attach before the context issues queries (read without the
  /// context mutex, like the global tier). Pass nullptr to detach.
  void attachCancellation(CancellationToken *T) { Cancel = T; }

  /// True when an attached token has exceeded its budget. The
  /// inference loops poll this between steps and bail out gracefully
  /// (remaining unknowns finalize to MayLoop).
  bool cancelled() const;

  /// The deterministic end-of-program merge: offers this context's sat
  /// entries (most-recently-used first) and full DNF skeletons to the
  /// global tier, first-writer-wins within the tier's current
  /// generation. Entries this context was served from the tier's
  /// previous generation are offered too (a tier hit installs locally),
  /// which is what re-promotes still-hot entries across the tier's
  /// capacity rotations. Safe to call concurrently with other contexts'
  /// queries and promotions.
  void promoteTo(GlobalSolverCache &G) const;

  /// The process-wide default context behind the legacy static facade.
  /// Internally synchronized; fine for tests and single-analysis use,
  /// but parallel analyses should use per-group contexts.
  static SolverContext &defaultCtx();

private:
  struct CacheEntry {
    InternedConj Key;
    Tri Val;
  };

  /// One memo slot. An Overflow entry remembers that expansion blew
  /// the ComputedCap clause cap (valid for any retrieval cap <=
  /// ComputedCap).
  struct DnfEntry {
    const FormulaNode *Key = nullptr;
    std::shared_ptr<const DnfPayload> Payload;
    size_t ComputedCap = 0;
    bool Overflow = false;
  };

  /// The rungs below every cache: the interval prefilter, then Omega
  /// when the prefilter cannot decide. Counts an interval answer in
  /// IntervalUnsat/IntervalSat; the caller has already counted and
  /// charged the query.
  Tri computeSat(const ConstraintConj &Conj);

  size_t Capacity;
  size_t DnfCapacity;
  /// The shared tier consulted on local misses; not owned. Set before
  /// first use (see attachGlobalTier), read without holding Mu.
  GlobalSolverCache *Global = nullptr;
  /// Cooperative budget token charged per answered query; not owned.
  /// Set before first use, read without holding Mu.
  CancellationToken *Cancel = nullptr;

  mutable std::mutex Mu;
  SolverStats Counters;
  /// LRU order: front = most recently used.
  std::list<CacheEntry> Lru;
  std::unordered_map<InternedConj, std::list<CacheEntry>::iterator,
                     InternedConjHash>
      Cache;
  std::list<DnfEntry> DnfLru;
  std::unordered_map<const FormulaNode *, std::list<DnfEntry>::iterator>
      DnfMemo;
};

} // namespace tnt

#endif // TNT_SOLVER_SOLVERCONTEXT_H
