//===- solver/GlobalCache.h - Shared read-mostly solver tier ---*- C++ -*-===//
//
// Part of the hiptntpp project: a reproduction of "Termination and
// Non-Termination Specification Inference" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The global tier of the two-tier solver cache used by batch analysis
/// and the analysis server. A GlobalSolverCache sits UNDER the
/// per-context LRU tier of SolverContext: contexts consult it on a
/// local miss and never write to it directly — entries enter only
/// through an explicit merge (SolverContext::promoteTo), which the
/// drivers perform once per finished program, in deterministic group
/// order.
///
/// Why sharing is sound and deterministic:
///
///  * Satisfiability of an interned conjunction is a pure function of
///    the conjunction's structure (Omega is deterministic and VarIds
///    are just names to it), so any two computations of the same key
///    agree and a hit is indistinguishable from a recomputation.
///  * A DNF payload for a formula node is unique up to the placeholder
///    variables toNNF minted: placeholder count, bases and order are a
///    function of the node alone, and every retrieval re-freshens them,
///    so a hit is byte-identical to a recomputation after renaming —
///    whichever program's computation happened to be promoted first.
///
/// Capacity policy: GENERATION ROTATION. Each map keeps two
/// generations, current and previous. Merges insert-if-absent into the
/// current generation; when it reaches capacity the current generation
/// becomes the previous one (whose old contents are discarded) and
/// inserts continue into a fresh current map — at most one such
/// rotation per merge call, so a single oversized merge (entries
/// arrive most-recently-used first) keeps its hottest entries and
/// declines its coldest tail rather than rotating the hot ones away.
/// Lookups consult both generations. A previous-generation entry that
/// is still useful gets re-promoted naturally: the context that hit
/// it installed it in its local tier, and that context's
/// end-of-program merge offers it back to the current generation. So
/// hot entries survive rotation and a long-lived server analyzing
/// fresh corpora keeps benefiting, while the total footprint is
/// bounded by two generations (the freeze-at-capacity policy this
/// replaces stopped admitting entries forever once full). Residency —
/// which keys happen to be resident when — can depend on merge
/// arrival order under a parallel batch, exactly as it could at
/// capacity before; that affects hit *rates* only, never answers,
/// because every writer agrees on every key's value.
///
//===----------------------------------------------------------------------===//

#ifndef TNT_SOLVER_GLOBALCACHE_H
#define TNT_SOLVER_GLOBALCACHE_H

#include "solver/SolverContext.h"

#include <atomic>
#include <optional>
#include <shared_mutex>

namespace tnt {

/// Aggregate counters of a GlobalSolverCache. Lookup counters are
/// monotone totals over every attached context; entry counts are a
/// snapshot.
struct GlobalCacheStats {
  uint64_t SatLookups = 0;
  uint64_t SatHits = 0;
  uint64_t DnfLookups = 0;
  uint64_t DnfHits = 0;
  /// Hits answered from the previous generation (subset of *Hits).
  uint64_t SatPrevHits = 0;
  uint64_t DnfPrevHits = 0;
  /// Hits answered from an imported persistent snapshot (subset of
  /// SatHits).
  uint64_t SatSnapshotHits = 0;
  /// Resident imported snapshot entries.
  size_t SatSnapshotEntries = 0;
  /// Always 0. The unsat-core lemma tier is gone; these two fields and
  /// GlobalSolverCache::exportLemmas/importLemmaSnapshot stay only
  /// because perfbench/driver.cpp names them and only a benchmark
  /// change may edit that file; that change removes all four. Nothing
  /// else may use them.
  uint64_t CoreProbes = 0;
  uint64_t LemmaHits = 0;
  /// Entries accepted by merges (first-writer-wins inserts).
  uint64_t SatInserts = 0;
  uint64_t DnfInserts = 0;
  /// Generation rotations performed at capacity.
  uint64_t SatRotations = 0;
  uint64_t DnfRotations = 0;
  /// Current-generation entries.
  size_t SatEntries = 0;
  size_t DnfEntries = 0;
  /// Previous-generation entries (some may shadow current ones).
  size_t SatPrevEntries = 0;
  size_t DnfPrevEntries = 0;

  double satHitRate() const {
    return SatLookups ? double(SatHits) / double(SatLookups) : 0.0;
  }
  double dnfHitRate() const {
    return DnfLookups ? double(DnfHits) / double(DnfLookups) : 0.0;
  }
};

/// The read-mostly global cache tier shared by all SolverContexts of a
/// batch run or analysis server. Internally synchronized: lookups take
/// a shared lock, merges an exclusive one.
class GlobalSolverCache {
public:
  static constexpr size_t DefaultSatCapacity = 1u << 20;
  static constexpr size_t DefaultDnfCapacity = 1u << 16;

  explicit GlobalSolverCache(size_t SatCapacity = DefaultSatCapacity,
                             size_t DnfCapacity = DefaultDnfCapacity);
  ~GlobalSolverCache();

  GlobalSolverCache(const GlobalSolverCache &) = delete;
  GlobalSolverCache &operator=(const GlobalSolverCache &) = delete;

  /// Number of GlobalSolverCache instances currently alive in the
  /// process. Tier maps key on interned pointers, so the analysis
  /// server's epoch reclaimer — whose root set is ITS tier only —
  /// must stand down whenever any other tier instance exists (its
  /// keys would be swept, and a later re-intern at a recycled address
  /// could alias a stale entry).
  static size_t liveCount();

  /// Satisfiability answer for an interned conjunction, if promoted
  /// (either generation) or present in the imported snapshot.
  std::optional<Tri> lookupSat(const InternedConj &Key);

  /// Promoted DNF payload for an interned formula node, if any. Only
  /// full (non-overflow) skeletons are ever promoted, so a payload
  /// answers any clause cap: success when it fits, overflow otherwise.
  std::shared_ptr<const DnfPayload> lookupDnf(const FormulaNode *Key);

  /// Merges sat entries into the current generation, first-writer-wins,
  /// rotating generations when it fills (see file comment). The caller
  /// presents entries in a deterministic order (promoteTo uses
  /// most-recently-used first); below capacity the current generation
  /// is a set-union of the promoted entries, independent of merge
  /// arrival order, because all writers agree on every key's value.
  void mergeSat(const std::vector<std::pair<InternedConj, Tri>> &Entries);

  /// Same contract for DNF skeletons (alpha-equivalent payloads; see
  /// file comment).
  void mergeDnf(
      const std::vector<std::pair<const FormulaNode *,
                                  std::shared_ptr<const DnfPayload>>> &Entries);

  /// Name-canonical serialization of a sat key: per-constraint
  /// strings (relation, terms sorted by variable SPELLING, constant),
  /// sorted and joined. A pure function of the conjunction's shape and
  /// spellings — independent of VarIds, intern addresses and pool
  /// history — so two processes agree on every key. This is the key
  /// form of the persistent solver snapshot.
  static std::string satKeyCanon(const InternedConj &Key);

  /// Inert: see GlobalCacheStats::CoreProbes.
  void importLemmaSnapshot(const std::vector<std::vector<std::string>> &) {}
  std::vector<std::vector<std::string>> exportLemmas() const { return {}; }

  /// Installs a persistent snapshot (from a spec store file) as a
  /// read-only THIRD lookup level under both generations: a lookupSat
  /// miss re-canonicalizes the query by name and consults it. A
  /// snapshot hit behaves exactly like a generation hit (counted in
  /// SatHits, installed in the querying context's local tier, offered
  /// back to the current generation by that context's end-of-program
  /// merge) — satisfiability is a pure function of the conjunction, so
  /// the tier stays semantically transparent. Call before attaching
  /// contexts; replaces any previous snapshot.
  void importSatSnapshot(
      const std::vector<std::pair<std::string, Tri>> &Entries);

  /// Exports the resident sat entries in name-canonical form — both
  /// generations, plus imported snapshot entries not shadowed by a
  /// resident key filling the remaining room — capped at 2 * SatCap
  /// (the tier's own two-generation retention bound, so repeated
  /// import/export cycles cannot grow the store file without limit)
  /// and sorted by key for deterministic files.
  std::vector<std::pair<std::string, Tri>> exportSatSnapshot() const;

  /// Appends every interned pointer either generation still references
  /// — sat-key constraints and DNF-key formula nodes — to \p Out. The
  /// analysis server passes the result to ArithIntern::reclaim as the
  /// retained root set: everything the tier can still serve survives
  /// the epoch, everything else was per-request garbage.
  void collectRoots(EpochRoots &Out) const;

  GlobalCacheStats stats() const;
  /// Distinct resident keys across both generations.
  size_t satSize() const;
  size_t dnfSize() const;
  size_t satCapacity() const { return SatCap; }
  size_t dnfCapacity() const { return DnfCap; }

private:
  size_t SatCap;
  size_t DnfCap;

  mutable std::shared_mutex Mu;
  using SatMap = std::unordered_map<InternedConj, Tri, InternedConjHash>;
  using DnfMap =
      std::unordered_map<const FormulaNode *,
                         std::shared_ptr<const DnfPayload>>;
  SatMap Sat, SatPrev;
  DnfMap Dnf, DnfPrev;
  /// satKeyCanon of every resident sat key, captured AT MERGE TIME and
  /// rotated in lockstep with Sat/SatPrev. Canonicalization renders
  /// variable spellings, and under per-request VarPool sessions a
  /// spelling is only resolvable while the producing session is alive
  /// — mergeSat runs inside it, exportSatSnapshot (a server save,
  /// arbitrarily later) does not. Capturing the canon at insert makes
  /// the export independent of any session's lifetime. (A key merged
  /// by session A and re-merged by session B keeps A's canon string;
  /// both render alpha-equivalent constraint systems, and
  /// satisfiability is invariant under renaming, so either string is a
  /// correct snapshot key for the entry's answer.)
  using CanonMap =
      std::unordered_map<InternedConj, std::string, InternedConjHash>;
  CanonMap SatCanon, SatCanonPrev;
  /// Imported persistent snapshot, keyed by satKeyCanon form. Written
  /// once at import, read-only afterwards (epoch reclamation never has
  /// to see it: it holds no interned pointers).
  std::unordered_map<std::string, Tri> Snapshot;

  // Lookup counters are atomics so the shared-lock read path never
  // needs the exclusive lock.
  std::atomic<uint64_t> SatLookupsN{0}, SatHitsN{0};
  std::atomic<uint64_t> DnfLookupsN{0}, DnfHitsN{0};
  std::atomic<uint64_t> SatPrevHitsN{0}, DnfPrevHitsN{0};
  std::atomic<uint64_t> SatSnapshotHitsN{0};
  std::atomic<uint64_t> SatInsertsN{0}, DnfInsertsN{0};
  std::atomic<uint64_t> SatRotationsN{0}, DnfRotationsN{0};
};

} // namespace tnt

#endif // TNT_SOLVER_GLOBALCACHE_H
