//===- api/MetricsBridge.cpp ----------------------------------*- C++ -*-===//

#include "api/MetricsBridge.h"

#include "infer/CondTerm.h"
#include "solver/GlobalCache.h"
#include "solver/SolverContext.h"
#include "store/SpecStore.h"
#include "support/Metrics.h"

using namespace tnt;

namespace {

void put(const std::string &Prefix, const char *Name, uint64_t V) {
  metrics::Registry::get().setGauge(Prefix + Name,
                                    static_cast<int64_t>(V));
}

} // namespace

void tnt::bridgeSolverStats(const std::string &Prefix, const SolverStats &S) {
  put(Prefix, "sat_queries", S.SatQueries);
  put(Prefix, "cache_hits", S.CacheHits);
  put(Prefix, "cache_misses", S.CacheMisses);
  put(Prefix, "cache_evictions", S.CacheEvictions);
  put(Prefix, "lp_solves", S.LpSolves);
  put(Prefix, "lp_pivots", S.LpPivots);
  put(Prefix, "lp_overflows", S.LpOverflows);
  put(Prefix, "dnf_queries", S.DnfQueries);
  put(Prefix, "dnf_hits", S.DnfHits);
  put(Prefix, "dnf_misses", S.DnfMisses);
  put(Prefix, "dnf_evictions", S.DnfEvictions);
  put(Prefix, "global_sat_hits", S.GlobalSatHits);
  put(Prefix, "global_dnf_hits", S.GlobalDnfHits);
  put(Prefix, "interval_unsat", S.IntervalUnsat);
  put(Prefix, "interval_sat", S.IntervalSat);
  put(Prefix, "fuel_used", S.fuelUsed());
}

void tnt::bridgeGlobalCacheStats(const std::string &Prefix,
                                 const GlobalCacheStats &S) {
  put(Prefix, "sat_lookups", S.SatLookups);
  put(Prefix, "sat_hits", S.SatHits);
  put(Prefix, "dnf_lookups", S.DnfLookups);
  put(Prefix, "dnf_hits", S.DnfHits);
  put(Prefix, "sat_prev_hits", S.SatPrevHits);
  put(Prefix, "dnf_prev_hits", S.DnfPrevHits);
  put(Prefix, "sat_snapshot_hits", S.SatSnapshotHits);
  put(Prefix, "sat_snapshot_entries", S.SatSnapshotEntries);
  put(Prefix, "sat_inserts", S.SatInserts);
  put(Prefix, "dnf_inserts", S.DnfInserts);
  put(Prefix, "sat_rotations", S.SatRotations);
  put(Prefix, "dnf_rotations", S.DnfRotations);
  put(Prefix, "sat_entries", S.SatEntries);
  put(Prefix, "dnf_entries", S.DnfEntries);
  put(Prefix, "sat_prev_entries", S.SatPrevEntries);
  put(Prefix, "dnf_prev_entries", S.DnfPrevEntries);
}

void tnt::bridgeCondTermStats(const std::string &Prefix,
                              const CondTermStats &S) {
  put(Prefix, "emitted", S.Emitted);
  put(Prefix, "sound", S.Sound);
  put(Prefix, "demoted", S.Demoted);
  put(Prefix, "non_trivial", S.NonTrivial);
  put(Prefix, "leaves_certified", S.LeavesCertified);
}

void tnt::bridgeSpecStoreStats(const std::string &Prefix,
                               const SpecStoreStats &S) {
  put(Prefix, "entries", S.Entries);
  put(Prefix, "loaded_groups", S.LoadedGroups);
  put(Prefix, "hits", S.Hits);
  put(Prefix, "misses", S.Misses);
  put(Prefix, "inserts", S.Inserts);
  put(Prefix, "bytes", S.Bytes);
  put(Prefix, "refused", S.Refused);
  put(Prefix, "sat_snapshot_entries", S.SatSnapshotEntries);
  put(Prefix, "load_discarded", S.LoadDiscarded ? 1 : 0);
}
