//===- api/MetricsBridge.cpp ----------------------------------*- C++ -*-===//

#include "api/MetricsBridge.h"

#include "infer/CondTerm.h"
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
  put(Prefix, "lp_solves", S.LpSolves);
  put(Prefix, "lp_pivots", S.LpPivots);
  put(Prefix, "lp_overflows", S.LpOverflows);
  put(Prefix, "dnf_queries", S.DnfQueries);
  put(Prefix, "fuel_used", S.fuelUsed());
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
  put(Prefix, "load_discarded", S.LoadDiscarded ? 1 : 0);
}
