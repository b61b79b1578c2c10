//===- solver/GlobalCache.h - Inert stubs of the old global tier -*- C++ -*-===//
//
// Part of the hiptntpp project: a reproduction of "Termination and
// Non-Termination Specification Inference" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What is left of the query-level global solver tier: two inert
/// types. The tier is gone — whole group summaries are reused through
/// the spec store (in-run dedup, the server's always-on store), and
/// every query the tier used to answer is recomputed by Omega through
/// SolverContext with the same result. These names stay only
/// because perfbench/driver.cpp spells them and only a benchmark
/// change may edit that file; that change removes this header.
/// Nothing else may use them.
///
//===----------------------------------------------------------------------===//

#ifndef TNT_SOLVER_GLOBALCACHE_H
#define TNT_SOLVER_GLOBALCACHE_H

#include "solver/Omega.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace tnt {

/// Inert: every field is always 0 (see the file comment).
struct GlobalCacheStats {
  uint64_t SatLookups = 0;
  uint64_t SatHits = 0;
  uint64_t CoreProbes = 0;
  uint64_t LemmaHits = 0;
};

/// Inert: stateless, and every member is a no-op (see the file
/// comment).
class GlobalSolverCache {
public:
  void importSatSnapshot(const std::vector<std::pair<std::string, Tri>> &) {}
  std::vector<std::pair<std::string, Tri>> exportSatSnapshot() const {
    return {};
  }
  void importLemmaSnapshot(const std::vector<std::vector<std::string>> &) {}
  std::vector<std::vector<std::string>> exportLemmas() const { return {}; }
};

} // namespace tnt

#endif // TNT_SOLVER_GLOBALCACHE_H
