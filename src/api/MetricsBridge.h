//===- api/MetricsBridge.h - Stat structs -> metrics registry --*- C++ -*-===//
//
// Part of the hiptntpp project: a reproduction of "Termination and
// Non-Termination Specification Inference" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bridges from the pre-existing counter structs (SolverStats,
/// CondTermStats, SpecStoreStats) into the unified
/// metrics registry (support/Metrics.h), so every number the system
/// already tracks is exportable from the registry's one snapshot — the
/// `metrics` server verb and `hiptnt --trace-out` companions.
///
/// The bridges live HERE, not in support/Metrics, because support/ is
/// dependency-free: the registry knows names and numbers, the bridge
/// knows the structs. Each bridge writes gauges under a caller-chosen
/// prefix ("solver.", "spec_store.", ...) — gauges, not counters, because
/// the structs are themselves cumulative snapshots (last write wins is
/// the correct fold). Bridging is a cold-path operation (end of a
/// batch run, a metrics/stats verb); it takes the registry mutex per
/// name and never runs inside analysis.
///
//===----------------------------------------------------------------------===//

#ifndef TNT_API_METRICSBRIDGE_H
#define TNT_API_METRICSBRIDGE_H

#include <string>

namespace tnt {

struct SolverStats;
struct CondTermStats;
struct SpecStoreStats;

/// Exports \p S as gauges "<Prefix>sat_queries", "<Prefix>lp_solves",
/// ... (one per struct field, snake_cased).
void bridgeSolverStats(const std::string &Prefix, const SolverStats &S);
void bridgeCondTermStats(const std::string &Prefix, const CondTermStats &S);
void bridgeSpecStoreStats(const std::string &Prefix, const SpecStoreStats &S);

} // namespace tnt

#endif // TNT_API_METRICSBRIDGE_H
