//===- support/Metrics.h - Process-wide metrics registry -------*- C++ -*-===//
//
// Part of the hiptntpp project: a reproduction of "Termination and
// Non-Termination Specification Inference" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide registry of named counters, gauges, and fixed-bucket
/// log-scale histograms, plus a deterministic-order JSON snapshot.
///
/// Design constraints, in order:
///
///  1. OUT-OF-BAND. Nothing in this file may influence analysis
///     results: metrics never allocate VarIds, never touch interned
///     structures, and are never read by inference code. Analysis
///     output is byte-identical with metrics hot or cold.
///
///  2. LOCK-CHEAP HOT PATH. Instruments are created once under a
///     registry mutex and then updated with relaxed atomics only.
///     Call sites hold a `Counter &` / `Histogram &` handle (usually a
///     function-local static or a member), so the steady state is one
///     atomic RMW per event — no lock, no hashing, no allocation.
///     Handles are never invalidated: instruments live in node-stable
///     containers and the registry only grows.
///
///  3. DETERMINISTIC EXPORT. snapshotJson() renders instruments in
///     name-sorted order with stable field order, so two snapshots of
///     the same state are byte-identical — schema pins in tests stay
///     meaningful.
///
/// Histograms use log2 buckets: bucket 0 holds value 0, bucket i>=1
/// holds values v with 2^(i-1) <= v < 2^i (i.e. bit_width(v) == i),
/// clamped to the last bucket. Each histogram also tracks count, sum,
/// min, and max exactly, so means and extremes never suffer bucket
/// quantization.
///
/// The registry is also the bridge point for the pre-existing stat
/// structs (`SolverStats`, `CondTermStats`, server/store counters):
/// callers fold them in as gauges under a shared prefix (see
/// api/MetricsBridge.h, used by BatchAnalyzer::run and
/// AnalysisServer::metricsJson), which makes every number the system
/// already tracks exportable from this one snapshot.
///
//===----------------------------------------------------------------------===//

#ifndef TNT_SUPPORT_METRICS_H
#define TNT_SUPPORT_METRICS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace tnt {
namespace metrics {

/// A monotonically increasing counter.
class Counter {
public:
  void add(uint64_t Delta = 1) { V.fetch_add(Delta, std::memory_order_relaxed); }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }
  void resetForTest() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> V{0};
};

/// A last-writer-wins signed gauge.
class Gauge {
public:
  void set(int64_t Value) { V.store(Value, std::memory_order_relaxed); }
  int64_t value() const { return V.load(std::memory_order_relaxed); }

private:
  std::atomic<int64_t> V{0};
};

/// Fixed-bucket log2 histogram; see the file comment for the bucket
/// scheme. All updates are relaxed atomics: concurrent observes are
/// safe, and a snapshot taken during updates is approximately (not
/// transactionally) consistent — fine for telemetry, documented so
/// tests quiesce first.
class Histogram {
public:
  static constexpr unsigned NumBuckets = 48;

  /// The bucket a value lands in: 0 for 0, else bit_width(v) clamped.
  static unsigned bucketOf(uint64_t Value) {
    unsigned W = 0;
    while (Value != 0) {
      ++W;
      Value >>= 1;
    }
    return W < NumBuckets ? W : NumBuckets - 1;
  }

  /// Inclusive lower bound of bucket \p I (0, 1, 2, 4, 8, ...).
  static uint64_t bucketLo(unsigned I) {
    return I == 0 ? 0 : (uint64_t{1} << (I - 1));
  }

  void observe(uint64_t Value);
  uint64_t count() const { return N.load(std::memory_order_relaxed); }
  uint64_t sum() const { return Sum.load(std::memory_order_relaxed); }
  /// Min over observed values; 0 when empty.
  uint64_t min() const;
  uint64_t max() const { return Max.load(std::memory_order_relaxed); }
  uint64_t bucketCount(unsigned I) const {
    return Buckets[I].load(std::memory_order_relaxed);
  }
  void resetForTest();

private:
  std::atomic<uint64_t> Buckets[NumBuckets] = {};
  std::atomic<uint64_t> N{0};
  std::atomic<uint64_t> Sum{0};
  std::atomic<uint64_t> Min{UINT64_MAX};
  std::atomic<uint64_t> Max{0};
};

/// The process-wide registry. Instrument lookup takes a mutex; keep
/// the returned reference (it is stable forever) and update through
/// it.
class Registry {
public:
  static Registry &get();

  Counter &counter(const std::string &Name);
  Gauge &gauge(const std::string &Name);
  Histogram &histogram(const std::string &Name);

  /// Convenience: one-shot update without holding a handle (takes the
  /// registry mutex; fine for cold paths like bridges).
  void setGauge(const std::string &Name, int64_t Value) {
    gauge(Name).set(Value);
  }

  /// Deterministic-order JSON snapshot:
  ///   {"counters":{...},"gauges":{...},
  ///    "histograms":{"name":{"count":C,"sum":S,"min":m,"max":M,
  ///                          "buckets":[[lo,count],...]},...}}
  /// Instruments sorted by name; only non-empty buckets listed, in
  /// ascending order.
  std::string snapshotJson() const;

  /// Zeroes every counter/gauge/histogram (instruments stay
  /// registered, handles stay valid). Test-only: racing a reset with
  /// live updates gives torn totals.
  void resetForTest();

private:
  Registry() = default;
  mutable std::mutex Mu;
  // std::map: node-stable (handles survive growth) and already
  // name-sorted for the snapshot.
  std::map<std::string, Counter> Counters;
  std::map<std::string, Gauge> Gauges;
  std::map<std::string, Histogram> Histograms;
};

} // namespace metrics
} // namespace tnt

#endif // TNT_SUPPORT_METRICS_H
