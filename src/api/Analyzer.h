//===- api/Analyzer.h - Public analysis facade ------------------*- C++ -*-===//
//
// Part of the hiptntpp project: a reproduction of "Termination and
// Non-Termination Specification Inference" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The HipTNT+ pipeline end to end: parse -> resolve -> lower loops ->
/// call-graph SCCs bottom-up -> per group {forward verification
/// (Section 4), solve (Section 5), re-verification (Section 6)} ->
/// per-method case-based summaries and a whole-program verdict.
///
/// Typical use:
/// \code
///   AnalysisResult R = analyzeProgram(Source);
///   for (const MethodResult &M : R.Methods)
///     std::cout << M.Summary.str();
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef TNT_API_ANALYZER_H
#define TNT_API_ANALYZER_H

#include "infer/CondTerm.h"
#include "infer/Solve.h"
#include "spec/Spec.h"

#include <string>
#include <vector>

namespace tnt {

class SpecStore;

/// Analyzer configuration; the baselines reconfigure these knobs.
struct AnalyzerConfig {
  SolveOptions Solve;
  /// Process call-graph SCCs bottom-up and reuse summaries (the paper's
  /// modular mode). When false, all methods are solved as one group —
  /// the monolithic whole-program regime of classical provers.
  bool Modular = true;
  /// Analysis fuel in solver queries; 0 = unlimited. A run whose fuel
  /// consumption exceeds the budget is classified Timeout, emulating
  /// the 300 s wall-clock limit of the evaluation on a deterministic
  /// resource measure. A group replayed from the spec store issues no
  /// queries, so it charges nothing.
  uint64_t FuelBudget = 0;
  /// When true, an inference that hit its internal limits (group fuel,
  /// deadline, MAX_ITER) with an undecided entry is classified Timeout.
  /// The paper's tool bails out gracefully via MAX_ITER and answers U;
  /// the comparator classes run until killed — their stand-ins set this.
  bool BailoutIsTimeout = false;
  /// Worker threads for the bottom-up SCC scheduler. Independent
  /// call-graph SCC groups (no call path between them) are analyzed
  /// concurrently, each on its own SolverContext / unknown registry /
  /// fresh-variable block, so results are byte-identical for any thread
  /// count. 1 keeps the classical sequential schedule. With a nonzero
  /// FuelBudget and Threads > 1, the cooperative budget token is
  /// charged by whichever group issues each query, so WHICH work the
  /// exact cutoff truncates can depend on scheduling (serial runs cut
  /// at the same query every time).
  unsigned Threads = 1;
  /// Optional persistent spec store (store/SpecStore.h). When set, the
  /// pipeline consults it before running each SCC group — a hit
  /// rehydrates the stored summaries and skips verification and
  /// inference entirely — and inserts every deterministic completed
  /// group after running it. Not owned; must outlive the analysis.
  SpecStore *Store = nullptr;
};

/// Result for one method spec scenario.
struct MethodResult {
  std::string Method;
  unsigned SpecIdx = 0;
  TntSummary Summary;
  /// Safety verification (pre/post/memory) failed; summary is MayLoop.
  bool SafetyFailed = false;
  /// The inferred specification was re-verified (Section 6).
  bool ReVerified = false;
};

/// Whole-program outcome in the evaluation's terms.
enum class Outcome { Yes, No, Unknown, Timeout };

const char *outcomeStr(Outcome O);

/// The full analysis result.
struct AnalysisResult {
  bool Ok = false;             ///< Parse/resolve/lowering succeeded.
  std::string Diagnostics;     ///< Rendered diagnostics when !Ok.
  std::vector<MethodResult> Methods;
  double Millis = 0;           ///< Wall-clock analysis time.
  /// Solver queries charged to this program: all queries it issued
  /// (SolverStats::fuelUsed).
  uint64_t FuelUsed = 0;
  bool OverBudget = false;     ///< FuelBudget exceeded.
  bool BailedOut = false;      ///< Internal limits forced a finalize.
  bool TreatBailAsTimeout = false; ///< From the config (see above).
  /// Merged per-context solver counters (root context + every group
  /// context), for --stats and the perf benches.
  SolverStats SolverUsage;
  /// Number of SCC groups scheduled.
  size_t GroupCount = 0;
  /// Groups served by the spec store (summaries rehydrated, no
  /// inference ran). Always 0 without an attached store.
  size_t GroupsFromStore = 0;
  /// Conditional-termination counters, merged over all groups (zero
  /// unless Solve.EnableCondTerm). Store-served groups rehydrate their
  /// conditions without re-running the pass but fold in the producer
  /// run's audited counters from the entry's "ct" record, so warm and
  /// cold runs report the same numbers.
  CondTermStats CondTerm;

  const MethodResult *find(const std::string &Method,
                           unsigned SpecIdx = 0) const;

  /// Classification of the entry method (default "main"): Yes when its
  /// every case terminates, No when every case loops, Unknown otherwise
  /// (per the competition rules the conditional answers count as
  /// Unknown for whole-program verdicts); Timeout when over budget.
  Outcome outcome(const std::string &Entry = "main") const;

  std::string str() const;
};

/// Runs the full pipeline on a source program.
AnalysisResult analyzeProgram(const std::string &Source,
                              const AnalyzerConfig &Config = {});

} // namespace tnt

#endif // TNT_API_ANALYZER_H
