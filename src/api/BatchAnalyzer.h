//===- api/BatchAnalyzer.h - Corpus-scale batch analysis --------*- C++ -*-===//
//
// Part of the hiptntpp project: a reproduction of "Termination and
// Non-Termination Specification Inference" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Batch analysis of a program corpus — the regime of the paper's
/// evaluation (Fig. 10 runs four SV-COMP'15 families, Fig. 11 runs 221
/// loop-based programs) and of the ROADMAP's analysis-server north
/// star. A BatchAnalyzer keeps many analyzeProgram pipelines in flight
/// at once: every program's front end and SCC-group tasks are
/// scheduled on ONE work-stealing pool (the thread budget is shared
/// across programs × groups, so a wide corpus of small programs
/// saturates the pool even though each program alone has little
/// parallelism). What a batch shares across programs is whole group
/// summaries, through the spec store (in-run dedup below); every
/// group's solver context is its own.
///
/// Determinism: per-program results are byte-identical for any thread
/// count. Each program runs inside its own
/// VarPool::Session lease (the same mechanism PR 9's concurrent server
/// uses per request): a virgin, private pool view in which the program
/// prepares under root block 0 and runs group G on block G + 1 —
/// exactly the single-program schedule — so every id and spelling it
/// mints is positional, a pure function of that program alone. Group
/// results are joined in group order, and a group's solver context is
/// private and caches nothing, so nothing observable depends on
/// scheduling. Block overflow (an oversized program) falls
/// back to the SESSION's id region, which is equally positional — the
/// old shared-pool carve-out ("overflow tail loses byte-determinism")
/// is retired; see tests/VarPoolOverflowTest.cpp. The remaining
/// carve-outs are the single-program scheduler's: timing stats and —
/// with a nonzero FuelBudget — which groups a budget cutoff skips.
///
/// Sessions also make store keys position-independent ACROSS programs:
/// every program's groups are keyed under the same root-0 numbering,
/// so content-identical groups at the same group index in different
/// programs share one spec-store entry.
///
/// In-run dedup. A batch infers each content key once: without a
/// caller store, run() attaches an in-memory SpecStore that lives for
/// that call only, and every group task goes through per-key
/// singleflight. The first group to reach a key with no entry runs it;
/// later groups with the key park without holding a worker, and the
/// leader resubmits them once its run returns, so they rehydrate the
/// entry it inserted. When the leader stored nothing (budget cut,
/// fallback ids, a fresh variable in its summaries) the first
/// resubmitted group leads instead. Every group looks its key up in
/// the live store, whether the entry was there when the run started or
/// a sibling's leader inserted it since; each key is inferred once
/// either way, so the hit/miss split is the same at any thread count.
/// An entry is a pure function of its key and names no fresh variable
/// (store/SpecSerial.h), so which program leads never shows in the
/// rendered outcomes. Which program pays for a key's solver work does
/// depend on scheduling; with a nonzero FuelBudget it can move a
/// budget cutoff.
///
/// Each BatchProgramResult OWNS its session: rendering resolves VarIds
/// through the session that built the result, so renderOutcomes() (and
/// any caller that stringifies result formulas) re-activates the
/// owning program's lease. Verdicts and counts need no session.
///
//===----------------------------------------------------------------------===//

#ifndef TNT_API_BATCHANALYZER_H
#define TNT_API_BATCHANALYZER_H

#include "api/Analyzer.h"
#include "arith/Var.h"
#include "solver/GlobalCache.h"

#include <memory>
#include <string>
#include <vector>

namespace tnt {

/// One program of a batch. Ground truth, when the caller knows it,
/// stays on the caller's side (see workloads/Corpus.h) — the batch
/// engine is truth-agnostic.
struct BatchItem {
  std::string Name;
  std::string Category; ///< Fig. 10 family; free-form for directories.
  std::string Source;
  std::string Entry = "main";
};

/// The batch default for per-program knobs: standard configuration
/// with the per-group wall-clock deadline DISABLED and a tighter
/// per-group fuel bound in its place. A wall-clock cutoff is
/// inherently schedule-dependent — under pool contention a group's
/// wall time depends on what else is running — and would break
/// byte-identical batch results across thread counts (and machines).
/// The fuel bound is the deterministic stand-in: single-program mode
/// pairs GroupFuel 15000 with the 5 s deadline as a backstop for
/// expensive queries; without that backstop the hard corpus families
/// (step-miss ladders, hard-ladder) burn the full 15000 on costly
/// dark-shadow queries for minutes per group. Batch mode bounds
/// groups at 800 queries instead: on the full benchmark corpus every
/// per-category outcome count is IDENTICAL to the 15000-fuel
/// configuration (measured at 800 / 1500 / 3000) — the hard groups
/// burn their extra fuel on case-split iterations that never conclude
/// — while the whole corpus analyzes in seconds, keeping the
/// full-corpus golden test suite-sized.
inline AnalyzerConfig batchProgramConfig() {
  AnalyzerConfig C;
  C.Solve.GroupDeadlineMs = 0;
  C.Solve.GroupFuel = 800;
  return C;
}

/// Batch configuration.
struct BatchOptions {
  /// Per-program analyzer knobs. The Threads field is ignored — the
  /// pool below is the only thread budget; FuelBudget applies per
  /// program. Callers that re-enable Solve.GroupDeadlineMs give up the
  /// byte-identical determinism contract.
  AnalyzerConfig Program = batchProgramConfig();
  /// Worker threads shared by all programs' group tasks.
  unsigned Threads = 1;
  /// Inert: nothing reads it (see solver/GlobalCache.h). It stays only
  /// because perfbench/driver.cpp sets it; nothing else may use it.
  bool GlobalTier = true;
  /// Optional persistent spec store shared by every program of the
  /// batch (overrides Program.Store). This is the INCREMENTAL mode:
  /// re-analyzing a corpus after edits re-runs only the changed groups
  /// and their transitive callers — every other group's key still hits
  /// the store. Not owned; must outlive the analyzer. Without one,
  /// each run() uses a private in-memory store for in-run dedup.
  SpecStore *Store = nullptr;
  /// Capture per-group profile rows (BatchResult::Profile) for the
  /// --profile top-N slowest-groups table. Off by default: profiling
  /// is out-of-band observability — it never changes analysis output —
  /// but the capture itself is skipped entirely when nobody asks.
  bool Profile = false;
};

/// One program's outcome within a batch.
struct BatchProgramResult {
  std::string Name;
  std::string Category;
  std::string Entry;
  AnalysisResult Result;
  Outcome Verdict = Outcome::Unknown;
  /// The VarPool lease this program's analysis ran under. Kept alive
  /// with the result because rendering resolves VarId spellings
  /// through the session that minted them (renderOutcomes activates
  /// it per program). Shared so results stay copyable.
  std::shared_ptr<VarPool::Session> Session;
};

/// One group's profile row (BatchOptions::Profile): where the batch's
/// wall-clock and solver work went. Timing fields are observational —
/// they vary run to run and are deliberately excluded from every
/// byte-determinism witness.
struct GroupProfile {
  std::string Program;   ///< BatchItem name.
  size_t ProgramIdx = 0; ///< Batch input index (deterministic tiebreak).
  size_t Group = 0;      ///< SCC-group index within the program.
  std::string Key;       ///< Store content key.
  double Millis = 0;     ///< Group task wall-clock.
  bool FromStore = false;
  uint64_t SatQueries = 0;
  uint64_t DnfQueries = 0;
};

/// Per-category outcome counts — one row of the Fig. 10 table.
struct CategoryCounts {
  unsigned Programs = 0;
  unsigned Yes = 0, No = 0, Unknown = 0, Timeout = 0;
  /// Programs with at least one scenario publishing a non-trivial
  /// termination condition (conditional-termination mode; always 0
  /// otherwise). Computed from the published summaries, so warm-store
  /// replays count identically to cold runs.
  unsigned Cond = 0;
  double Millis = 0; ///< Summed per-program group-task time.
};

/// The whole batch's results, in input order.
struct BatchResult {
  std::vector<BatchProgramResult> Programs;
  double Millis = 0;        ///< Wall-clock time of the whole batch.
  SolverStats Usage;        ///< Merged per-program solver counters.
  /// Inert: always zero (see solver/GlobalCache.h). It stays only
  /// because perfbench/driver.cpp reads it; nothing else may use it.
  GlobalCacheStats Global;
  unsigned Threads = 1;
  /// Groups served from / re-run against the spec store across the
  /// whole batch (sums of per-program GroupsFromStore and the store's
  /// miss count delta). Without a caller store they count the run's
  /// in-run dedup: StoreMisses groups ran inference, StoreHits groups
  /// replayed an entry inserted earlier in the run.
  uint64_t StoreHits = 0;
  uint64_t StoreMisses = 0;
  /// Conditional-termination mode: set from the batch options; adds
  /// the Cond column to table(). Off keeps the table bytes identical
  /// to previous releases.
  bool CondTermEnabled = false;
  /// Merged per-program conditional-termination counters (inference
  /// side; zero for store-served groups — see AnalysisResult).
  CondTermStats CondTerm;
  /// Per-group profile rows in (program, group) order; empty unless
  /// BatchOptions::Profile.
  std::vector<GroupProfile> Profile;

  /// Categories in first-appearance order with their outcome counts.
  std::vector<std::pair<std::string, CategoryCounts>> perCategory() const;

  /// Fig. 10/11-style table: one row per category plus a total row.
  std::string table() const;

  /// Deterministic rendering of every program's verdict and summary,
  /// in input order — the byte-identity witness of the determinism
  /// tests (excludes times and cache statistics by construction).
  /// Re-activates each program's session lease to resolve spellings.
  std::string renderOutcomes() const;

  /// The --profile view: the top-\p TopN slowest groups (Millis
  /// descending; (program index, group) ascending as the deterministic
  /// tiebreak), with solver query counts and store attribution.
  /// Empty string when Profile was not captured.
  std::string profileTable(size_t TopN = 20) const;
};

/// Membership in the process-wide count of live analysis engines:
/// every BatchAnalyzer and every AnalysisServer holds one for its
/// whole lifetime. A server's epoch reclamation frees interned terms
/// that any other engine may still hold, so it runs only while its
/// server is the one live engine (see AnalysisServer.h).
class LiveEngine {
public:
  LiveEngine();
  ~LiveEngine();
  LiveEngine(const LiveEngine &) = delete;
  LiveEngine &operator=(const LiveEngine &) = delete;

  /// Engines alive in the process.
  static size_t count();
};

/// The batch engine. It keeps no analysis state between run() calls:
/// what carries over from one run to the next is the caller's spec
/// store (BatchOptions::Store), if any.
class BatchAnalyzer {
public:
  explicit BatchAnalyzer(BatchOptions Options = {});

  /// Analyzes every item; returns results in input order.
  BatchResult run(const std::vector<BatchItem> &Items);

  /// Inert: a stateless no-op object, never null (see
  /// solver/GlobalCache.h). It stays only because perfbench/driver.cpp
  /// calls it; nothing else may use it.
  GlobalSolverCache *globalTier() { return &InertTier; }

private:
  BatchOptions Opt;
  GlobalSolverCache InertTier;
  LiveEngine Live;
};

} // namespace tnt

#endif // TNT_API_BATCHANALYZER_H
