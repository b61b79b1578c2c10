//===- api/Pipeline.h - Decomposed analysis pipeline ------------*- C++ -*-===//
//
// Part of the hiptntpp project: a reproduction of "Termination and
// Non-Termination Specification Inference" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis pipeline of analyzeProgram, decomposed into three
/// schedulable pieces so single-program and batch drivers share one
/// implementation:
///
///   prepareProgram   — front end (parse, resolve, lower), call-graph
///                      SCC schedule, root SolverContext + HeapEnv;
///   runPipelineGroup — one SCC group on its own SolverContext,
///                      unknown registry and fresh-variable block;
///   finalizeProgram  — deterministic join in group order, budget
///                      classification, optional promotion of every
///                      context's cache entries to a shared
///                      GlobalSolverCache (also in group order: the
///                      "deterministic end-of-program merge").
///
/// analyzeProgram composes the three over a private thread pool;
/// BatchAnalyzer schedules many programs' front ends and group tasks on
/// one shared work-stealing pool, each program in its own
/// VarPool::Session so concurrently active scopes never collide.
///
//===----------------------------------------------------------------------===//

#ifndef TNT_API_PIPELINE_H
#define TNT_API_PIPELINE_H

#include "api/Analyzer.h"
#include "heap/HeapFormula.h"
#include "lang/CallGraph.h"
#include "solver/Cancellation.h"
#include "store/SpecSerial.h"
#include "verify/Verifier.h"

#include <memory>
#include <optional>
#include <set>

namespace tnt {

class GlobalSolverCache;

/// Everything one SCC-group analysis produces; assembled into the
/// AnalysisResult in deterministic group order by finalizeProgram. The
/// group's SolverContext is kept alive so the end-of-program merge can
/// promote its cache entries.
struct GroupRun {
  std::vector<MethodResult> Methods;
  SolverStats Stats;
  /// Conditional-termination counters (zero unless
  /// Config.Solve.EnableCondTerm). Store-served groups do not re-run
  /// the pass; they report the producer run's counters, rehydrated
  /// from the entry's "ct" record.
  CondTermStats Cond;
  std::string Diags;
  bool Bailed = false;
  /// Budget exhaustion prevented this group from running.
  bool Skipped = false;
  /// The group was answered by the spec store: summaries rehydrated,
  /// no verification or inference ran.
  bool FromStore = false;
  std::unique_ptr<SolverContext> Ctx;
};

/// A front-end-processed program plus its group schedule. Heap
/// allocated and never moved: HeapEnv and CallGraph hold references
/// into P.
struct PreparedProgram {
  /// Front end succeeded; when false only Diagnostics is meaningful.
  bool Ok = false;
  std::string Diagnostics;

  Program P;
  std::optional<CallGraph> CG;
  std::unique_ptr<SolverContext> RootCtx;
  std::optional<HeapEnv> HEnv;
  ResolvedStore Store;

  /// Bottom-up SCC groups (or one monolithic group), and for each
  /// group the set of groups it depends on (callee groups).
  std::vector<std::vector<std::string>> Groups;
  std::vector<std::set<size_t>> Deps;

  /// Per-group content-hash keys into the spec store; empty unless the
  /// config attached a store (Config.Store). Computed bottom-up so a
  /// group's key embeds its callee groups' keys — editing a method
  /// changes the keys of its group AND every transitive caller, which
  /// is exactly the store's invalidation rule.
  std::vector<std::string> GroupKeys;

  /// The fresh-variable block schedule this program's groups will run
  /// under. prepareProgram fills the single-program default (root
  /// block = the RootBlock argument, group G on block G + 1), which
  /// BatchAnalyzer keeps too: each of its programs runs in a private
  /// VarPool::Session. The spec store serializes fresh variables
  /// relative to these blocks (by group content key), which is what
  /// keeps entries position-independent.
  uint32_t RootBlock = 0;
  std::vector<uint32_t> GroupBlocks;
  /// Block <-> content-key token map for the spec store; built by
  /// prescanSpecStore.
  BlockTokenMap StoreBlocks;

  /// Prescan-time snapshot of the store's answer per group (parallel
  /// to GroupKeys; null = miss at prescan time). runPipelineGroup
  /// consults this snapshot first, and the live store only on its
  /// miss: an entry a sibling program (or sibling server request)
  /// inserted mid-run is a hit only when all its fresh spellings lie in
  /// the consuming group's own block, which that group then interns
  /// itself. The snapshot is a hoist, not a determinism requirement:
  /// it keeps the interning of entries present before the run out of
  /// the timed group tasks. SpecStore entries are node-stable and
  /// insert-only, so the pointers stay valid for the program's
  /// lifetime.
  std::vector<const std::string *> StoreEntries;

  /// Cooperative program-wide budget (null when Config.FuelBudget is
  /// 0). Attached to the root context and every group context; charged
  /// at solver query boundaries (minus global-tier hits, matching
  /// fuelUsed()), so the cutoff lands on the exact query that crossed
  /// the budget instead of the next group boundary.
  std::unique_ptr<CancellationToken> Budget;
};

/// Runs the front end under VarPool::Scope(RootBlock) and builds the
/// group schedule. Never returns null; check result->Ok.
std::unique_ptr<PreparedProgram> prepareProgram(const std::string &Source,
                                                const AnalyzerConfig &Config,
                                                uint32_t RootBlock = 0);

/// Spec-store prescan (no-op without Config.Store or when the front end
/// failed): computes the group keys, builds the program's block-token
/// map, snapshots the store's answer per group (StoreEntries) and
/// interns every fresh spelling those entries resolve to, in canonical
/// (block, counter) order. Run it in the program's session after
/// prepareProgram and before any of the program's group tasks is
/// scheduled. Prescans of distinct programs, each in its own session,
/// may run concurrently. BatchAnalyzer lets every prescan finish before
/// the first group task starts, so no prescan sees an entry the run
/// itself inserts and the hit/miss split does not depend on the
/// schedule; the server has no such barrier, only per-response byte
/// identity.
void prescanSpecStore(PreparedProgram &PP, const AnalyzerConfig &Config);

/// Analyzes one group under VarPool::Scope(ScopeBlock) on a fresh
/// SolverContext (attached to \p Global when non-null). Thread-safe
/// across distinct groups of one program once every dependency group
/// has finished, and across groups of distinct programs provided they
/// run in distinct sessions or on distinct ScopeBlocks. Both drivers
/// pass ScopeBlock = GroupBlocks[GroupIdx] (= GroupIdx + 1).
///
/// With a store attached, the group is answered from the prescan
/// snapshot, else from an entry the live store gained mid-run whose
/// fresh spellings all lie in this group's block (interned here), else
/// by inference, whose summaries are then inserted when they are a
/// pure function of the key.
GroupRun runPipelineGroup(PreparedProgram &PP, const AnalyzerConfig &Config,
                          size_t GroupIdx, uint32_t ScopeBlock,
                          GlobalSolverCache *Global);

/// Joins per-group results in group order into the AnalysisResult
/// (Millis is left to the caller). When \p Global is non-null, every
/// context's cache entries are promoted to it — root context first,
/// then groups in index order — which makes the merge a deterministic
/// function of the program for any thread count.
AnalysisResult finalizeProgram(PreparedProgram &PP,
                               std::vector<GroupRun> Runs,
                               const AnalyzerConfig &Config,
                               GlobalSolverCache *Global);

} // namespace tnt

#endif // TNT_API_PIPELINE_H
