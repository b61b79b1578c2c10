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
///   finalizeProgram  — deterministic join in group order and budget
///                      classification.
///
/// Every driver runs the one block schedule of VarPool: the front end
/// on VarPool::RootBlock, group G on VarPool::groupBlock(G).
/// analyzeProgram composes the three stages over a private thread pool,
/// the analysis server runs them serially per request, and
/// BatchAnalyzer schedules many programs' front ends and group tasks on
/// one shared work-stealing pool, each program in its own
/// VarPool::Session so concurrently active scopes never collide.
///
/// With a spec store attached (Config.Store), prepareProgram also
/// computes the groups' content keys, and each group task looks its key
/// up in the live store: a hit rehydrates the stored summaries, a miss
/// runs inference and stores the result unless it depends on more than
/// the key (a budget cut, a deadline bail, fallback ids) or names a
/// fresh variable (see store/SpecSerial.h).
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

/// Everything one SCC-group analysis produces; assembled into the
/// AnalysisResult in deterministic group order by finalizeProgram.
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

  /// Cooperative program-wide budget (null when Config.FuelBudget is
  /// 0). Attached to the root context and every group context; charged
  /// at solver query boundaries (matching fuelUsed()), so the cutoff
  /// lands on the exact query that crossed the budget instead of the
  /// next group boundary.
  std::unique_ptr<CancellationToken> Budget;
};

/// Runs the front end under VarPool::Scope(VarPool::RootBlock), builds
/// the group schedule and, with a store attached, the group keys.
/// Never returns null; check result->Ok.
std::unique_ptr<PreparedProgram> prepareProgram(const std::string &Source,
                                                const AnalyzerConfig &Config);

/// Analyzes one group under VarPool::Scope(VarPool::groupBlock(GroupIdx))
/// on a fresh SolverContext, freed when the group returns. Thread-safe
/// across distinct groups of one program once every dependency group
/// has finished, and across groups of distinct programs provided they
/// run in distinct sessions.
///
/// With a store attached, the group is answered by the entry the live
/// store holds for its key, else by inference, whose summaries are then
/// inserted when they are a pure function of the key.
GroupRun runPipelineGroup(PreparedProgram &PP, const AnalyzerConfig &Config,
                          size_t GroupIdx);

/// The deterministic scenario enumeration of one group — methods in
/// group order, spec indices ascending — mirroring Verifier::runGroup.
/// Shared by the store's hit (rehydrate) and miss (serialize) paths so
/// slot order cannot drift between them.
std::vector<ScenarioSlot> scenarioSlots(const PreparedProgram &PP,
                                        size_t GroupIdx);

/// Joins per-group results in group order into the AnalysisResult
/// (Millis is left to the caller).
AnalysisResult finalizeProgram(PreparedProgram &PP,
                               std::vector<GroupRun> Runs,
                               const AnalyzerConfig &Config);

} // namespace tnt

#endif // TNT_API_PIPELINE_H
