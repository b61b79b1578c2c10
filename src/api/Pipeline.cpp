//===- api/Pipeline.cpp ---------------------------------------*- C++ -*-===//

#include "api/Pipeline.h"

#include "lang/Parser.h"
#include "lang/Resolve.h"
#include "lang/Transforms.h"
#include "store/ContentHash.h"
#include "store/SpecSerial.h"
#include "store/SpecStore.h"
#include "support/Trace.h"

#include <cassert>
#include <map>

using namespace tnt;

std::unique_ptr<PreparedProgram>
tnt::prepareProgram(const std::string &Source, const AnalyzerConfig &Config,
                    uint32_t RootBlock) {
  trace::Span PrepSpan("prepare", "pipeline");
  auto PP = std::make_unique<PreparedProgram>();

  // Deterministic ids/names for everything the front end and the heap
  // environment create, independent of pool history. Every driver
  // passes block 0: batch programs and server requests each run in
  // their own VarPool::Session, so concurrent front ends cannot
  // interleave allocations.
  VarPool::Scope RootScope(RootBlock);
  PP->RootCtx = std::make_unique<SolverContext>();
  if (Config.FuelBudget != 0) {
    // The cooperative budget token: charged by every context of this
    // program at query granularity, so the cutoff is exact (the old
    // scheme could only decline to START a group once already-finished
    // groups had overspent).
    PP->Budget = std::make_unique<CancellationToken>(Config.FuelBudget);
    PP->RootCtx->attachCancellation(PP->Budget.get());
  }

  DiagnosticEngine Diags;
  std::optional<Program> Parsed = parseProgram(Source, Diags);
  if (!Parsed) {
    PP->Diagnostics = Diags.str();
    return PP;
  }
  PP->P = std::move(*Parsed);
  if (!resolveProgram(PP->P, Diags) || !lowerLoops(PP->P, Diags)) {
    PP->Diagnostics = Diags.str();
    return PP;
  }

  // Deterministically intern every unscoped spelling the group phase
  // can touch. Independent groups of one program may run concurrently
  // in its session, and the verifier lazily interns primed parameter
  // names ("x'", at call sites and exit checks) and "res"; whichever
  // group interned such a spelling first would fix its VarId, making
  // id order — and with it the rendered order of VarId-sorted
  // structures — depend on scheduling. Interning them here, before any
  // group task of the program starts, makes every id a function of the
  // program alone. All other group-phase names are either parsed
  // (interned just above) or block-tagged fresh spellings, which are
  // collision-free by construction.
  mkVar("res");
  for (const MethodDecl &M : PP->P.Methods)
    for (const Param &Prm : M.Params)
      mkVar(Prm.Name + "'");

  PP->CG.emplace(CallGraph::build(PP->P));
  PP->HEnv.emplace(PP->P, *PP->RootCtx);

  // Group schedule: bottom-up SCCs, or one big group in monolithic
  // mode.
  if (Config.Modular) {
    PP->Groups = PP->CG->sccs();
  } else {
    std::vector<std::string> All;
    for (const auto &Scc : PP->CG->sccs())
      for (const std::string &M : Scc)
        All.push_back(M);
    PP->Groups.push_back(std::move(All));
  }

  // Dependency DAG over groups: a group is ready once every group it
  // calls into has registered its summaries.
  const size_t N = PP->Groups.size();
  std::map<std::string, size_t> GroupOf;
  for (size_t G = 0; G < N; ++G)
    for (const std::string &M : PP->Groups[G])
      GroupOf[M] = G;
  PP->Deps.assign(N, {});
  for (size_t G = 0; G < N; ++G)
    for (const std::string &M : PP->Groups[G])
      for (const std::string &Callee : PP->CG->callees(M)) {
        auto It = GroupOf.find(Callee);
        if (It != GroupOf.end() && It->second != G)
          PP->Deps[G].insert(It->second);
      }

  // The single-program block schedule, which every driver uses
  // (prescanSpecStore derives the store keys from it).
  PP->RootBlock = RootBlock;
  PP->GroupBlocks.resize(PP->Groups.size());
  for (size_t G = 0; G < PP->Groups.size(); ++G)
    PP->GroupBlocks[G] = static_cast<uint32_t>(G) + 1;

  PP->Ok = true;
  return PP;
}

void tnt::prescanSpecStore(PreparedProgram &PP,
                           const AnalyzerConfig &Config) {
  if (Config.Store == nullptr || !PP.Ok)
    return;
  trace::Span PrescanSpan("prescan", "store");
  // Content keys — bottom-up, so each key embeds its callee keys, and
  // block-qualified, so a hit implies the entry's numbering is this
  // group's numbering (see ContentHash.h).
  PP.GroupKeys = computeGroupKeys(PP.P, *PP.CG, PP.Groups, PP.Deps,
                                  PP.GroupBlocks, PP.RootBlock);

  // Block <-> token map: a group's block is named by its content key
  // plus a duplicate ordinal (content-identical sibling groups get
  // distinct tokens, so their witnesses never conflate).
  PP.StoreBlocks = BlockTokenMap();
  std::map<std::string, unsigned> Dups;
  for (size_t G = 0; G < PP.GroupKeys.size(); ++G) {
    std::string Token =
        PP.GroupKeys[G] + "#" + std::to_string(Dups[PP.GroupKeys[G]]++);
    PP.StoreBlocks.TokenOf[PP.GroupBlocks[G]] = Token;
    PP.StoreBlocks.BlockOf[Token] = PP.GroupBlocks[G];
  }

  // Intern every fresh spelling the hit entries resolve to, HERE,
  // before any group task of the program starts, in canonical (block,
  // counter) order. Group tasks may rehydrate concurrently later; by
  // then every spelling they can touch is a deterministic function of
  // the program + store content, like the pre-interned "res"/primed
  // spellings of prepareProgram. The peek results are snapshotted
  // alongside, so the group phase skips a second lookup. Entries that
  // arrive later are interned by their consuming group task (see
  // runPipelineGroup); the prescan stays as a hoist, keeping that
  // interning out of the timed group tasks when the store is already
  // populated.
  PP.StoreEntries.assign(PP.GroupKeys.size(), nullptr);
  std::vector<std::string> Fresh;
  for (size_t G = 0; G < PP.GroupKeys.size(); ++G)
    if (const std::string *Entry = Config.Store->peek(PP.GroupKeys[G])) {
      PP.StoreEntries[G] = Entry;
      collectFreshSpellings(*Entry, PP.StoreBlocks, Fresh);
    }
  internFreshSpellings(std::move(Fresh));
}

namespace {

/// The deterministic scenario enumeration of one group — methods in
/// group order, spec indices ascending — mirroring Verifier::runGroup.
/// Shared by the store's hit (rehydrate) and miss (serialize) paths so
/// slot order cannot drift between them.
std::vector<ScenarioSlot> scenarioSlots(const PreparedProgram &PP,
                                        size_t GroupIdx) {
  std::vector<ScenarioSlot> Slots;
  for (size_t MI = 0; MI < PP.Groups[GroupIdx].size(); ++MI) {
    const MethodDecl *M = PP.P.findMethod(PP.Groups[GroupIdx][MI]);
    assert(M && "group member not found");
    std::vector<MethodSpec> Specs = M->Specs;
    if (Specs.empty())
      Specs.push_back(Verifier::defaultSpec());
    for (unsigned SI = 0; SI < Specs.size(); ++SI) {
      ScenarioSlot Slot;
      Slot.MethodIdx = static_cast<unsigned>(MI);
      Slot.SpecIdx = SI;
      Slot.Params = Verifier::canonicalParams(*M, Specs[SI]);
      Slot.NumMethodParams = M->Params.size();
      Slots.push_back(std::move(Slot));
    }
  }
  return Slots;
}

/// The call-site-resolved view of a finished scenario: the flattened
/// summary cases over its canonical parameters, degraded to
/// unknown-everywhere when safety verification failed. ONE definition
/// shared by the fresh and store-hit paths — their agreement is the
/// store's correctness contract (callers must resolve identically
/// whether the callee ran or replayed).
ResolvedScenario resolvedFromResult(const MethodResult &MR,
                                    MethodSpec Safety) {
  ResolvedScenario RS;
  RS.Safety = std::move(Safety);
  RS.Params = MR.Summary.Params;
  RS.Cases = MR.Summary.flatten();
  if (MR.Summary.HasTermCond && !MR.SafetyFailed) {
    RS.TermCond = MR.Summary.TermCond;
    RS.HasTermCond = true;
  }
  if (MR.SafetyFailed) {
    // Degrade: unknown everywhere.
    RS.Cases.clear();
    CaseOutcome C;
    C.Guard = Formula::top();
    C.Temporal = TemporalSpec::mayLoop();
    RS.Cases.push_back(std::move(C));
  }
  return RS;
}

/// Builds a store-hit GroupRun from a rehydrated entry: the same
/// MethodResult / ResolvedScenario assembly the normal path performs,
/// minus verification and inference. Registration goes straight to the
/// shared ResolvedStore so caller groups resolve call sites exactly as
/// if the group had run.
void assembleFromStore(PreparedProgram &PP, size_t GroupIdx,
                       const std::vector<ScenarioSlot> &Slots,
                       RehydratedGroup &&RG, GroupRun &Out) {
  std::map<std::string, std::vector<ResolvedScenario>> PerMethod;
  for (size_t I = 0; I < RG.Scenarios.size(); ++I) {
    RehydratedScenario &RS = RG.Scenarios[I];
    const std::string &Name = PP.Groups[GroupIdx][RS.MethodIdx];
    const MethodDecl *M = PP.P.findMethod(Name);
    assert(M && "group member not found");

    MethodResult MR;
    MR.Method = Name;
    MR.SpecIdx = RS.SpecIdx;
    MR.Summary.Method = Name;
    MR.Summary.SpecIdx = RS.SpecIdx;
    MR.Summary.Params = Slots[I].Params;
    MR.Summary.Cases = std::move(RS.Cases);
    if (RS.HasTermCond) {
      MR.Summary.TermCond = RS.TermCond;
      MR.Summary.HasTermCond = true;
    }
    MR.SafetyFailed = RS.SafetyFailed;
    MR.ReVerified = RS.ReVerified;

    PerMethod[Name].push_back(resolvedFromResult(
        MR, M->Specs.empty() ? Verifier::defaultSpec()
                             : M->Specs[RS.SpecIdx]));
    Out.Methods.push_back(std::move(MR));
  }
  for (auto &[Name, RSs] : PerMethod)
    PP.Store.add(Name, std::move(RSs));
  Out.Diags = std::move(RG.Diags);
  Out.Bailed = RG.Bailed;
  // The producer run's audited counters ride the entry ("ct"), so a
  // warm replay reports the same cond_term stats as the cold run that
  // minted it — the conditions themselves were already rehydrated
  // above via the per-scenario "tc" forms.
  Out.Cond = RG.Cond;
  Out.FromStore = true;
}

} // namespace

GroupRun tnt::runPipelineGroup(PreparedProgram &PP,
                               const AnalyzerConfig &Config, size_t GroupIdx,
                               uint32_t ScopeBlock) {
  GroupRun Out;
  if (PP.Budget && PP.Budget->cancelled()) {
    // The program-wide budget ran out before this group started;
    // nothing it could compute within budget remains.
    Out.Skipped = true;
    return Out;
  }

  trace::Span GroupSpan("group", "pipeline");
  GroupSpan.arg("group", std::to_string(GroupIdx));

  // Deterministic fresh-variable block: names and ids depend on the
  // block number and the group's own execution, never on worker
  // scheduling. Entered before the store path too, so the (rare)
  // spelling a rehydration interns that the prescan and the front end
  // did not cover allocates from this group's block rather than the
  // shared global region.
  VarPool::Scope FreshScope(ScopeBlock);

  // Spec store, hit path: rehydrate the stored summaries and register
  // them for the callers above — no verification, no inference, no
  // solver context. A malformed or slot-mismatched entry (scheme
  // drift, key collision) falls through to a normal run. The prescan
  // snapshot answers first; on its miss the live store does, with an
  // entry a sibling group inserted mid-run. Such an entry's fresh
  // spellings were never prescanned, so they are interned here, under
  // this group's block, and an entry naming a fresh spelling of any
  // other block counts as a miss: only this task allocates in its own
  // block, so the interning order cannot depend on scheduling.
  SpecStore *Store = Config.Store;
  const std::string *StoreKey =
      Store != nullptr && GroupIdx < PP.GroupKeys.size()
          ? &PP.GroupKeys[GroupIdx]
          : nullptr;
  trace::ScopedTag KeyTag("group_key",
                          StoreKey != nullptr ? *StoreKey : std::string());
  if (StoreKey != nullptr)
    GroupSpan.arg("key", *StoreKey);
  if (StoreKey != nullptr) {
    const std::string *Entry =
        GroupIdx < PP.StoreEntries.size() ? PP.StoreEntries[GroupIdx]
                                          : nullptr;
    const bool MidRun = Entry == nullptr;
    if (MidRun)
      Entry = Store->peek(*StoreKey);
    if (Entry != nullptr) {
      trace::Span RehydrateSpan("rehydrate", "store");
      std::vector<ScenarioSlot> Slots = scenarioSlots(PP, GroupIdx);
      RehydratedGroup RG;
      if ((!MidRun || internOwnBlockSpellings(*Entry, PP.StoreBlocks,
                                              PP.GroupBlocks[GroupIdx])) &&
          rehydrateGroupEntry(*Entry, Slots, PP.StoreBlocks, RG)) {
        assembleFromStore(PP, GroupIdx, Slots, std::move(RG), Out);
        Store->noteHit();
        return Out;
      }
    }
    Store->noteMiss();
  }

  SolverContext SC;
  if (PP.Budget)
    SC.attachCancellation(PP.Budget.get());
  // Fallback allocations void the fresh-spelling determinism a stored
  // entry relies on; sample the counter so such a group is not stored.
  // Under a per-request session the SESSION's counter is the right
  // probe: the pool-global one sums every live session, so a sibling
  // request's oversized batch would spuriously veto this group's
  // insert (residency loss, not a correctness issue — but needless).
  auto FallbackProbe = [] {
    if (const VarPool::Session *S = VarPool::activeSession())
      return S->fallbacks();
    return VarPool::get().scopedFallbacks();
  };
  const uint64_t FallbacksBefore = FallbackProbe();
  UnkRegistry Reg;
  Theta Th(Reg);
  DiagnosticEngine VDiags; // Verification failures degrade to MayLoop.
  Verifier V(PP.P, *PP.CG, *PP.HEnv, Reg, VDiags, SC, &PP.Store);

  const std::vector<std::string> &Group = PP.Groups[GroupIdx];
  std::vector<Verifier::ScenarioResult> SRs;
  {
    trace::Span VerifySpan("verify", "pipeline");
    SRs = V.runGroup(Group);
  }

  // Solve the scenarios that need inference, together.
  std::vector<ScenarioProblem> Problems;
  for (Verifier::ScenarioResult &SR : SRs) {
    if (SR.GivenTemporal)
      continue;
    ScenarioProblem Prob;
    Prob.PreId = SR.Assumptions.PreId;
    Prob.S = SR.Assumptions.S;
    Prob.T = SR.Assumptions.T;
    Problems.push_back(std::move(Prob));
  }
  if (!Problems.empty()) {
    // The program-wide FuelBudget needs no per-group clamping here: the
    // shared CancellationToken (attached above) is charged at each
    // query boundary and solveGroup polls it, so the cutoff lands on
    // the exact query that crossed the budget.
    trace::Span SolveSpan("solveGroup", "pipeline");
    Out.Bailed |= solveGroup(Problems, Reg, Th, Config.Solve, SC);
  }
  bool GroupReVerified = true;
  if (!Problems.empty()) {
    trace::Span ReVerifySpan("reVerify", "pipeline");
    GroupReVerified = reVerifyGroup(Problems, Reg, Th, SC);
  }

  // Conditional-termination pass: runs on the solved definitions, but
  // only when re-verification upheld them — a condition assembled from
  // unconfirmed Term guards would rest on exactly the measures
  // re-verification rejected.
  CondTermResult CondRes;
  if (Config.Solve.EnableCondTerm && !Problems.empty() && GroupReVerified) {
    trace::Span CondSpan("condTerm", "pipeline");
    inferCondTerm(Problems, Reg, Th, Config.Solve, SC, CondRes);
    Out.Cond = CondRes.Stats;
  }

  // Build summaries and register them for the callers above.
  std::map<std::string, std::vector<ResolvedScenario>> PerMethod;
  for (Verifier::ScenarioResult &SR : SRs) {
    MethodResult MR;
    MR.Method = SR.Method;
    MR.SpecIdx = SR.SpecIdx;
    MR.Summary.Method = SR.Method;
    MR.Summary.SpecIdx = SR.SpecIdx;
    MR.Summary.Params = SR.Params;
    MR.SafetyFailed = SR.Assumptions.SafetyFailed;
    if (SR.GivenTemporal) {
      CaseTree Leaf;
      Leaf.Temporal = *SR.GivenTemporal;
      Leaf.PostReachable = !SR.Safety.PostPure.isBottom();
      MR.Summary.Cases = Leaf;
      MR.ReVerified = true;
      if (Config.Solve.EnableCondTerm) {
        // Given (trusted) temporal specs carry their own condition:
        // everything for Term, nothing for Loop — no audit needed, the
        // spec was an input, not an inference.
        if (SR.GivenTemporal->K == TemporalSpec::Kind::Term) {
          MR.Summary.TermCond = Formula::top();
          MR.Summary.HasTermCond = true;
        } else if (SR.GivenTemporal->K == TemporalSpec::Kind::Loop) {
          MR.Summary.TermCond = Formula::bottom();
          MR.Summary.HasTermCond = true;
        }
        if (MR.Summary.HasTermCond) {
          ++Out.Cond.Emitted;
          ++Out.Cond.Sound;
        }
      }
    } else if (MR.SafetyFailed) {
      CaseTree Leaf;
      Leaf.Temporal = TemporalSpec::mayLoop();
      MR.Summary.Cases = Leaf;
    } else {
      MR.Summary.Cases = Th.toTree(SR.Assumptions.PreId);
      MR.ReVerified = GroupReVerified;
      auto CondIt = CondRes.Conds.find(SR.Assumptions.PreId);
      if (CondIt != CondRes.Conds.end()) {
        MR.Summary.TermCond = CondIt->second;
        MR.Summary.HasTermCond = true;
      }
    }

    PerMethod[SR.Method].push_back(resolvedFromResult(MR, SR.Safety));
    Out.Methods.push_back(std::move(MR));
  }
  for (auto &[Name, RSs] : PerMethod)
    V.registerResolved(Name, std::move(RSs));

  Out.Stats = SC.stats();
  Out.Diags = VDiags.str();

  // Spec store, miss path: persist the group's summaries — but only
  // when they are a pure function of the key. Three exclusions:
  //  * a budget cancellation truncated this group at a point that
  //    depends on program-wide fuel history;
  //  * a wall-clock deadline bail is schedule-dependent (fuel bails
  //    are deterministic and stored — the batch config relies on it);
  //  * fresh-variable fallback allocations (block overflow) void the
  //    spelling determinism rehydration depends on.
  if (StoreKey != nullptr && !(PP.Budget && PP.Budget->cancelled()) &&
      !(Out.Bailed && Config.Solve.GroupDeadlineMs != 0) &&
      FallbackProbe() == FallbacksBefore) {
    trace::Span SerializeSpan("serialize", "store");
    std::vector<ScenarioSlot> Slots = scenarioSlots(PP, GroupIdx);
    if (Slots.size() == Out.Methods.size()) {
      std::vector<ScenarioRecord> Records;
      Records.reserve(Out.Methods.size());
      for (size_t I = 0; I < Out.Methods.size(); ++I) {
        ScenarioRecord R;
        R.Slot = std::move(Slots[I]);
        // Serialization indexes ["p", i] against the slot's canonical
        // params; rehydration resolves them against the SAME
        // recomputation, so the run's actual Params must agree — they
        // are both Verifier::canonicalParams of the same scenario.
        assert(R.Slot.Params == Out.Methods[I].Summary.Params &&
               "summary params diverged from canonical slot params");
        R.SafetyFailed = Out.Methods[I].SafetyFailed;
        R.ReVerified = Out.Methods[I].ReVerified;
        R.Cases = &Out.Methods[I].Summary.Cases;
        if (Out.Methods[I].Summary.HasTermCond)
          R.TermCond = &Out.Methods[I].Summary.TermCond;
        Records.push_back(std::move(R));
      }
      // nullopt: the summaries mention a root- or foreign-block
      // variable, whose allocation counter has no meaning outside this
      // program's front-end history — such a group is not stored.
      if (std::optional<std::string> Entry = serializeGroupEntry(
              Records, Out.Diags, Out.Bailed, PP.StoreBlocks, Out.Cond))
        Store->insert(*StoreKey, std::move(*Entry));
    }
  }
  return Out;
}

AnalysisResult tnt::finalizeProgram(PreparedProgram &PP,
                                    std::vector<GroupRun> Runs,
                                    const AnalyzerConfig &Config) {
  trace::Span FinalizeSpan("finalize", "pipeline");
  AnalysisResult Result;
  if (!PP.Ok) {
    Result.Diagnostics = PP.Diagnostics;
    return Result;
  }

  // Deterministic join: merge per-group results in group order,
  // regardless of completion order.
  Result.SolverUsage = PP.RootCtx->stats();
  std::string MergedDiags;
  bool OverBudget = false;
  for (size_t G = 0; G < Runs.size(); ++G) {
    GroupRun &Run = Runs[G];
    if (Run.Skipped) {
      OverBudget = true;
      continue;
    }
    for (MethodResult &MR : Run.Methods)
      Result.Methods.push_back(std::move(MR));
    Result.SolverUsage += Run.Stats;
    Result.CondTerm += Run.Cond;
    Result.BailedOut |= Run.Bailed;
    Result.GroupsFromStore += Run.FromStore ? 1 : 0;
    MergedDiags += Run.Diags;
  }

  Result.Ok = true;
  Result.GroupCount = PP.Groups.size();
  Result.TreatBailAsTimeout = Config.BailoutIsTimeout;
  Result.Diagnostics = std::move(MergedDiags);
  Result.FuelUsed = Result.SolverUsage.fuelUsed();
  Result.OverBudget =
      OverBudget ||
      (Config.FuelBudget != 0 && Result.FuelUsed > Config.FuelBudget);
  return Result;
}
