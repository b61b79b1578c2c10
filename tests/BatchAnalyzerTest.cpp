//===- tests/BatchAnalyzerTest.cpp - batch engine unit tests ----*- C++ -*-===//
//
// BatchAnalyzer behavior: input-order results, agreement with
// standalone analyzeProgram verdicts, failed-program handling,
// per-category tables, the two-tier fuel accounting contract (queries
// answered by the global tier are not charged to the program that
// asked), tier persistence across run() calls, and in-run dedup (each
// content key inferred once per batch).
//
//===----------------------------------------------------------------------===//

#include "api/BatchAnalyzer.h"
#include "api/Pipeline.h"
#include "solver/GlobalCache.h"
#include "store/SpecSerial.h"
#include "store/SpecStore.h"
#include "workloads/Corpus.h"

#include <gtest/gtest.h>

#include <set>

using namespace tnt;

namespace {

const char *TermSrc = R"(
int dec(int k)
{
  if (k <= 0) return 0;
  else return dec(k - 1);
}
int main(int n)
{
  return dec(n);
}
)";

// A near-twin of TermSrc: the base case reads k < 1 instead of
// k <= 0. Both normalize to the same integer constraint, so the two
// programs issue overlapping sat queries, but their content keys
// differ, so neither can replay the other's groups.
const char *TermLtSrc = R"(
int dec(int k)
{
  if (k < 1) return 0;
  else return dec(k - 1);
}
int main(int n)
{
  return dec(n);
}
)";

const char *LoopSrc = R"(
int spin(int b)
{
  if (b < 0) return 0;
  else return spin(b + 1);
}
int main(int n)
{
  return spin(1);
}
)";

BatchItem item(const char *Name, const char *Cat, const char *Src) {
  BatchItem It;
  It.Name = Name;
  It.Category = Cat;
  It.Source = Src;
  return It;
}

} // namespace

TEST(BatchAnalyzer, ResultsInInputOrderAndMatchStandalone) {
  std::vector<BatchItem> Items = {item("t", "a", TermSrc),
                                  item("l", "b", LoopSrc),
                                  item("t2", "a", TermSrc)};
  BatchOptions Opt;
  Opt.Threads = 2;
  BatchAnalyzer BA(Opt);
  BatchResult R = BA.run(Items);

  ASSERT_EQ(R.Programs.size(), 3u);
  EXPECT_EQ(R.Programs[0].Name, "t");
  EXPECT_EQ(R.Programs[1].Name, "l");
  EXPECT_EQ(R.Programs[2].Name, "t2");

  // Verdicts agree with standalone runs (batch uses the deadline-free
  // batch config; these programs decide well inside any fuel bound).
  AnalysisResult T = analyzeProgram(TermSrc, batchProgramConfig());
  AnalysisResult L = analyzeProgram(LoopSrc, batchProgramConfig());
  EXPECT_EQ(R.Programs[0].Verdict, T.outcome());
  EXPECT_EQ(R.Programs[1].Verdict, L.outcome());
  EXPECT_EQ(R.Programs[2].Verdict, T.outcome());
  EXPECT_EQ(outcomeStr(R.Programs[0].Verdict), std::string("Y"));
  EXPECT_EQ(outcomeStr(R.Programs[1].Verdict), std::string("N"));
}

TEST(BatchAnalyzer, FailedProgramIsIsolated) {
  std::vector<BatchItem> Items = {item("bad", "x", "int main( {"),
                                  item("good", "x", TermSrc)};
  BatchAnalyzer BA;
  BatchResult R = BA.run(Items);
  ASSERT_EQ(R.Programs.size(), 2u);
  EXPECT_FALSE(R.Programs[0].Result.Ok);
  EXPECT_EQ(R.Programs[0].Verdict, Outcome::Unknown);
  EXPECT_TRUE(R.Programs[1].Result.Ok);
  EXPECT_EQ(R.Programs[1].Verdict, Outcome::Yes);
}

TEST(BatchAnalyzer, PerCategoryCountsAndTable) {
  std::vector<BatchItem> Items = {item("t", "alpha", TermSrc),
                                  item("l", "beta", LoopSrc),
                                  item("t2", "alpha", TermSrc)};
  BatchAnalyzer BA;
  BatchResult R = BA.run(Items);
  auto Cats = R.perCategory();
  ASSERT_EQ(Cats.size(), 2u);
  EXPECT_EQ(Cats[0].first, "alpha"); // First-appearance order.
  EXPECT_EQ(Cats[0].second.Programs, 2u);
  EXPECT_EQ(Cats[0].second.Yes, 2u);
  EXPECT_EQ(Cats[1].first, "beta");
  EXPECT_EQ(Cats[1].second.No, 1u);
  std::string Table = R.table();
  EXPECT_NE(Table.find("alpha"), std::string::npos);
  EXPECT_NE(Table.find("beta"), std::string::npos);
  EXPECT_NE(Table.find("Total"), std::string::npos);
}

TEST(BatchAnalyzer, GlobalTierSharesAcrossDuplicatePrograms) {
  // Two near-twin programs (exact twins would share one inference):
  // whichever copy the single worker runs first pays cold; its twin
  // answers a chunk of its queries from the promoted entries. (The
  // pool makes no ordering promise — input order of RESULTS is
  // guaranteed, execution order is not — so the test identifies
  // cold/warm by their tier-hit counters.)
  std::vector<BatchItem> Items = {item("p1", "c", TermSrc),
                                  item("p2", "c", TermLtSrc)};
  BatchOptions Opt;
  Opt.Threads = 1; // One worker: one copy fully finalizes first.
  BatchAnalyzer BA(Opt);
  BatchResult R = BA.run(Items);

  const AnalysisResult &A0 = R.Programs[0].Result;
  const AnalysisResult &A1 = R.Programs[1].Result;
  bool FirstIsCold = A0.SolverUsage.GlobalSatHits == 0;
  const AnalysisResult &Cold = FirstIsCold ? A0 : A1;
  const AnalysisResult &Warm = FirstIsCold ? A1 : A0;
  EXPECT_EQ(Cold.SolverUsage.GlobalSatHits, 0u);
  EXPECT_GT(Warm.SolverUsage.GlobalSatHits, 0u);
  EXPECT_GT(R.Global.SatHits, 0u);
  EXPECT_GT(R.Global.SatEntries, 0u);

  // Neither copy replayed the other's groups...
  EXPECT_EQ(R.StoreHits, 0u);
  EXPECT_EQ(R.StoreMisses, 4u);
  // ...and near-twins issue identical query sequences...
  EXPECT_EQ(Cold.SolverUsage.SatQueries, Warm.SolverUsage.SatQueries);
  // ...but the twin is charged less fuel: global-tier answers were
  // paid for by the cold copy (the no-double-count contract).
  EXPECT_EQ(Warm.FuelUsed, Warm.SolverUsage.fuelUsed());
  EXPECT_LT(Warm.FuelUsed, Cold.FuelUsed);
}

TEST(BatchAnalyzer, TierPersistsAcrossRuns) {
  std::vector<BatchItem> Items = {item("p", "c", TermSrc)};
  BatchAnalyzer BA;
  BatchResult Cold = BA.run(Items);
  EXPECT_EQ(Cold.Usage.GlobalSatHits, 0u);
  BatchResult Warm = BA.run(Items);
  EXPECT_GT(Warm.Usage.GlobalSatHits, 0u);
  // Same verdicts either way: the tier is semantically transparent.
  EXPECT_EQ(Cold.renderOutcomes(), Warm.renderOutcomes());
  EXPECT_LE(Warm.Usage.fuelUsed(), Cold.Usage.fuelUsed());
}

//===----------------------------------------------------------------------===//
// The fuel counter itself (AnalyzerConfig::FuelBudget satellite):
// SatQueries stays cache-transparent, GlobalSatHits records shared-tier
// answers, and fuelUsed() charges the difference.
//===----------------------------------------------------------------------===//

TEST(TwoTierFuel, GlobalHitsAreNotCharged) {
  Formula F = Formula::cmp(LinExpr::var(mkVar("btf_x")), CmpKind::Ge,
                           LinExpr(3));
  ConstraintConj Conj = {Constraint::make(LinExpr::var(mkVar("btf_x")),
                                          CmpKind::Ge, LinExpr(3))};

  GlobalSolverCache Tier;
  SolverContext Payer;
  Payer.attachGlobalTier(&Tier);
  EXPECT_EQ(Payer.isSatConj(Conj), Tri::True);
  SolverStats PS = Payer.stats();
  EXPECT_EQ(PS.SatQueries, 1u);
  EXPECT_EQ(PS.GlobalSatHits, 0u); // Tier was empty: Payer computed.
  EXPECT_EQ(PS.fuelUsed(), 1u);    // ...and is charged for it.
  Payer.promoteTo(Tier);
  EXPECT_EQ(Tier.satSize(), 1u);

  SolverContext Beneficiary;
  Beneficiary.attachGlobalTier(&Tier);
  EXPECT_EQ(Beneficiary.isSatConj(Conj), Tri::True);
  SolverStats BS = Beneficiary.stats();
  EXPECT_EQ(BS.SatQueries, 1u);     // The query still counts as issued...
  EXPECT_EQ(BS.GlobalSatHits, 1u);  // ...was answered by the tier...
  EXPECT_EQ(BS.fuelUsed(), 0u);     // ...and is not charged again.

  // A repeat is a LOCAL hit (installed on the tier hit): still charged,
  // exactly like any cache-transparent local hit.
  EXPECT_EQ(Beneficiary.isSatConj(Conj), Tri::True);
  BS = Beneficiary.stats();
  EXPECT_EQ(BS.SatQueries, 2u);
  EXPECT_EQ(BS.GlobalSatHits, 1u);
  EXPECT_EQ(BS.CacheHits, 1u);
  EXPECT_EQ(BS.fuelUsed(), 1u);

  // Merged stats keep the invariant (the analyzer's join path).
  SolverStats Merged = PS;
  Merged += BS;
  EXPECT_EQ(Merged.fuelUsed(), PS.fuelUsed() + BS.fuelUsed());
  (void)F;
}

TEST(TwoTierFuel, DisabledLocalCacheStillUsesTier) {
  ConstraintConj Conj = {Constraint::make(LinExpr::var(mkVar("btf_y")),
                                          CmpKind::Le, LinExpr(-1))};
  GlobalSolverCache Tier;
  SolverContext Payer; // Default caches; fills the tier.
  Payer.attachGlobalTier(&Tier);
  (void)Payer.isSatConj(Conj);
  Payer.promoteTo(Tier);

  SolverContext NoLocal(/*CacheCapacity=*/0, /*DnfMemoCapacity=*/0);
  NoLocal.attachGlobalTier(&Tier);
  (void)NoLocal.isSatConj(Conj);
  SolverStats S = NoLocal.stats();
  EXPECT_EQ(S.SatQueries, 1u);
  EXPECT_EQ(S.GlobalSatHits, 1u);
  // A disabled local cache records no lookups (the "disabled reads as
  // n/a, not 0%" contract) — only the tier hit is visible.
  EXPECT_EQ(S.CacheHits + S.CacheMisses, 0u);
  EXPECT_EQ(S.fuelUsed(), 0u);
}

TEST(TwoTierFuel, PerProgramBudgetHonorsTierHits) {
  // A batch of near-twins (exact twins would share one inference)
  // where the budget is tight enough that the cold copy exceeds it,
  // while the warm copy (fed by the tier) stays inside — only because
  // tier hits are not charged against the per-program budget.
  std::vector<BatchItem> Items = {item("a", "c", TermSrc),
                                  item("b", "c", TermLtSrc)};
  BatchOptions Opt;
  Opt.Threads = 1;
  BatchAnalyzer Probe(Opt);
  BatchResult Free = Probe.run(Items);
  uint64_t F0 = Free.Programs[0].Result.FuelUsed;
  uint64_t F1 = Free.Programs[1].Result.FuelUsed;
  uint64_t ColdFuel = std::max(F0, F1), WarmFuel = std::min(F0, F1);
  ASSERT_GT(ColdFuel, WarmFuel);

  BatchOptions Tight;
  Tight.Threads = 1;
  Tight.Program.FuelBudget = (ColdFuel + WarmFuel) / 2;
  BatchAnalyzer BA(Tight);
  BatchResult R = BA.run(Items);
  Outcome V0 = R.Programs[0].Verdict, V1 = R.Programs[1].Verdict;
  // Exactly one copy — the one that ran cold — is over budget, and
  // the over-budget one is the one with no tier hits.
  ASSERT_NE(V0 == Outcome::Timeout, V1 == Outcome::Timeout);
  const AnalysisResult &TimedOut = V0 == Outcome::Timeout
                                       ? R.Programs[0].Result
                                       : R.Programs[1].Result;
  const AnalysisResult &Finished = V0 == Outcome::Timeout
                                       ? R.Programs[1].Result
                                       : R.Programs[0].Result;
  EXPECT_EQ(TimedOut.SolverUsage.GlobalSatHits, 0u);
  EXPECT_GT(Finished.SolverUsage.GlobalSatHits, 0u);
  EXPECT_EQ(Finished.outcome(), Outcome::Yes);
}

//===----------------------------------------------------------------------===//
// In-run dedup: with or without a caller store, each content key is
// inferred once per batch. The first group to reach a key leads; later
// groups with the key park and then replay the leader's entry.
//===----------------------------------------------------------------------===//

namespace {

/// The outcome rendering of one program of \p R alone.
std::string renderOne(const BatchResult &R, size_t P) {
  BatchResult One;
  One.Programs.push_back(R.Programs[P]);
  return One.renderOutcomes();
}

} // namespace

TEST(BatchDedup, EachKeyInferredOnceAndOutcomesMatchSoloRuns) {
  // Exact twins (t1, t2), a near-twin of them (t3: overlapping queries,
  // different keys) and a loop program present three times.
  std::vector<BatchItem> Items = {
      item("t1", "a", TermSrc),  item("l1", "b", LoopSrc),
      item("t2", "a", TermSrc),  item("t3", "a", TermLtSrc),
      item("l2", "b", LoopSrc),  item("l3", "b", LoopSrc)};

  // Each program in a one-program batch, where nothing can be shared.
  std::vector<std::string> Solo;
  for (const BatchItem &It : Items) {
    BatchAnalyzer BA;
    BatchResult R = BA.run({It});
    EXPECT_EQ(R.StoreHits, 0u);
    EXPECT_EQ(R.StoreMisses, 2u);
    Solo.push_back(renderOne(R, 0));
  }

  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    BatchOptions Opt;
    Opt.Threads = Threads;
    Opt.Profile = true;
    BatchAnalyzer BA(Opt);
    BatchResult R = BA.run(Items);
    std::set<std::string> Keys;
    for (const GroupProfile &Row : R.Profile)
      Keys.insert(Row.Key);
    // Two groups per program; dec+main of TermSrc, of TermLtSrc, and
    // spin+main of LoopSrc are the distinct keys.
    ASSERT_EQ(R.Profile.size(), 12u);
    ASSERT_EQ(Keys.size(), 6u);
    EXPECT_EQ(R.StoreMisses, 6u) << Threads << " threads";
    EXPECT_EQ(R.StoreHits, 6u) << Threads << " threads";
    for (size_t P = 0; P < Items.size(); ++P)
      EXPECT_EQ(renderOne(R, P), Solo[P])
          << Items[P].Name << " at " << Threads << " threads";
  }
}

TEST(BatchDedup, UnstoredLeaderReleasesFollowers) {
  // A budget cut leaves the cut group unstored, so each parked copy of
  // it is released to lead in turn and runs inference itself. Without
  // the global tier every copy burns the same fuel, so every copy's
  // dec group is cut and its main group skipped.
  BatchOptions Probe;
  Probe.GlobalTier = false;
  BatchAnalyzer Free(Probe);
  const uint64_t Fuel = Free.run({item("t", "a", TermSrc)})
                            .Programs[0].Result.FuelUsed;
  ASSERT_GT(Fuel, 2u);

  std::vector<BatchItem> Items(3, item("t", "a", TermSrc));
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    BatchOptions Opt = Probe;
    Opt.Threads = Threads;
    Opt.Program.FuelBudget = Fuel / 2;
    BatchAnalyzer BA(Opt);
    BatchResult R = BA.run(Items);
    ASSERT_EQ(R.Programs.size(), 3u);
    for (const BatchProgramResult &P : R.Programs) {
      EXPECT_EQ(P.Verdict, Outcome::Timeout) << Threads << " threads";
      EXPECT_EQ(P.Result.GroupsFromStore, 0u);
    }
    EXPECT_EQ(R.StoreHits, 0u) << Threads << " threads";
    EXPECT_EQ(R.StoreMisses, 3u) << Threads << " threads";
  }
}

namespace {

/// A dec-group entry of TermSrc whose one guard names the fresh
/// variable \p Spelling, serialized in a session of its own. Sets
/// \p Key to the dec group's content key.
std::string decEntryNaming(const std::string &Spelling, std::string &Key) {
  VarPool::Session S;
  VarPool::SessionScope Active(S);
  AnalyzerConfig Cfg = batchProgramConfig();
  SpecStore Store;
  Cfg.Store = &Store;
  std::unique_ptr<PreparedProgram> PP = prepareProgram(TermSrc, Cfg);
  prescanSpecStore(*PP, Cfg);
  Key = PP->GroupKeys[0];

  CaseTree Leaf;
  Leaf.Temporal = TemporalSpec::mayLoop();
  CaseTree Tree;
  Tree.Children.emplace_back(
      Formula::cmp(LinExpr::var(mkVar(Spelling)), CmpKind::Ge, LinExpr(0)),
      Leaf);
  ScenarioRecord Rec;
  Rec.Slot.Params = Verifier::canonicalParams(*PP->P.findMethod("dec"),
                                              Verifier::defaultSpec());
  Rec.Slot.NumMethodParams = 1;
  Rec.Cases = &Tree;
  std::optional<std::string> Entry =
      serializeGroupEntry({Rec}, "", false, PP->StoreBlocks);
  return Entry ? *Entry : std::string();
}

} // namespace

TEST(BatchDedup, EntryNamingAnotherBlocksFreshSpellingIsAMiss) {
  // An entry that reaches the store after a program's prescan replays
  // only when every fresh spelling it names lies in the consuming
  // group's own block. TermSrc's dec group runs on block 1 and main on
  // block 2; the entry's guard names a block-1 variable, a block-2
  // one, or a block-1 variable whose fresh base is from block 2.
  struct Case {
    std::string Spelling;
    bool Replays;
  };
  for (const Case &C : {Case{"w!b1!3", true}, Case{"w!b2!0", false},
                        Case{"w!b2!0!b1!3", false}}) {
    std::string Key;
    std::string Entry = decEntryNaming(C.Spelling, Key);
    ASSERT_FALSE(Entry.empty()) << C.Spelling;

    VarPool::Session S;
    VarPool::SessionScope Active(S);
    AnalyzerConfig Cfg = batchProgramConfig();
    SpecStore Store;
    Cfg.Store = &Store;
    std::unique_ptr<PreparedProgram> PP = prepareProgram(TermSrc, Cfg);
    prescanSpecStore(*PP, Cfg);
    ASSERT_EQ(PP->Groups[0], std::vector<std::string>{"dec"});
    ASSERT_EQ(PP->GroupKeys[0], Key);
    ASSERT_EQ(PP->StoreEntries[0], nullptr); // Not in the snapshot.
    Store.insert(Key, Entry);                 // Mid-run.

    GroupRun Run = runPipelineGroup(*PP, Cfg, 0, PP->GroupBlocks[0], nullptr);
    EXPECT_EQ(Run.FromStore, C.Replays) << C.Spelling;
    EXPECT_EQ(Store.stats().Hits, C.Replays ? 1u : 0u) << C.Spelling;
    EXPECT_EQ(Store.stats().Misses, C.Replays ? 0u : 1u) << C.Spelling;
    if (C.Replays) {
      ASSERT_EQ(Run.Methods.size(), 1u);
      EXPECT_NE(Run.Methods[0].Summary.str().find(C.Spelling),
                std::string::npos);
    }
  }
}
