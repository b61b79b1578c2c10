//===- tests/CorpusGoldenTest.cpp - ground-truth regression -----*- C++ -*-===//
//
// The Fig. 10/11 regression fence: the FULL benchmark corpus runs
// through BatchAnalyzer and the per-category Yes/No/Unknown/Timeout
// counts are pinned EXACTLY, so a solver or inference change that
// silently regresses (or improves) the evaluation tables fails here
// and has to update the goldens consciously. Soundness is absolute:
// zero answers may contradict ground truth, in any category, ever.
//
// The counts are a function of the corpus and the analysis code alone:
// batch mode is byte-deterministic for any thread count (see
// docs/ARCHITECTURE.md "Batch engine"), uses no wall-clock deadline,
// and the default per-group fuel bound is deterministic. If a
// legitimate change moves a count, re-run and re-pin:
//   hiptnt --batch @corpus --threads 2 --stats
//
//===----------------------------------------------------------------------===//

#include "api/BatchAnalyzer.h"
#include "workloads/Corpus.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

using namespace tnt;

namespace {

struct Golden {
  const char *Category;
  unsigned Yes, No, Unknown, Timeout;
};

// Pinned against the seed of this PR (engine at PR 3). The shape
// mirrors the paper's Fig. 10: strong Yes columns, real No columns in
// every family but numeric, no timeouts.
const Golden Fig10Golden[] = {
    {"crafted", 16, 15, 8, 0},
    {"crafted-lit", 123, 23, 4, 0},
    {"numeric", 66, 0, 2, 0},
    {"memory-alloca", 67, 12, 2, 0},
};

// Fig. 11 aggregate: the 221 loop-based integer programs (a subset of
// the first three categories), counted from the same batch run.
const Golden Fig11Golden = {"loop-based", 171, 38, 12, 0};

} // namespace

TEST(CorpusGolden, FullCorpusSoundAndCountsPinned) {
  const std::vector<BenchProgram> &All = corpus();
  std::vector<BatchItem> Items = corpusBatchItems();
  ASSERT_EQ(Items.size(), All.size());

  BatchOptions Opt;
  Opt.Threads = 2; // Any thread count gives identical results.
  BatchAnalyzer BA(Opt);
  BatchResult R = BA.run(Items);
  ASSERT_EQ(R.Programs.size(), All.size());

  // 1. Soundness: no answer may contradict ground truth. This is the
  // paper's re-verification claim and the repo's core property.
  unsigned Unsound = 0;
  for (size_t I = 0; I < All.size(); ++I) {
    EXPECT_TRUE(soundAnswer(All[I], R.Programs[I].Verdict))
        << All[I].Name << " answered "
        << outcomeStr(R.Programs[I].Verdict);
    if (!soundAnswer(All[I], R.Programs[I].Verdict))
      ++Unsound;
  }
  ASSERT_EQ(Unsound, 0u);

  // 2. Every program must have analyzed (the corpus parses by
  // construction; a front-end regression would silently turn programs
  // into Unknowns without this).
  for (const BatchProgramResult &P : R.Programs)
    EXPECT_TRUE(P.Result.Ok) << P.Name << "\n" << P.Result.Diagnostics;

  // 3. Exact per-category counts (Fig. 10).
  auto Cats = R.perCategory();
  std::map<std::string, CategoryCounts> ByName(Cats.begin(), Cats.end());
  for (const Golden &G : Fig10Golden) {
    ASSERT_TRUE(ByName.count(G.Category)) << G.Category;
    const CategoryCounts &C = ByName[G.Category];
    EXPECT_EQ(C.Yes, G.Yes) << G.Category;
    EXPECT_EQ(C.No, G.No) << G.Category;
    EXPECT_EQ(C.Unknown, G.Unknown) << G.Category;
    EXPECT_EQ(C.Timeout, G.Timeout) << G.Category;
  }

  // 4. Exact Fig. 11 aggregate over the loop-based subset of the SAME
  // run (results are per-program deterministic, so reusing the batch
  // is equivalent to re-running @fig11).
  std::set<std::string> LoopNames;
  for (const BenchProgram *P : loopBasedPrograms())
    LoopNames.insert(P->Name);
  ASSERT_EQ(LoopNames.size(), 221u);
  CategoryCounts Loop;
  for (const BatchProgramResult &P : R.Programs) {
    if (!LoopNames.count(P.Name))
      continue;
    switch (P.Verdict) {
    case Outcome::Yes:
      ++Loop.Yes;
      break;
    case Outcome::No:
      ++Loop.No;
      break;
    case Outcome::Unknown:
      ++Loop.Unknown;
      break;
    case Outcome::Timeout:
      ++Loop.Timeout;
      break;
    }
  }
  EXPECT_EQ(Loop.Yes, Fig11Golden.Yes);
  EXPECT_EQ(Loop.No, Fig11Golden.No);
  EXPECT_EQ(Loop.Unknown, Fig11Golden.Unknown);
  EXPECT_EQ(Loop.Timeout, Fig11Golden.Timeout);

  // 5. In-run dedup inferred each content key once and replayed the
  // rest (`hiptnt --batch @corpus --stats`: inferred=179 replayed=529).
  EXPECT_EQ(R.StoreMisses, 179u);
  EXPECT_EQ(R.StoreHits, 529u);
}
