//===- tests/DeterminismTest.cpp - parallel scheduler determinism -*- C++ -*-===//
//
// The parallel SCC scheduler contract: for any thread count, the
// analysis result renders byte-identical to the sequential schedule —
// per-group SolverContexts, per-group unknown registries and
// deterministic fresh-variable blocks make group results a function of
// the group alone, and the join assembles them in group order.
//
//===----------------------------------------------------------------------===//

#include "api/Analyzer.h"
#include "api/BatchAnalyzer.h"
#include "workloads/Corpus.h"

#include <gtest/gtest.h>

using namespace tnt;

namespace {

/// A program with several independent SCC groups plus a shared callee,
/// so the parallel scheduler actually fans out.
const char *MultiSccSource = R"(
int dec(int k)
{
  if (k <= 0) return 0;
  else return dec(k - 1);
}
int up(int a)
{
  if (a >= 100) return a;
  else return up(a + 1);
}
int spin(int b)
{
  if (b < 0) return 0;
  else return spin(b + 1);
}
int mix(int x, int y)
{
  if (x <= 0) return dec(y);
  else return mix(x - 1, y + 1);
}
int main(int n)
{
  return mix(n, dec(n)) + up(0) + spin(-1);
}
)";

void expectIdentical(const std::string &Source, const std::string &Label) {
  AnalyzerConfig Seq;
  Seq.Threads = 1;
  AnalysisResult R1 = analyzeProgram(Source, Seq);

  for (unsigned Threads : {2u, 4u}) {
    AnalyzerConfig Par;
    Par.Threads = Threads;
    AnalysisResult RN = analyzeProgram(Source, Par);

    ASSERT_EQ(R1.Ok, RN.Ok) << Label << " threads=" << Threads;
    EXPECT_EQ(R1.str(), RN.str()) << Label << " threads=" << Threads;
    EXPECT_EQ(R1.Diagnostics, RN.Diagnostics) << Label << " threads="
                                              << Threads;
    EXPECT_EQ(R1.FuelUsed, RN.FuelUsed) << Label << " threads=" << Threads;
    EXPECT_EQ(R1.Methods.size(), RN.Methods.size())
        << Label << " threads=" << Threads;
    EXPECT_EQ(outcomeStr(R1.outcome()), outcomeStr(RN.outcome()))
        << Label << " threads=" << Threads;
  }
}

TEST(Determinism, MultiSccProgramByteIdentical) {
  expectIdentical(MultiSccSource, "multi-scc");
}

TEST(Determinism, RepeatedParallelRunsByteIdentical) {
  AnalyzerConfig Par;
  Par.Threads = 4;
  AnalysisResult A = analyzeProgram(MultiSccSource, Par);
  AnalysisResult B = analyzeProgram(MultiSccSource, Par);
  ASSERT_TRUE(A.Ok);
  EXPECT_EQ(A.str(), B.str());
  EXPECT_EQ(A.FuelUsed, B.FuelUsed);
}

TEST(Determinism, CorpusSampleByteIdentical) {
  // A bounded slice across the corpus categories keeps the test fast
  // while exercising heap programs, conditionals and non-termination.
  const std::vector<BenchProgram> &All = corpus();
  size_t Step = All.size() / 12;
  if (Step == 0)
    Step = 1;
  for (size_t I = 0; I < All.size(); I += Step)
    expectIdentical(All[I].Source, All[I].Name);
}

//===----------------------------------------------------------------------===//
// Batch determinism stress: the same corpus slice at 1/2/4/8 worker
// threads must produce byte-identical AnalysisResult renderings. This
// covers the batch contract at once: per-program sessions, the group
// join order, and in-run dedup's replays.
//===----------------------------------------------------------------------===//

TEST(Determinism, BatchCorpusByteIdenticalAcrossThreads) {
  // A deterministic cross-category stride keeps the stress affordable
  // while covering heap programs, conditionals and non-termination.
  const std::vector<BenchProgram> &All = corpus();
  std::vector<BatchItem> Items;
  size_t Step = All.size() / 24;
  if (Step == 0)
    Step = 1;
  for (size_t I = 0; I < All.size(); I += Step) {
    BatchItem It;
    It.Name = All[I].Name;
    It.Category = All[I].Category;
    It.Source = All[I].Source;
    It.Entry = All[I].Entry;
    Items.push_back(std::move(It));
  }

  std::string Base;
  {
    BatchOptions Opt;
    Opt.Threads = 1;
    BatchAnalyzer BA(Opt);
    Base = BA.run(Items).renderOutcomes();
  }
  ASSERT_FALSE(Base.empty());

  // 1 again: the baseline ran with a cold intern table, this one warm.
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    BatchOptions Opt;
    Opt.Threads = Threads;
    BatchAnalyzer BA(Opt);
    BatchResult R = BA.run(Items);
    EXPECT_EQ(Base, R.renderOutcomes()) << "threads=" << Threads;
  }
}

TEST(Determinism, BatchSecondRunByteIdentical) {
  // A second run() on the SAME BatchAnalyzer starts with a warm intern
  // table. Nothing else carries over between runs, so the results must
  // not move and the second run must infer exactly what the first did.
  std::vector<BatchItem> Items;
  const std::vector<BenchProgram> &All = corpus();
  size_t Step = All.size() / 6;
  if (Step == 0)
    Step = 1;
  for (size_t I = 0; I < All.size(); I += Step) {
    BatchItem It;
    It.Name = All[I].Name;
    It.Category = All[I].Category;
    It.Source = All[I].Source;
    It.Entry = All[I].Entry;
    Items.push_back(std::move(It));
  }
  BatchOptions Opt;
  Opt.Threads = 4;
  BatchAnalyzer BA(Opt);
  BatchResult First = BA.run(Items);
  BatchResult Second = BA.run(Items);
  EXPECT_EQ(First.renderOutcomes(), Second.renderOutcomes());
  EXPECT_EQ(First.StoreMisses, Second.StoreMisses);
  EXPECT_EQ(First.Usage.SatQueries, Second.Usage.SatQueries);
}

/// Loops whose ranking synthesis has a round won by a middle candidate:
/// the nested loop's three-candidate round by candidate 1 (the outer
/// step, once the inner one fails), and f's six-candidate round by
/// candidate 1. On a pool of more than one worker such a round solves
/// its candidates on helper workers, which mints every candidate's
/// templates before the winner is known.
const char *NestedLoopSource = R"(
void main() { int i; int j; i = nondet_int(); j = nondet_int();
  while (i >= 0) {
    if (j > 0) j = j - 1;
    else { i = i - 1; j = nondet_int(); if (j < 0) j = 0; }
  }
}
)";
const char *NestedRecursionSource = R"(
void f(int i, int j)
{
  if (i < 0) return;
  else if (j >= 1) f(i, j - 1);
  else if (nondet_bool()) { int k; k = nondet_int(); if (k >= 0) f(i - 1, k); else f(i - 1, 0); }
  else f(i, j - 2);
}
void main() { f(nondet_int(), nondet_int()); }
)";

TEST(Determinism, BatchRankingMiddleWinnerIdenticalAcrossThreads) {
  // Beyond equal outcomes and counters, each program's session must
  // hold the same bindings at every thread count: the templates minted
  // for candidates past the winner are rewound, so the group's later
  // fresh ids are those of the in-order loop.
  std::vector<BatchItem> Items(2);
  Items[0].Name = "nested-loop";
  Items[0].Source = NestedLoopSource;
  Items[1].Name = "nested-recursion";
  Items[1].Source = NestedRecursionSource;
  struct Run {
    std::string Outcomes;
    uint64_t SatQueries, LpSolves, LpPivots;
    std::vector<size_t> Bindings;
  };
  auto run = [&Items](unsigned Threads) {
    BatchOptions Opt;
    Opt.Threads = Threads;
    BatchAnalyzer BA(Opt);
    BatchResult R = BA.run(Items);
    Run Out{R.renderOutcomes(), R.Usage.SatQueries, R.Usage.LpSolves,
            R.Usage.LpPivots, {}};
    for (const BatchProgramResult &P : R.Programs)
      Out.Bindings.push_back(P.Session->size());
    return Out;
  };
  Run Base = run(1);
  EXPECT_NE(Base.Outcomes.find("== nested-loop [] entry 'main': Y"),
            std::string::npos)
      << Base.Outcomes;
  for (unsigned Threads : {2u, 4u, 8u}) {
    Run R = run(Threads);
    EXPECT_EQ(Base.Outcomes, R.Outcomes) << "threads=" << Threads;
    EXPECT_EQ(Base.SatQueries, R.SatQueries) << "threads=" << Threads;
    EXPECT_EQ(Base.LpSolves, R.LpSolves) << "threads=" << Threads;
    EXPECT_EQ(Base.LpPivots, R.LpPivots) << "threads=" << Threads;
    EXPECT_EQ(Base.Bindings, R.Bindings) << "threads=" << Threads;
  }
}

TEST(Determinism, MonolithicModeUnaffectedByThreads) {
  AnalyzerConfig C1, C4;
  C1.Modular = C4.Modular = false;
  C1.Threads = 1;
  C4.Threads = 4;
  AnalysisResult R1 = analyzeProgram(MultiSccSource, C1);
  AnalysisResult R4 = analyzeProgram(MultiSccSource, C4);
  ASSERT_TRUE(R1.Ok && R4.Ok);
  EXPECT_EQ(R1.str(), R4.str());
}

} // namespace
