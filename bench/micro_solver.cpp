//===- bench/micro_solver.cpp - Substrate micro-benchmarks ------*- C++ -*-===//
//
// google-benchmark timings of the substrate layers: Omega satisfiability,
// entailment, projection, ranking synthesis, abduction, and the foo
// example end to end.
//
//===----------------------------------------------------------------------===//

#include "api/Analyzer.h"
#include "api/BatchAnalyzer.h"
#include "solver/Interval.h"
#include "synth/Abduction.h"
#include "synth/Ranking.h"
#include "workloads/Corpus.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

using namespace tnt;

namespace {

LinExpr ex(const char *N) { return LinExpr::var(mkVar(N)); }

Constraint ge(const LinExpr &L, int64_t R) {
  return Constraint::make(L, CmpKind::Ge, LinExpr(R));
}
Constraint le(const LinExpr &L, int64_t R) {
  return Constraint::make(L, CmpKind::Le, LinExpr(R));
}
Constraint eq(const LinExpr &L, const LinExpr &R) {
  return Constraint::make(L, CmpKind::Eq, R);
}

void BM_OmegaSatChain(benchmark::State &State) {
  // x1 < x2 < ... < xn within [0, 100].
  ConstraintConj Conj;
  int N = static_cast<int>(State.range(0));
  for (int I = 0; I + 1 < N; ++I)
    Conj.push_back(Constraint::make(
        ex(("bm_x" + std::to_string(I)).c_str()), CmpKind::Lt,
        ex(("bm_x" + std::to_string(I + 1)).c_str())));
  Conj.push_back(ge(ex("bm_x0"), 0));
  Conj.push_back(le(ex(("bm_x" + std::to_string(N - 1)).c_str()), 100));
  for (auto _ : State) {
    benchmark::DoNotOptimize(Omega::isSatConj(Conj));
  }
}
BENCHMARK(BM_OmegaSatChain)->Arg(4)->Arg(8)->Arg(12);

void BM_OmegaDarkShadow(benchmark::State &State) {
  ConstraintConj Conj = {ge(ex("bm_d") * 8, 27), le(ex("bm_d") * 8, 30)};
  for (auto _ : State)
    benchmark::DoNotOptimize(Omega::isSatConj(Conj));
}
BENCHMARK(BM_OmegaDarkShadow);

void BM_SolverEntailment(benchmark::State &State) {
  Formula A = Formula::conj2(Formula::cmp(ex("bm_a"), CmpKind::Ge, LinExpr(1)),
                             Formula::cmp(ex("bm_b"), CmpKind::Ge, ex("bm_a")));
  Formula B = Formula::cmp(ex("bm_b"), CmpKind::Ge, LinExpr(1));
  SolverContext &SC = SolverContext::defaultCtx();
  for (auto _ : State) {
    SC.resetStats();
    benchmark::DoNotOptimize(SC.entails(A, B));
  }
}
BENCHMARK(BM_SolverEntailment);

/// The repeated-query workload of the BENCH_solver.json artifact: a
/// fixed family of entailments, re-asked round after round (the shape
/// the inference loop produces across case-split iterations).
std::vector<std::pair<Formula, Formula>> repeatedQueries() {
  std::vector<std::pair<Formula, Formula>> Qs;
  for (int I = 0; I < 24; ++I) {
    std::string X = "bm_q" + std::to_string(I);
    std::string Y = "bm_r" + std::to_string(I);
    std::string Z = "bm_s" + std::to_string(I);
    std::string W = "bm_t" + std::to_string(I);
    // A chain x < y < z < w inside a box: several eliminations per
    // Omega run, so a cache miss carries real decision work.
    Formula A = Formula::conj(
        {Formula::cmp(ex(X.c_str()), CmpKind::Ge, LinExpr(I)),
         Formula::cmp(ex(Y.c_str()), CmpKind::Ge, ex(X.c_str()) + 1),
         Formula::cmp(ex(Z.c_str()), CmpKind::Ge, ex(Y.c_str()) + 1),
         Formula::cmp(ex(W.c_str()), CmpKind::Ge, ex(Z.c_str()) + 1),
         Formula::cmp(ex(W.c_str()), CmpKind::Le, LinExpr(100 + I))});
    Formula B = Formula::cmp(ex(W.c_str()), CmpKind::Ge, LinExpr(I + 3));
    Qs.emplace_back(A, B);
  }
  return Qs;
}

void BM_ContextCachedEntailment(benchmark::State &State) {
  auto Qs = repeatedQueries();
  SolverContext SC;
  for (auto _ : State)
    for (const auto &[A, B] : Qs)
      benchmark::DoNotOptimize(SC.entails(A, B));
}
BENCHMARK(BM_ContextCachedEntailment);

void BM_ContextUncachedEntailment(benchmark::State &State) {
  auto Qs = repeatedQueries();
  SolverContext SC(/*CacheCapacity=*/0);
  for (auto _ : State)
    for (const auto &[A, B] : Qs)
      benchmark::DoNotOptimize(SC.entails(A, B));
}
BENCHMARK(BM_ContextUncachedEntailment);

/// The repeated-toDNF workload of the dnf_memo artifact section: a
/// fixed family of formulas whose expansion does real distribution
/// work (2^6 clauses each) plus an existential block, so memo hits
/// exercise the skeleton-renaming path.
std::vector<Formula> dnfWorkload() {
  std::vector<Formula> Fs;
  for (int I = 0; I < 12; ++I) {
    std::vector<Formula> Parts;
    for (int J = 0; J < 6; ++J) {
      std::string V = "bm_dnf" + std::to_string(I) + "_" + std::to_string(J);
      Parts.push_back(Formula::disj2(
          Formula::cmp(ex(V.c_str()), CmpKind::Le, LinExpr(J)),
          Formula::cmp(ex(V.c_str()), CmpKind::Ge, LinExpr(J + 10))));
    }
    VarId W = mkVar("bm_dnfw" + std::to_string(I));
    Parts.push_back(Formula::exists(
        {W}, Formula::cmp(LinExpr::var(W), CmpKind::Ge,
                          ex(("bm_dnf" + std::to_string(I) + "_0").c_str()))));
    Fs.push_back(Formula::conj(Parts));
  }
  return Fs;
}

void BM_MemoizedToDNF(benchmark::State &State) {
  auto Fs = dnfWorkload();
  SolverContext SC;
  for (auto _ : State)
    for (const Formula &F : Fs)
      benchmark::DoNotOptimize(SC.toDNF(F, 256));
}
BENCHMARK(BM_MemoizedToDNF);

void BM_UnmemoizedToDNF(benchmark::State &State) {
  auto Fs = dnfWorkload();
  SolverContext SC(SolverContext::DefaultCacheCapacity,
                   /*DnfMemoCapacity=*/0);
  for (auto _ : State)
    for (const Formula &F : Fs)
      benchmark::DoNotOptimize(SC.toDNF(F, 256));
}
BENCHMARK(BM_UnmemoizedToDNF);

/// The constraint-heavy workload of the prefilter artifact section:
/// difference chains x0 >= Off, x_{i+1} >= x_i + 1, x_{N-1} <= Top.
/// With Top < Off + N - 1 the chain is UNSAT, and interval propagation
/// decides it in a couple of passes where Omega runs a full
/// elimination over N variables. Every query gets its own constants
/// (and its own variable block), so no cache can answer — the
/// timing isolates prefilter-vs-Omega on the engine itself. A quarter
/// of the family are satisfiable boxes, exercising the witness path.
std::vector<ConstraintConj> chainFamily(unsigned Count, int N) {
  std::vector<ConstraintConj> Out;
  Out.reserve(Count);
  for (unsigned Q = 0; Q < Count; ++Q) {
    std::string Base = "bm_chain" + std::to_string(Q) + "_";
    ConstraintConj Conj;
    if (Q % 4 == 3) {
      // Satisfiable box: x_i in [Q % 7 + 1, Q % 7 + 10].
      for (int I = 0; I < N; ++I) {
        LinExpr X = ex((Base + std::to_string(I)).c_str());
        Conj.push_back(ge(X, int64_t(Q % 7) + 1));
        Conj.push_back(le(X, int64_t(Q % 7) + 10));
      }
    } else {
      int64_t Off = int64_t(Q % 11);
      Conj.push_back(ge(ex((Base + "0").c_str()), Off));
      for (int I = 0; I + 1 < N; ++I)
        Conj.push_back(Constraint::make(
            ex((Base + std::to_string(I + 1)).c_str()), CmpKind::Ge,
            ex((Base + std::to_string(I)).c_str()) + 1));
      // Top bound below the chain's reach: UNSAT by propagation.
      Conj.push_back(
          le(ex((Base + std::to_string(N - 1)).c_str()), Off + N - 2));
    }
    Out.push_back(std::move(Conj));
  }
  return Out;
}

void BM_IntervalPrefilterChain(benchmark::State &State) {
  auto Family = chainFamily(64, static_cast<int>(State.range(0)));
  for (auto _ : State)
    for (const ConstraintConj &Conj : Family)
      benchmark::DoNotOptimize(intervalPrefilter(Conj));
}
BENCHMARK(BM_IntervalPrefilterChain)->Arg(12)->Arg(16);

void BM_OmegaOnChainFamily(benchmark::State &State) {
  auto Family = chainFamily(64, static_cast<int>(State.range(0)));
  for (auto _ : State)
    for (const ConstraintConj &Conj : Family)
      benchmark::DoNotOptimize(Omega::isSatConj(Conj));
}
BENCHMARK(BM_OmegaOnChainFamily)->Arg(12)->Arg(16);

void BM_RankingSynthesis(benchmark::State &State) {
  VarId X = mkVar("bm_rx"), Y = mkVar("bm_ry");
  VarId XP = mkVar("bm_rx'"), YP = mkVar("bm_ry'");
  RankEdge E;
  E.Src = E.Dst = 0;
  E.Ctx = {ge(ex("bm_rx"), 0), eq(ex("bm_rx'"), ex("bm_rx") + ex("bm_ry")),
           eq(ex("bm_ry'"), ex("bm_ry")), ge(ex("bm_rx'"), 0),
           le(ex("bm_ry"), -1)};
  E.DstArgs = {LinExpr::var(XP), LinExpr::var(YP)};
  std::vector<std::vector<VarId>> Params = {{X, Y}};
  for (auto _ : State)
    benchmark::DoNotOptimize(synthesizeRanking(Params, {E}));
}
BENCHMARK(BM_RankingSynthesis);

void BM_Abduction(benchmark::State &State) {
  VarId X = mkVar("bm_ax"), Y = mkVar("bm_ay");
  ConstraintConj Ctx = {ge(ex("bm_ax"), 0),
                        eq(ex("bm_ax'"), ex("bm_ax") + ex("bm_ay"))};
  ConstraintConj Target = {ge(ex("bm_ax'"), 0)};
  for (auto _ : State)
    benchmark::DoNotOptimize(abduce(Ctx, Target, {X, Y}));
}
BENCHMARK(BM_Abduction);

void BM_FooEndToEnd(benchmark::State &State) {
  const char *Src = R"(
void foo(int x, int y)
{
  if (x < 0) return;
  else foo(x + y, y);
}
)";
  for (auto _ : State)
    benchmark::DoNotOptimize(analyzeProgram(Src));
}
BENCHMARK(BM_FooEndToEnd);

//===----------------------------------------------------------------------===//
// BENCH_solver.json emitter (the perf-trajectory artifact)
//===----------------------------------------------------------------------===//

/// A program with independent SCC groups, for the parallel-speedup
/// number.
std::string multiSccProgram(unsigned Methods) {
  std::string Src;
  std::string MainBody = "int main(int n)\n{\n  return 0";
  for (unsigned I = 0; I < Methods; ++I) {
    std::string N = "work" + std::to_string(I);
    Src += "int " + N + "(int k, int d)\n{\n";
    Src += "  if (k <= " + std::to_string(I) + ") return d;\n";
    Src += "  else return " + N + "(k - 1, d + k);\n}\n";
    MainBody += " + " + N + "(n, " + std::to_string(I) + ")";
  }
  Src += MainBody + ";\n}\n";
  return Src;
}

int emitJson(const std::string &Path) {
  using Clock = std::chrono::steady_clock;
  auto Secs = [](Clock::time_point A, Clock::time_point B) {
    return std::chrono::duration<double>(B - A).count();
  };

  // 1. Repeated-query throughput, uncached vs LRU-cached context.
  auto Qs = repeatedQueries();
  const unsigned Rounds = 400;
  uint64_t Queries = 0;

  SolverContext Uncached(/*CacheCapacity=*/0);
  auto U0 = Clock::now();
  for (unsigned R = 0; R < Rounds; ++R)
    for (const auto &[A, B] : Qs)
      benchmark::DoNotOptimize(Uncached.entails(A, B));
  auto U1 = Clock::now();
  double UncachedSec = Secs(U0, U1);
  Queries = Uncached.stats().SatQueries;

  SolverContext Cached;
  auto C0 = Clock::now();
  for (unsigned R = 0; R < Rounds; ++R)
    for (const auto &[A, B] : Qs)
      benchmark::DoNotOptimize(Cached.entails(A, B));
  auto C1 = Clock::now();
  double CachedSec = Secs(C0, C1);
  SolverStats CS = Cached.stats();
  double HitRate =
      CS.SatQueries ? double(CS.CacheHits) / double(CS.SatQueries) : 0.0;
  double UncachedQps = UncachedSec > 0 ? double(Queries) / UncachedSec : 0.0;
  double CachedQps = CachedSec > 0 ? double(CS.SatQueries) / CachedSec : 0.0;
  double Speedup = UncachedSec > 0 && CachedSec > 0 ? UncachedSec / CachedSec
                                                    : 0.0;

  // 2. Repeated-toDNF throughput, unmemoized vs pointer-keyed memo.
  auto DnfFs = dnfWorkload();
  const unsigned DnfRounds = 600;

  SolverContext DnfUnmemo(SolverContext::DefaultCacheCapacity,
                          /*DnfMemoCapacity=*/0);
  auto DU0 = Clock::now();
  for (unsigned R = 0; R < DnfRounds; ++R)
    for (const Formula &F : DnfFs)
      benchmark::DoNotOptimize(DnfUnmemo.toDNF(F, 256));
  auto DU1 = Clock::now();
  double DnfUnmemoSec = Secs(DU0, DU1);
  uint64_t DnfQueries = DnfUnmemo.stats().DnfQueries;

  SolverContext DnfMemo;
  auto DM0 = Clock::now();
  for (unsigned R = 0; R < DnfRounds; ++R)
    for (const Formula &F : DnfFs)
      benchmark::DoNotOptimize(DnfMemo.toDNF(F, 256));
  auto DM1 = Clock::now();
  double DnfMemoSec = Secs(DM0, DM1);
  SolverStats DS = DnfMemo.stats();
  uint64_t DnfLookups = DS.DnfHits + DS.DnfMisses;
  double DnfHitRate = DnfLookups ? double(DS.DnfHits) / double(DnfLookups)
                                 : 0.0;
  double DnfUnmemoQps =
      DnfUnmemoSec > 0 ? double(DnfQueries) / DnfUnmemoSec : 0.0;
  double DnfMemoQps = DnfMemoSec > 0 ? double(DS.DnfQueries) / DnfMemoSec : 0.0;
  double DnfSpeedup =
      DnfUnmemoSec > 0 && DnfMemoSec > 0 ? DnfUnmemoSec / DnfMemoSec : 0.0;

  // 3. Parallel SCC scheduler speedup on a multi-group program.
  unsigned Hw = std::thread::hardware_concurrency();
  unsigned Threads = Hw == 0 ? 4 : std::max(Hw, 2u);
  std::string Prog = multiSccProgram(12);
  AnalyzerConfig Seq;
  Seq.Threads = 1;
  AnalyzerConfig Par;
  Par.Threads = Threads;
  // Warm the variable pool so both runs intern the same spellings.
  (void)analyzeProgram(Prog, Seq);
  auto S0 = Clock::now();
  AnalysisResult RS = analyzeProgram(Prog, Seq);
  auto S1 = Clock::now();
  auto P0 = Clock::now();
  AnalysisResult RP = analyzeProgram(Prog, Par);
  auto P1 = Clock::now();
  double SeqSec = Secs(S0, S1), ParSec = Secs(P0, P1);
  double ParSpeedup = ParSec > 0 ? SeqSec / ParSec : 0.0;
  bool Deterministic = RS.Ok && RP.Ok && RS.str() == RP.str();

  // 4. Interval prefilter: plain Omega against the uncached query path
  // (prefilter first, Omega when it cannot decide) on the
  // constraint-heavy chain family, where every query is distinct; then
  // the share of @fig11's queries the prefilter answers.
  auto Family = chainFamily(2000, 14);

  auto OF0 = Clock::now();
  for (const ConstraintConj &Conj : Family)
    benchmark::DoNotOptimize(Omega::isSatConj(Conj));
  auto OF1 = Clock::now();
  double OmegaSec = Secs(OF0, OF1);

  SolverContext Prefiltered(/*CacheCapacity=*/0);
  auto PF0 = Clock::now();
  for (const ConstraintConj &Conj : Family)
    benchmark::DoNotOptimize(Prefiltered.isSatConj(Conj));
  auto PF1 = Clock::now();
  double PrefilteredSec = Secs(PF0, PF1);
  SolverStats LS = Prefiltered.stats();
  double AnswerRate =
      LS.SatQueries
          ? double(LS.IntervalUnsat + LS.IntervalSat) / double(LS.SatQueries)
          : 0.0;
  double PrefilterSpeedup =
      OmegaSec > 0 && PrefilteredSec > 0 ? OmegaSec / PrefilteredSec : 0.0;

  // 5. The exact LP on a 1-thread @fig11 batch, whose counts do not
  // depend on the schedule; the prefilter share above reads it too.
  BatchOptions FigOpt;
  FigOpt.Threads = 1;
  BatchAnalyzer FigBA(FigOpt);
  auto F0 = Clock::now();
  BatchResult FigR = FigBA.run(loopBasedBatchItems());
  auto F1 = Clock::now();
  double FigAnswerRate =
      FigR.Usage.SatQueries
          ? double(FigR.Usage.IntervalUnsat + FigR.Usage.IntervalSat) /
                double(FigR.Usage.SatQueries)
          : 0.0;

  std::ofstream Out(Path);
  if (!Out) {
    std::cerr << "cannot write " << Path << "\n";
    return 1;
  }
  Out << "{\n";
  Out << "  \"repeated_query\": {\n";
  Out << "    \"queries\": " << Queries << ",\n";
  Out << "    \"uncached_qps\": " << UncachedQps << ",\n";
  Out << "    \"cached_qps\": " << CachedQps << ",\n";
  Out << "    \"speedup_vs_uncached\": " << Speedup << ",\n";
  Out << "    \"cache_hit_rate\": " << HitRate << ",\n";
  Out << "    \"cache_enabled\": true\n";
  Out << "  },\n";
  Out << "  \"dnf_memo\": {\n";
  Out << "    \"queries\": " << DnfQueries << ",\n";
  Out << "    \"unmemoized_dnf_per_sec\": " << DnfUnmemoQps << ",\n";
  Out << "    \"memoized_dnf_per_sec\": " << DnfMemoQps << ",\n";
  Out << "    \"speedup_vs_unmemoized\": " << DnfSpeedup << ",\n";
  Out << "    \"memo_hit_rate\": " << DnfHitRate << "\n";
  Out << "  },\n";
  Out << "  \"parallel_scc\": {\n";
  Out << "    \"threads\": " << Threads << ",\n";
  Out << "    \"groups\": " << RP.GroupCount << ",\n";
  Out << "    \"seq_ms\": " << SeqSec * 1000.0 << ",\n";
  Out << "    \"par_ms\": " << ParSec * 1000.0 << ",\n";
  Out << "    \"speedup\": " << ParSpeedup << ",\n";
  Out << "    \"deterministic\": " << (Deterministic ? "true" : "false")
      << "\n";
  Out << "  },\n";
  Out << "  \"prefilter\": {\n";
  Out << "    \"chain_queries\": " << Family.size() << ",\n";
  Out << "    \"chain_omega_ms\": " << OmegaSec * 1000.0 << ",\n";
  Out << "    \"chain_prefiltered_ms\": " << PrefilteredSec * 1000.0 << ",\n";
  Out << "    \"chain_speedup_vs_omega\": " << PrefilterSpeedup << ",\n";
  Out << "    \"prefilter_answer_rate\": " << AnswerRate << ",\n";
  Out << "    \"fig11_prefilter_answer_rate\": " << FigAnswerRate << "\n";
  Out << "  },\n";
  Out << "  \"lp\": {\n";
  Out << "    \"fig11_lp_solves\": " << FigR.Usage.LpSolves << ",\n";
  Out << "    \"fig11_lp_pivots\": " << FigR.Usage.LpPivots << ",\n";
  Out << "    \"fig11_lp_overflows\": " << FigR.Usage.LpOverflows << ",\n";
  Out << "    \"fig11_batch_ms\": " << Secs(F0, F1) * 1000.0 << "\n";
  Out << "  }\n";
  Out << "}\n";
  std::cout << "BENCH_solver.json: cached " << CachedQps << " q/s vs uncached "
            << UncachedQps << " q/s (x" << Speedup << ", hit rate " << HitRate
            << "); dnf memo " << DnfMemoQps << " dnf/s vs " << DnfUnmemoQps
            << " dnf/s (x" << DnfSpeedup << ", hit rate " << DnfHitRate
            << "); parallel x" << ParSpeedup << " on " << Threads
            << " threads (deterministic: " << (Deterministic ? "yes" : "no")
            << "); prefilter x" << PrefilterSpeedup
            << " vs Omega on chains (answer rate " << AnswerRate
            << "), fig11 answer rate " << FigAnswerRate << "; fig11 LP "
            << FigR.Usage.LpSolves << " solves, " << FigR.Usage.LpPivots
            << " pivots, " << FigR.Usage.LpOverflows << " overflows in "
            << Secs(F0, F1) * 1000.0 << " ms\n";
  return Deterministic ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  for (int I = 1; I < argc; ++I) {
    if (std::string(argv[I]) == "--json") {
      std::string Path =
          I + 1 < argc ? argv[I + 1] : std::string("BENCH_solver.json");
      return emitJson(Path);
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
