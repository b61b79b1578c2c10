//===- bench/micro_solver.cpp - Substrate micro-benchmarks ------*- C++ -*-===//
//
// google-benchmark timings of the substrate layers: Omega satisfiability,
// entailment, projection, ranking synthesis, abduction, and the foo
// example end to end.
//
//===----------------------------------------------------------------------===//

#include "api/Analyzer.h"
#include "api/BatchAnalyzer.h"
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

  // 1. Parallel SCC scheduler speedup on a multi-group program.
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

  // 2. The exact LP on a 1-thread @fig11 batch, whose counts do not
  // depend on the schedule, and the same batch at 4 threads, where the
  // ranking rounds' candidate LPs run on idle workers. Its LP solves
  // must equal the 1-thread count; its pivots may read one more (a
  // known schedule dependence of one LP's antecedent order).
  auto runFig11 = [&](unsigned Threads, double &Ms) {
    BatchOptions FigOpt;
    FigOpt.Threads = Threads;
    BatchAnalyzer FigBA(FigOpt);
    auto F0 = Clock::now();
    BatchResult R = FigBA.run(loopBasedBatchItems());
    Ms = Secs(F0, Clock::now()) * 1000.0;
    return R;
  };
  double FigMs = 0, FigMs4 = 0;
  BatchResult FigR = runFig11(1, FigMs);
  BatchResult FigR4 = runFig11(4, FigMs4);
  bool SameSolves = FigR4.Usage.LpSolves == FigR.Usage.LpSolves;

  std::ofstream Out(Path);
  if (!Out) {
    std::cerr << "cannot write " << Path << "\n";
    return 1;
  }
  Out << "{\n";
  Out << "  \"parallel_scc\": {\n";
  Out << "    \"threads\": " << Threads << ",\n";
  Out << "    \"groups\": " << RP.GroupCount << ",\n";
  Out << "    \"seq_ms\": " << SeqSec * 1000.0 << ",\n";
  Out << "    \"par_ms\": " << ParSec * 1000.0 << ",\n";
  Out << "    \"speedup\": " << ParSpeedup << ",\n";
  Out << "    \"deterministic\": " << (Deterministic ? "true" : "false")
      << "\n";
  Out << "  },\n";
  Out << "  \"lp\": {\n";
  Out << "    \"fig11_lp_solves\": " << FigR.Usage.LpSolves << ",\n";
  Out << "    \"fig11_lp_pivots\": " << FigR.Usage.LpPivots << ",\n";
  Out << "    \"fig11_lp_overflows\": " << FigR.Usage.LpOverflows << ",\n";
  Out << "    \"fig11_batch_ms\": " << FigMs << ",\n";
  Out << "    \"fig11_lp_solves_4t\": " << FigR4.Usage.LpSolves << ",\n";
  Out << "    \"fig11_lp_pivots_4t\": " << FigR4.Usage.LpPivots << ",\n";
  Out << "    \"fig11_batch_ms_4t\": " << FigMs4 << "\n";
  Out << "  }\n";
  Out << "}\n";
  std::cout << "BENCH_solver.json: parallel x" << ParSpeedup << " on "
            << Threads << " threads (deterministic: "
            << (Deterministic ? "yes" : "no") << "); fig11 LP "
            << FigR.Usage.LpSolves << " solves, " << FigR.Usage.LpPivots
            << " pivots, " << FigR.Usage.LpOverflows << " overflows in "
            << FigMs << " ms at 1 thread, " << FigR4.Usage.LpSolves
            << " solves in " << FigMs4 << " ms at 4 threads\n";
  if (!SameSolves)
    std::cerr << "fig11 LP solves differ: " << FigR.Usage.LpSolves
              << " at 1 thread, " << FigR4.Usage.LpSolves
              << " at 4 threads\n";
  return Deterministic && SameSolves ? 0 : 1;
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
