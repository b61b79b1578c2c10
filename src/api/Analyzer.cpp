//===- api/Analyzer.cpp ---------------------------------------*- C++ -*-===//

#include "api/Analyzer.h"

#include "api/Pipeline.h"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

using namespace tnt;

const char *tnt::outcomeStr(Outcome O) {
  switch (O) {
  case Outcome::Yes:
    return "Y";
  case Outcome::No:
    return "N";
  case Outcome::Unknown:
    return "U";
  case Outcome::Timeout:
    return "T/O";
  }
  return "?";
}

const MethodResult *AnalysisResult::find(const std::string &Method,
                                         unsigned SpecIdx) const {
  for (const MethodResult &M : Methods)
    if (M.Method == Method && M.SpecIdx == SpecIdx)
      return &M;
  return nullptr;
}

Outcome AnalysisResult::outcome(const std::string &Entry) const {
  if (OverBudget)
    return Outcome::Timeout;
  if (!Ok)
    return Outcome::Unknown;
  const MethodResult *M = find(Entry);
  if (!M || M->SafetyFailed)
    return Outcome::Unknown;
  switch (M->Summary.verdict()) {
  case TntSummary::Verdict::Terminating:
    return Outcome::Yes;
  case TntSummary::Verdict::NonTerminating:
    return Outcome::No;
  case TntSummary::Verdict::Conditional:
  case TntSummary::Verdict::Unknown:
    break;
  }
  // Undecided: a tool class without a graceful bail-out would still be
  // searching when the clock ran out.
  if (BailedOut && TreatBailAsTimeout)
    return Outcome::Timeout;
  return Outcome::Unknown;
}

std::string AnalysisResult::str() const {
  if (!Ok)
    return "analysis failed:\n" + Diagnostics;
  std::string Out;
  for (const MethodResult &M : Methods) {
    Out += M.Summary.str();
    if (M.SafetyFailed)
      Out += "  (safety verification failed)\n";
  }
  return Out;
}

AnalysisResult tnt::analyzeProgram(const std::string &Source,
                                   const AnalyzerConfig &Config) {
  auto Start = std::chrono::steady_clock::now();

  // Front end + group schedule (pipeline stage 1).
  std::unique_ptr<PreparedProgram> PP = prepareProgram(Source, Config);
  if (!PP->Ok) {
    AnalysisResult Result = finalizeProgram(*PP, {}, Config);
    Result.Millis = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - Start)
                        .count();
    return Result;
  }

  const size_t N = PP->Groups.size();
  std::vector<GroupRun> Runs(N);

  unsigned Threads = Config.Threads == 0 ? 1 : Config.Threads;
  if (Threads <= 1 || N <= 1) {
    // Sequential schedule: bottom-up group order (callee-first), the
    // classical regime. Same per-group isolation as the parallel path,
    // so both produce byte-identical results.
    for (size_t G = 0; G < N; ++G)
      Runs[G] = runPipelineGroup(*PP, Config, G);
  } else {
    // Parallel schedule over the SCC-group dependency DAG: a group is
    // ready once every group it calls into has been registered.
    std::vector<std::vector<size_t>> Dependents(N);
    std::vector<size_t> Pending(N);
    std::deque<size_t> Ready;
    for (size_t G = 0; G < N; ++G) {
      Pending[G] = PP->Deps[G].size();
      for (size_t D : PP->Deps[G])
        Dependents[D].push_back(G);
      if (Pending[G] == 0)
        Ready.push_back(G);
    }

    std::mutex Mu;
    std::condition_variable CV;
    size_t Finished = 0;
    auto Worker = [&]() {
      for (;;) {
        size_t G;
        {
          std::unique_lock<std::mutex> L(Mu);
          CV.wait(L, [&] { return !Ready.empty() || Finished == N; });
          if (Ready.empty())
            return; // All groups finished.
          G = Ready.front();
          Ready.pop_front();
        }
        Runs[G] = runPipelineGroup(*PP, Config, G);
        {
          std::lock_guard<std::mutex> L(Mu);
          ++Finished;
          for (size_t D : Dependents[G])
            if (--Pending[D] == 0)
              Ready.push_back(D);
        }
        CV.notify_all();
      }
    };
    std::vector<std::thread> Pool;
    unsigned PoolSize = std::min<unsigned>(Threads, static_cast<unsigned>(N));
    Pool.reserve(PoolSize);
    for (unsigned I = 0; I < PoolSize; ++I)
      Pool.emplace_back(Worker);
    for (std::thread &T : Pool)
      T.join();
  }

  AnalysisResult Result =
      finalizeProgram(*PP, std::move(Runs), Config);
  Result.Millis = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - Start)
                      .count();
  return Result;
}
