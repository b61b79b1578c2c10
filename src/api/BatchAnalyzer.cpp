//===- api/BatchAnalyzer.cpp ----------------------------------*- C++ -*-===//

#include "api/BatchAnalyzer.h"

#include "api/MetricsBridge.h"
#include "api/Pipeline.h"
#include "store/SpecStore.h"
#include "support/Metrics.h"
#include "support/Trace.h"
#include "support/WorkStealingPool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>

using namespace tnt;

namespace {

using Clock = std::chrono::steady_clock;

std::atomic<size_t> LiveEngines{0};

/// Mutable scheduling state of one program during phase 2.
struct ProgState {
  std::mutex Mu;
  std::vector<GroupRun> Runs;
  std::vector<size_t> Pending;              ///< Unfinished deps per group.
  std::vector<std::vector<size_t>> Dependents;
  size_t Finished = 0;
  double Millis = 0; ///< Summed group-task time (reported, not compared).
  /// Per-group profile rows (BatchOptions::Profile only), indexed by
  /// group so the post-run collection is in deterministic order.
  std::vector<GroupProfile> Rows;
};

} // namespace

LiveEngine::LiveEngine() { LiveEngines.fetch_add(1); }

LiveEngine::~LiveEngine() { LiveEngines.fetch_sub(1); }

size_t LiveEngine::count() { return LiveEngines.load(); }

BatchAnalyzer::BatchAnalyzer(BatchOptions Options) : Opt(std::move(Options)) {}

BatchResult BatchAnalyzer::run(const std::vector<BatchItem> &Items) {
  auto Start = Clock::now();

  BatchResult R;
  R.Threads = Opt.Threads == 0 ? 1 : Opt.Threads;
  const size_t NP = Items.size();
  R.Programs.resize(NP);
  for (size_t P = 0; P < NP; ++P) {
    R.Programs[P].Name = Items[P].Name;
    R.Programs[P].Category = Items[P].Category;
    R.Programs[P].Entry = Items[P].Entry;
  }
  if (NP == 0)
    return R;

  // The pipeline functions never read Config.Threads; the pool below
  // is the only thread budget. The batch-level store (incremental
  // mode) rides on the per-program config slot. Without a caller
  // store, an in-memory one lives for this run only: it serves in-run
  // dedup and nothing else.
  AnalyzerConfig CfgStorage = Opt.Program;
  if (Opt.Store != nullptr)
    CfgStorage.Store = Opt.Store;
  const bool CallerStore = CfgStorage.Store != nullptr;
  SpecStore RunStore;
  if (!CallerStore)
    CfgStorage.Store = &RunStore;
  const AnalyzerConfig &Cfg = CfgStorage;
  const uint64_t StoreMissesBefore = Cfg.Store->stats().Misses;

  WorkStealingPool Pool(R.Threads);

  // --- Phase 1: every program's front end, one pool task per program.
  // Each program gets its OWN VarPool::Session lease (the analysis
  // server's per-request mechanism), owned by its BatchProgramResult so
  // rendering can re-activate it later. Inside its session every
  // program runs VarPool's one block schedule — root block 0, group G
  // on block G + 1 — because sessions are private views: every id and
  // spelling a program mints, parsed identifiers included, is
  // positional, a function of that program alone, whichever worker
  // runs it and whatever runs beside it. That also makes store content
  // keys (block-qualified) identical across programs with
  // content-identical same-index groups, so twins share entries; and
  // block overflow, should a program ever mint ~16k groups, falls back
  // to the SESSION's id region — still positional, so even the overflow
  // tail keeps byte-determinism (pinned by VarPoolOverflowTest).
  std::vector<std::unique_ptr<PreparedProgram>> Prepared(NP);
  for (size_t P = 0; P < NP; ++P)
    Pool.submit([&, P] {
      R.Programs[P].Session = std::make_shared<VarPool::Session>();
      VarPool::SessionScope Active(*R.Programs[P].Session);
      trace::ScopedTag ProgTag("program", Items[P].Name);
      Prepared[P] = prepareProgram(Items[P].Source, Cfg);
    });
  // No group task starts before every front end is done. Outputs and
  // the hit/miss split do not depend on this barrier; it is a
  // scheduling choice. Letting each front-end task submit its own
  // ready groups instead lowered store-incremental's req_p50_ms and
  // peak_rss_mb but raised its cpu_s and req_p99_ms, and fig11-cold's
  // req_p50_ms (docs/ARCHITECTURE.md "Batch engine").
  Pool.wait();

  // --- Phase 2: all programs' group tasks share the pool. A finished
  // group releases its dependent groups; the last group of a program
  // finalizes it (the deterministic join).
  std::vector<std::unique_ptr<ProgState>> States(NP);

  auto Finalize = [&](size_t P) {
    ProgState &St = *States[P];
    trace::ScopedTag ProgTag("program", Items[P].Name);
    AnalysisResult A = finalizeProgram(*Prepared[P], std::move(St.Runs), Cfg);
    A.Millis = St.Millis;
    R.Programs[P].Verdict = A.outcome(Items[P].Entry);
    R.Programs[P].Result = std::move(A);
  };

  // Per-key singleflight: the first group to reach a key the store
  // cannot answer leads (runs it); later groups with that key park
  // here, holding no worker, until the leader's run returns. The
  // leader then resubmits them: they rehydrate its entry, or, when it
  // stored nothing (budget cut, deadline bail, fallback ids, a fresh
  // variable in its summaries), the first of them to run leads in
  // turn. Flights maps each key being led to the (program, group)
  // pairs parked on it.
  std::mutex FlightMu;
  std::map<std::string, std::vector<std::pair<size_t, size_t>>> Flights;

  // Group tasks submit their ready dependents themselves, so a
  // program's chain stays on the finishing worker's own deque while
  // idle workers steal independent programs.
  std::function<void(size_t, size_t)> RunGroupTask = [&](size_t P, size_t G) {
    // The key this task leads, if any. Checked under FlightMu, so a
    // leader's insert-then-release cannot slip between the store
    // lookup and the park.
    const std::string *Leads = nullptr;
    const PreparedProgram &PP = *Prepared[P];
    if (G < PP.GroupKeys.size()) {
      std::lock_guard<std::mutex> L(FlightMu);
      if (Cfg.Store->peek(PP.GroupKeys[G]) == nullptr) {
        auto [It, First] = Flights.try_emplace(PP.GroupKeys[G]);
        if (!First) {
          It->second.emplace_back(P, G);
          return;
        }
        Leads = &PP.GroupKeys[G];
      }
    }
    auto T0 = Clock::now();
    GroupRun Run;
    {
      // Activate this program's lease on the worker thread (sessions
      // are mutex-protected, so independent groups of one program may
      // run them concurrently).
      VarPool::SessionScope Active(*R.Programs[P].Session);
      trace::ScopedTag ProgTag("program", Items[P].Name);
      Run = runPipelineGroup(*Prepared[P], Cfg, G);
    }
    double Ms =
        std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
    if (Leads != nullptr) {
      std::vector<std::pair<size_t, size_t>> Followers;
      {
        std::lock_guard<std::mutex> L(FlightMu);
        auto It = Flights.find(*Leads);
        Followers = std::move(It->second);
        Flights.erase(It);
      }
      for (auto [FP, FG] : Followers)
        Pool.submit([&, FP, FG] { RunGroupTask(FP, FG); });
    }
    {
      static metrics::Histogram &GroupUs =
          metrics::Registry::get().histogram("batch.group_us");
      GroupUs.observe(static_cast<uint64_t>(Ms * 1000.0));
    }

    ProgState &St = *States[P];
    std::vector<size_t> NowReady;
    bool Done = false;
    {
      std::lock_guard<std::mutex> L(St.Mu);
      if (Opt.Profile) {
        GroupProfile &Row = St.Rows[G];
        Row.Program = Items[P].Name;
        Row.ProgramIdx = P;
        Row.Group = G;
        if (G < Prepared[P]->GroupKeys.size())
          Row.Key = Prepared[P]->GroupKeys[G];
        Row.Millis = Ms;
        Row.FromStore = Run.FromStore;
        Row.SatQueries = Run.Stats.SatQueries;
        Row.IntervalAnswered = Run.Stats.IntervalUnsat + Run.Stats.IntervalSat;
        Row.DnfQueries = Run.Stats.DnfQueries;
      }
      St.Runs[G] = std::move(Run);
      St.Millis += Ms;
      ++St.Finished;
      for (size_t D : St.Dependents[G])
        if (--St.Pending[D] == 0)
          NowReady.push_back(D);
      Done = St.Finished == St.Runs.size();
    }
    for (size_t D : NowReady)
      Pool.submit([&, P, D] { RunGroupTask(P, D); });
    if (Done)
      Finalize(P);
  };

  for (size_t P = 0; P < NP; ++P) {
    PreparedProgram &PP = *Prepared[P];
    if (!PP.Ok || PP.Groups.empty()) {
      Pool.submit([&, P] {
        States[P] = std::make_unique<ProgState>();
        Finalize(P);
      });
      continue;
    }
    const size_t N = PP.Groups.size();
    auto St = std::make_unique<ProgState>();
    St->Runs.resize(N);
    St->Pending.resize(N);
    St->Dependents.resize(N);
    if (Opt.Profile)
      St->Rows.resize(N);
    std::vector<size_t> Ready;
    for (size_t G = 0; G < N; ++G) {
      St->Pending[G] = PP.Deps[G].size();
      for (size_t D : PP.Deps[G])
        St->Dependents[D].push_back(G);
      if (St->Pending[G] == 0)
        Ready.push_back(G);
    }
    States[P] = std::move(St);
    for (size_t G : Ready)
      Pool.submit([&, P, G] { RunGroupTask(P, G); });
  }
  Pool.wait();

  R.CondTermEnabled = Cfg.Solve.EnableCondTerm;
  for (const BatchProgramResult &PR : R.Programs) {
    R.Usage += PR.Result.SolverUsage;
    R.CondTerm += PR.Result.CondTerm;
    R.StoreHits += PR.Result.GroupsFromStore;
  }
  R.StoreMisses = Cfg.Store->stats().Misses - StoreMissesBefore;
  if (Opt.Profile)
    for (size_t P = 0; P < NP; ++P)
      if (States[P])
        for (GroupProfile &Row : States[P]->Rows)
          R.Profile.push_back(std::move(Row));
  R.Millis = std::chrono::duration<double, std::milli>(Clock::now() - Start)
                 .count();

  // Fold the batch's counters into the unified registry — observability
  // export only; nothing reads these back into analysis.
  metrics::Registry &M = metrics::Registry::get();
  M.setGauge("batch.programs", static_cast<int64_t>(R.Programs.size()));
  M.setGauge("batch.threads", R.Threads);
  M.setGauge("batch.store_hits", static_cast<int64_t>(R.StoreHits));
  M.setGauge("batch.store_misses", static_cast<int64_t>(R.StoreMisses));
  bridgeSolverStats("solver.", R.Usage);
  bridgeCondTermStats("cond_term.", R.CondTerm);
  if (CallerStore)
    bridgeSpecStoreStats("spec_store.", Cfg.Store->stats());
  return R;
}

std::vector<std::pair<std::string, CategoryCounts>>
BatchResult::perCategory() const {
  std::vector<std::pair<std::string, CategoryCounts>> Out;
  auto row = [&](const std::string &Cat) -> CategoryCounts & {
    for (auto &[Name, Counts] : Out)
      if (Name == Cat)
        return Counts;
    Out.emplace_back(Cat, CategoryCounts());
    return Out.back().second;
  };
  for (const BatchProgramResult &P : Programs) {
    CategoryCounts &C = row(P.Category);
    ++C.Programs;
    switch (P.Verdict) {
    case Outcome::Yes:
      ++C.Yes;
      break;
    case Outcome::No:
      ++C.No;
      break;
    case Outcome::Unknown:
      ++C.Unknown;
      break;
    case Outcome::Timeout:
      ++C.Timeout;
      break;
    }
    // Cond: some scenario of the program published a condition that is
    // neither the constant true nor false — the actionable answers.
    // Scans every method, not just the entry: the Fig. 11 entries are
    // parameterless drivers with concrete seeds (their own condition
    // degenerates to true/false), while the conditional answer lives
    // on the loop methods they call. Syntactic on the (canonically
    // interned) formula, so cold and warm-store runs agree
    // byte-for-byte.
    for (const MethodResult &MR : P.Result.Methods)
      if (MR.Summary.HasTermCond && !MR.Summary.TermCond.isTop() &&
          !MR.Summary.TermCond.isBottom()) {
        ++C.Cond;
        break;
      }
    C.Millis += P.Result.Millis;
  }
  return Out;
}

std::string BatchResult::table() const {
  // The Cond column appears only in conditional-termination mode, so
  // the default-mode Fig. 10/11 table stays byte-identical.
  std::string Out;
  char Buf[160];
  if (CondTermEnabled)
    std::snprintf(Buf, sizeof(Buf), "%-16s %5s %5s %5s %5s %5s %5s %10s\n",
                  "Benchmark", "#", "Y", "N", "U", "T/O", "Cond", "Time(ms)");
  else
    std::snprintf(Buf, sizeof(Buf), "%-16s %5s %5s %5s %5s %5s %10s\n",
                  "Benchmark", "#", "Y", "N", "U", "T/O", "Time(ms)");
  Out += Buf;
  CategoryCounts Total;
  auto emitRow = [&](const char *Name, const CategoryCounts &C) {
    if (CondTermEnabled)
      std::snprintf(Buf, sizeof(Buf),
                    "%-16s %5u %5u %5u %5u %5u %5u %10.1f\n", Name,
                    C.Programs, C.Yes, C.No, C.Unknown, C.Timeout, C.Cond,
                    C.Millis);
    else
      std::snprintf(Buf, sizeof(Buf), "%-16s %5u %5u %5u %5u %5u %10.1f\n",
                    Name, C.Programs, C.Yes, C.No, C.Unknown, C.Timeout,
                    C.Millis);
    Out += Buf;
  };
  for (const auto &[Cat, C] : perCategory()) {
    emitRow(Cat.c_str(), C);
    Total.Programs += C.Programs;
    Total.Yes += C.Yes;
    Total.No += C.No;
    Total.Unknown += C.Unknown;
    Total.Timeout += C.Timeout;
    Total.Cond += C.Cond;
    Total.Millis += C.Millis;
  }
  emitRow("Total", Total);
  return Out;
}

std::string BatchResult::renderOutcomes() const {
  std::string Out;
  for (const BatchProgramResult &P : Programs) {
    // Spellings resolve through the lease the program analyzed under;
    // without it a session-minted VarId has no name here.
    std::optional<VarPool::SessionScope> Active;
    if (P.Session)
      Active.emplace(*P.Session);
    Out += "== " + P.Name + " [" + P.Category + "] entry '" + P.Entry +
           "': " + outcomeStr(P.Verdict) + "\n";
    Out += P.Result.str();
  }
  return Out;
}

std::string BatchResult::profileTable(size_t TopN) const {
  if (Profile.empty())
    return std::string();
  std::vector<const GroupProfile *> Rows;
  Rows.reserve(Profile.size());
  for (const GroupProfile &Row : Profile)
    Rows.push_back(&Row);
  std::sort(Rows.begin(), Rows.end(),
            [](const GroupProfile *A, const GroupProfile *B) {
              if (A->Millis != B->Millis)
                return A->Millis > B->Millis;
              if (A->ProgramIdx != B->ProgramIdx)
                return A->ProgramIdx < B->ProgramIdx;
              return A->Group < B->Group;
            });
  if (Rows.size() > TopN)
    Rows.resize(TopN);

  std::string Out = "Slowest groups (top " + std::to_string(Rows.size()) +
                    " of " + std::to_string(Profile.size()) + "):\n";
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf), "%-24s %5s %10s %8s %8s %8s %6s\n",
                "Program", "Grp", "Time(ms)", "SatQ", "Intv", "DnfQ",
                "Store");
  Out += Buf;
  for (const GroupProfile *Row : Rows) {
    std::snprintf(Buf, sizeof(Buf),
                  "%-24s %5zu %10.2f %8llu %8llu %8llu %6s\n",
                  Row->Program.c_str(), Row->Group, Row->Millis,
                  static_cast<unsigned long long>(Row->SatQueries),
                  static_cast<unsigned long long>(Row->IntervalAnswered),
                  static_cast<unsigned long long>(Row->DnfQueries),
                  Row->FromStore ? "hit" : "-");
    Out += Buf;
  }
  return Out;
}
