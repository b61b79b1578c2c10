//===- perfbench/driver.cpp - Benchmark workload driver --------*- C++ -*-===//
//
// Part of the hiptntpp project: a reproduction of "Termination and
// Non-Termination Specification Inference" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one benchmark workload through the library's public entry points
/// (BatchAnalyzer::run, ConcurrentAnalysisServer over its unix socket,
/// SpecStore::load/save) and writes the raw observations — per-unit
/// times, latency samples, counters, correctness gates, the trace file —
/// as one JSON object. run.py turns that object into the reported
/// metrics; this file measures, it does not summarize.
///
///   perfbench_driver --workload <fig11-cold|serve-stream|store-incremental>
///                    --seed N --seconds S --trace 0|1
///                    --workdir DIR --out RAW.json
///
/// One process measures one unit of work of fig11-cold (a cold pass),
/// one stream of --seconds for serve-stream, and store rounds filling
/// --seconds for store-incremental. With --trace 1 the measured work runs
/// traced and the trace is written to DIR/trace.json. Every input is a
/// function of --seed (and, for serve-stream, of --seconds, which sets the
/// stream length). The library sees only the generated programs and
/// requests.
///
//===----------------------------------------------------------------------===//

#include "api/AnalysisServer.h"
#include "api/BatchAnalyzer.h"
#include "api/ConcurrentServer.h"
#include "arith/Intern.h"
#include "store/SpecStore.h"
#include "support/Json.h"
#include "support/Trace.h"
#include "support/UnixSocket.h"
#include "workloads/Corpus.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace tnt;

namespace {

using Clock = std::chrono::steady_clock;

/// Worker threads of every workload: the 4-core configuration the
/// benchmark is defined on.
constexpr unsigned Workers = 4;

/// serve-stream arrival rate: about half the 4-worker closed-loop
/// capacity (~910 req/s) of the build the benchmark was defined on.
constexpr double ServeRate = 450.0;
/// Responses byte-compared against the serial reference per stream.
constexpr size_t ServeSamples = 256;

/// store-incremental: distinct edit sets cycled through the rounds, and
/// the share of the pool each one edits.
constexpr size_t EditSets = 4;
constexpr double EditShare = 0.10;

/// The Fig. 11 golden verdict counts (Y, N, U, T/O).
constexpr unsigned Fig11Golden[4] = {171, 38, 12, 0};

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

double cpuSeconds(int Who) {
  rusage U{};
  getrusage(Who, &U);
  auto Tv = [](const timeval &T) { return T.tv_sec + T.tv_usec / 1e6; };
  return Tv(U.ru_utime) + Tv(U.ru_stime);
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux.
}

/// splitmix64: a tiny seeded generator whose output is fixed by the
/// seed alone (std:: distributions differ across standard libraries).
struct Rng {
  uint64_t S;
  Rng(uint64_t Seed, uint64_t Stream)
      : S(Seed * 0x9E3779B97F4A7C15ull ^ Stream) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) { return next() % N; }
  /// Uniform in [0, 1).
  double unit() { return (next() >> 11) * 0x1.0p-53; }
  template <class T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }
};

/// A flat JSON object writer for the raw result.
class RawJson {
public:
  void num(const std::string &K, double V) {
    char Buf[64];
    std::snprintf(Buf, sizeof Buf, "%.17g", V);
    field(K, std::isfinite(V) ? Buf : "null");
  }
  void count(const std::string &K, uint64_t V) { field(K, std::to_string(V)); }
  void flag(const std::string &K, bool V) { field(K, V ? "true" : "false"); }
  void str(const std::string &K, const std::string &V) {
    field(K, json::quoted(V));
  }
  /// Non-finite samples (a failed request's latency) become null.
  void nums(const std::string &K, const std::vector<double> &Vs) {
    std::string A = "[";
    char Buf[64];
    for (size_t I = 0; I < Vs.size(); ++I) {
      std::snprintf(Buf, sizeof Buf, "%.17g", Vs[I]);
      A += (I ? "," : "");
      A += std::isfinite(Vs[I]) ? Buf : "null";
    }
    field(K, A + "]");
  }
  void raw(const std::string &K, const std::string &Json) { field(K, Json); }
  std::string text() const { return "{" + Body + "}"; }

private:
  void field(const std::string &K, const std::string &V) {
    Body += (Body.empty() ? "" : ",") + json::quoted(K) + ":" + V;
  }
  std::string Body;
};

/// Correctness bookkeeping shared by every workload.
struct Gate {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;   ///< Errored, shed, missing or byte-mismatched.
  uint64_t Unsound = 0;  ///< Verdicts contradicting ground truth.
  uint64_t Decided = 0;  ///< Y or N answers.
  std::vector<std::string> Errors; ///< Gate violations (correct=false).

  void verdict(const BenchProgram &P, Outcome O) {
    ++Attempted;
    if (O == Outcome::Yes || O == Outcome::No)
      ++Decided;
    if (!soundAnswer(P, O))
      ++Unsound;
  }
  void emit(RawJson &J) const {
    std::vector<std::string> All = Errors;
    if (Unsound != 0)
      All.push_back(std::to_string(Unsound) + " unsound verdict(s)");
    std::string A = "[";
    for (size_t I = 0; I < All.size(); ++I)
      A += (I ? "," : "") + json::quoted(All[I]);
    J.raw("errors", A + "]");
    J.flag("correct", All.empty());
    J.count("attempted", Attempted);
    J.count("failed", Failed);
    J.count("unsound", Unsound);
    J.count("decided", Decided);
  }
};

/// Runs \p Setup \p Repeats times, recording each duration (setup_s is
/// their median).
template <class T>
T timedSetup(int Repeats, const std::function<T()> &Setup,
             std::vector<double> &Times) {
  T Last;
  for (int I = 0; I < Repeats; ++I) {
    auto T0 = Clock::now();
    Last = Setup();
    Times.push_back(secondsSince(T0));
  }
  return Last;
}

/// The corpus minus the gcd-like family: the 329 short programs of the
/// serve and store workloads (one gcd-like request costs seconds of LP
/// and would turn either into fig11-cold).
std::vector<const BenchProgram *> shortPool() {
  std::vector<const BenchProgram *> Out;
  for (const BenchProgram &P : corpus())
    if (P.Name.find("gcd-like") == std::string::npos)
      Out.push_back(&P);
  return Out;
}

/// Per-program group-task milliseconds of one batch (Profile rows).
std::vector<double> programMillis(const BatchResult &R) {
  std::vector<double> Ms(R.Programs.size(), 0.0);
  for (const GroupProfile &Row : R.Profile)
    Ms[Row.ProgramIdx] += Row.Millis;
  return Ms;
}

/// One program's rendered outcome, exactly as renderOutcomes() shows it
/// inside a whole batch.
std::string renderOne(const BatchResult &R, size_t I) {
  BatchResult One;
  One.Programs.push_back(R.Programs[I]);
  return One.renderOutcomes();
}

/// Counters of one traced execution, named as run.py expects them.
void emitSolver(RawJson &J, const SolverStats &S, const GlobalCacheStats &G) {
  J.count("sat_queries", S.SatQueries);
  J.count("cache_hits", S.CacheHits);
  J.count("cache_misses", S.CacheMisses);
  J.count("lp_solves", S.LpSolves);
  J.count("interval_answered", S.IntervalUnsat + S.IntervalSat);
  J.count("tier_sat_lookups", G.SatLookups);
  J.count("tier_sat_hits", G.SatHits);
  J.count("core_probes", G.CoreProbes);
  J.count("lemma_hits", G.LemmaHits);
}

bool writeTrace(const std::string &Path, RawJson &J, std::string &Err) {
  trace::stop();
  J.count("trace_dropped", trace::dropCount());
  J.str("trace_file", Path);
  return trace::writeJson(Path, &Err);
}

//===----------------------------------------------------------------------===//
// fig11-cold
//===----------------------------------------------------------------------===//

struct Fig11Inputs {
  std::vector<BatchItem> Items;
  std::vector<const BenchProgram *> Truth;
};

BatchOptions fig11Options() {
  BatchOptions O;
  O.Threads = Workers;
  O.GlobalTier = true;
  O.Profile = true;
  return O;
}

void checkFig11(const BatchResult &R, const Fig11Inputs &In, Gate &G) {
  unsigned Counts[4] = {0, 0, 0, 0};
  for (size_t I = 0; I < R.Programs.size(); ++I) {
    const BatchProgramResult &P = R.Programs[I];
    G.verdict(*In.Truth[I], P.Verdict);
    if (!P.Result.Ok)
      ++G.Failed;
    ++Counts[static_cast<int>(P.Verdict)];
  }
  // Outcome is declared Yes, No, Unknown, Timeout.
  if (!std::equal(Counts, Counts + 4, Fig11Golden))
    G.Errors.push_back("fig11 verdicts " + std::to_string(Counts[0]) + "/" +
                       std::to_string(Counts[1]) + "/" +
                       std::to_string(Counts[2]) + "/" +
                       std::to_string(Counts[3]) + " != 171/38/12/0");
}

/// One cold pass per process: a second pass in the same process would
/// start with a warm intern table, so run.py repeats processes instead.
void runFig11(uint64_t Seed, bool Traced, const std::string &Workdir,
              RawJson &J) {
  std::vector<double> SetupTimes;
  Fig11Inputs In = timedSetup<Fig11Inputs>(
      201, [&] {
        Fig11Inputs I;
        I.Truth = loopBasedPrograms();
        Rng R(Seed, 11);
        R.shuffle(I.Truth);
        for (const BenchProgram *P : I.Truth)
          I.Items.push_back({P->Name, P->Category, P->Source, P->Entry});
        return I;
      },
      SetupTimes);
  J.nums("setup_s", SetupTimes);

  Gate G;
  if (Traced)
    trace::start();
  double C0 = cpuSeconds(RUSAGE_SELF);
  auto T0 = Clock::now();
  BatchAnalyzer BA(fig11Options());
  BatchResult R;
  {
    trace::Span S("batch_run", "bench");
    R = BA.run(In.Items);
  }
  const double Wall = secondsSince(T0);
  J.nums("wall_s", {Wall});
  J.nums("cpu_s", {cpuSeconds(RUSAGE_SELF) - C0});
  J.nums("latency_ms", programMillis(R));
  J.num("peak_rss_mb", peakRssMb());
  checkFig11(R, In, G);

  if (Traced) {
    std::string Err;
    if (!writeTrace(Workdir + "/trace.json", J, Err))
      G.Errors.push_back("trace write failed: " + Err);
    double BusyMs = 0;
    for (const GroupProfile &Row : R.Profile)
      BusyMs += Row.Millis;
    J.num("busy_frac", BusyMs / (Wall * 1000.0 * Workers));
    emitSolver(J, R.Usage, R.Global);
    J.count("arena_bytes", ArithIntern::global().arenaBytes());

    // A keyed pass with an in-memory store names every group's content
    // key; its prescan snapshot is empty, so no group replays.
    BatchOptions KO = fig11Options();
    SpecStore Keys(SpecStore::configFingerprint(KO.Program));
    KO.Store = &Keys;
    BatchAnalyzer KA(KO);
    BatchResult KR = KA.run(In.Items);
    std::set<std::string> Distinct;
    for (const GroupProfile &Row : KR.Profile)
      Distinct.insert(Row.Key);
    J.count("keyed_groups", KR.Profile.size());
    J.count("distinct_keys", Distinct.size());
  }
  G.emit(J);
}

//===----------------------------------------------------------------------===//
// serve-stream
//===----------------------------------------------------------------------===//

struct ServeInputs {
  std::vector<double> SendAt;              ///< Seconds after stream start.
  std::vector<std::string> Lines;          ///< Request lines, id = index+1.
  std::vector<const BenchProgram *> Truth; ///< Base program per request.
  std::map<size_t, std::string> Expected;  ///< Sampled index -> response.
};

ServeInputs makeServeInputs(uint64_t Seed, double Seconds) {
  ServeInputs In;
  std::vector<const BenchProgram *> Pool = shortPool();
  std::vector<std::string> Sources;
  Rng Arrivals(Seed, 21), Draws(Seed, 22), Salts(Seed, 23);
  for (double T = 0;;) {
    T += -std::log(1.0 - Arrivals.unit()) / ServeRate;
    if (T >= Seconds)
      break;
    const BenchProgram *P = Pool[Draws.below(Pool.size())];
    In.SendAt.push_back(T);
    In.Truth.push_back(P);
    Sources.push_back(soakVariantSource(P->Source, Salts.next()));
    In.Lines.push_back(soakRequestJson(Sources.size(), Sources.back()) + "\n");
  }
  // The serial reference for a seeded sample: a fresh session run of the
  // same source with no tier, framed exactly like a server response.
  std::vector<size_t> Idx(In.Lines.size());
  for (size_t I = 0; I < Idx.size(); ++I)
    Idx[I] = I;
  Rng Pick(Seed, 24);
  Pick.shuffle(Idx);
  Idx.resize(std::min(Idx.size(), ServeSamples));
  ServerOptions Defaults;
  for (size_t I : Idx)
    In.Expected[I] = "{\"id\":" + std::to_string(I + 1) + "," +
                     runProgramRequest(Sources[I], "main", Defaults.Program,
                                       nullptr)
                         .Body +
                     "}";
  return In;
}

struct Response {
  double RecvAt = -1; ///< Seconds after stream start; <0: never arrived.
  bool Ok = false; ///< False for errors and load-shed responses.
  char Verdict = '?';
  std::string Line; ///< Kept only for sampled requests.
};

struct StreamResult {
  std::vector<double> Latency; ///< ms from scheduled send; inf = failed.
  std::vector<double> Lag;     ///< ms the generator sent late.
  double Wall = 0;             ///< First scheduled send -> last response.
  double Cpu = 0;              ///< Server-side CPU seconds.
  std::string MetricsBefore, MetricsAfter;
  ServerStats Stats;
  uint64_t Shed = 0;
};

/// One open-loop stream against a fresh server: a single generator
/// thread sends each request at its scheduled time over Workers
/// connections, one reader thread per connection collects responses.
StreamResult runStream(const ServeInputs &In, const std::string &Workdir,
                       Gate &G) {
  StreamResult Out;
  ConcurrentServerOptions CO;
  CO.Workers = Workers;
  CO.SocketPath = Workdir + "/serve.sock";
  ConcurrentAnalysisServer Server(CO);
  std::string ServeErr;
  int ServeRc = 0;
  std::thread ServerThread(
      [&] { ServeRc = Server.serveSocket(&ServeErr); });

  std::vector<int> Fds;
  for (unsigned C = 0; C < Workers; ++C) {
    int Fd = -1;
    auto Deadline = Clock::now() + std::chrono::seconds(10);
    while ((Fd = unixConnect(CO.SocketPath)) < 0 && Clock::now() < Deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    if (Fd < 0) {
      G.Errors.push_back("cannot connect to " + CO.SocketPath);
      break;
    }
    Fds.push_back(Fd);
  }

  const size_t N = In.Lines.size();
  std::vector<Response> Resp(N);
  std::atomic<size_t> Received{0};
  std::mutex CpuMu;
  double ClientCpu = 0;
  Clock::time_point Start = Clock::now() + std::chrono::milliseconds(50);
  auto Since = [&](Clock::time_point T) {
    return std::chrono::duration<double>(T - Start).count();
  };

  std::vector<std::thread> Readers;
  for (int Fd : Fds)
    Readers.emplace_back([&, Fd] {
      double C0 = cpuSeconds(RUSAGE_THREAD);
      LineReader LR(Fd);
      std::string Line;
      while (LR.readLine(Line)) {
        double At = Since(Clock::now());
        if (Line.compare(0, 6, "{\"id\":") != 0)
          continue;
        size_t Id = std::strtoull(Line.c_str() + 6, nullptr, 10);
        if (Id == 0 || Id > N)
          continue;
        Response &R = Resp[Id - 1];
        R.RecvAt = At;
        R.Ok = Line.find("\"ok\":true") != std::string::npos;
        size_t V = Line.find("\"verdict\":\"");
        if (V != std::string::npos)
          R.Verdict = Line[V + 11];
        if (In.Expected.count(Id - 1))
          R.Line = Line;
        Received.fetch_add(1);
      }
      std::lock_guard<std::mutex> L(CpuMu);
      ClientCpu += cpuSeconds(RUSAGE_THREAD) - C0;
    });

  Out.MetricsBefore = Server.submitAndWait("{\"id\":0,\"verb\":\"metrics\"}");
  double ProcCpu0 = cpuSeconds(RUSAGE_SELF);
  double GenCpu0 = cpuSeconds(RUSAGE_THREAD);
  Out.Lag.resize(N);
  if (Fds.size() == Workers) {
    trace::Span S("stream", "bench");
    for (size_t I = 0; I < N; ++I) {
      auto Due = Start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(In.SendAt[I]));
      std::this_thread::sleep_until(Due);
      Out.Lag[I] = (Since(Clock::now()) - In.SendAt[I]) * 1000.0;
      const std::string &L = In.Lines[I];
      if (!writeAll(Fds[I % Workers], L.data(), L.size()))
        G.Errors.push_back("send failed for request " + std::to_string(I + 1));
    }
    auto Deadline = Clock::now() + std::chrono::seconds(60);
    while (Received.load() < N && Clock::now() < Deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  double GenCpu = cpuSeconds(RUSAGE_THREAD) - GenCpu0;
  double ProcCpu = cpuSeconds(RUSAGE_SELF) - ProcCpu0;
  Out.MetricsAfter = Server.submitAndWait("{\"id\":0,\"verb\":\"metrics\"}");
  Out.Stats = Server.stats();
  Out.Shed = Server.shedCount();

  Server.requestShutdown();
  for (std::thread &T : Readers)
    T.join();
  ServerThread.join();
  for (int Fd : Fds)
    closeFd(Fd);
  if (ServeRc != 0)
    G.Errors.push_back("serveSocket failed: " + ServeErr);
  Out.Cpu = ProcCpu - GenCpu - ClientCpu;

  for (size_t I = 0; I < N; ++I) {
    const Response &R = Resp[I];
    bool Failed = R.RecvAt < 0 || !R.Ok;
    auto Exp = In.Expected.find(I);
    if (!Failed && Exp != In.Expected.end() && R.Line != Exp->second) {
      Failed = true;
      G.Errors.push_back("response " + std::to_string(I + 1) +
                         " differs from the serial reference");
    }
    if (Failed)
      ++G.Failed;
    G.verdict(*In.Truth[I], R.Verdict == 'Y'   ? Outcome::Yes
                            : R.Verdict == 'N' ? Outcome::No
                                               : Outcome::Unknown);
    Out.Latency.push_back(Failed ? INFINITY
                                 : (R.RecvAt - In.SendAt[I]) * 1000.0);
    Out.Wall = std::max(Out.Wall, R.RecvAt);
  }
  if (!In.SendAt.empty())
    Out.Wall -= In.SendAt.front();
  return Out;
}

void runServe(uint64_t Seed, double Seconds, bool Traced,
              const std::string &Workdir, RawJson &J) {
  std::vector<double> SetupTimes;
  ServeInputs In = timedSetup<ServeInputs>(
      3, [&] { return makeServeInputs(Seed, Seconds); }, SetupTimes);
  J.nums("setup_s", SetupTimes);

  Gate G;
  if (Traced)
    trace::start();
  StreamResult R = runStream(In, Workdir, G);
  if (Traced) {
    std::string Err;
    if (!writeTrace(Workdir + "/trace.json", J, Err))
      G.Errors.push_back("trace write failed: " + Err);
    J.raw("metrics_before", R.MetricsBefore);
    J.raw("metrics_after", R.MetricsAfter);
    emitSolver(J, R.Stats.Usage, R.Stats.Global);
    J.count("arena_bytes", R.Stats.InternArenaBytes);
    J.count("reclaims", R.Stats.Reclaims);
    J.count("shed", R.Shed);
  }
  J.nums("wall_s", {R.Wall});
  J.nums("cpu_s", {R.Cpu});
  J.nums("latency_ms", R.Latency);
  J.nums("gen_lag_ms", R.Lag);
  J.num("peak_rss_mb", peakRssMb());
  G.emit(J);
}

//===----------------------------------------------------------------------===//
// store-incremental
//===----------------------------------------------------------------------===//

struct StoreInputs {
  std::vector<const BenchProgram *> Pool;
  /// Per edit set: the batch items (edited or not) and, per item, the
  /// rendering of a cold, store-less analysis of it.
  std::vector<std::vector<BatchItem>> Sets;
  std::vector<std::vector<std::string>> Expected;
  std::string BaseStore; ///< The populated store file.
};

BatchOptions storeOptions(SpecStore *Store) {
  BatchOptions O;
  O.Threads = Workers;
  O.GlobalTier = true;
  O.Profile = true;
  O.Store = Store;
  return O;
}

/// An edit that changes content (and so store keys) but not the verdict:
/// an unreachable, terminating helper whose constants come from the seed.
/// The content hash ignores identifier spellings, so the constants are
/// what make each edit a new key.
std::string editedSource(const std::string &Base, Rng &R) {
  std::string C1 = std::to_string(static_cast<int>(R.below(1000)) - 500);
  std::string C2 = std::to_string(1 + R.below(7));
  std::string C3 = std::to_string(R.below(10));
  return Base + "\nint pbedit(int a, int b)\n{\n  if (a <= " + C1 +
         ") return b;\n  else return pbedit(a - " + C2 + ", b + " + C3 +
         ");\n}\n";
}

StoreInputs makeStoreInputs(uint64_t Seed, const std::string &Workdir) {
  StoreInputs In;
  In.Pool = shortPool();
  In.BaseStore = Workdir + "/base-store.json";
  std::vector<BatchItem> Base;
  for (const BenchProgram *P : In.Pool)
    Base.push_back({P->Name, P->Category, P->Source, P->Entry});

  // Cold populate: the store a CI cache would hold before the edits; its
  // rendering is also the reference for every unedited program.
  std::vector<std::string> BaseRef(Base.size());
  {
    BatchOptions O = storeOptions(nullptr);
    SpecStore S(SpecStore::configFingerprint(O.Program));
    O.Store = &S;
    BatchAnalyzer BA(O);
    BatchResult R = BA.run(Base);
    for (size_t I = 0; I < R.Programs.size(); ++I)
      BaseRef[I] = renderOne(R, I);
    S.setOutcomesDigest(Base.size(), SpecStore::fnv1a(R.renderOutcomes()));
    S.setSatSnapshot(BA.globalTier()->exportSatSnapshot());
    S.setLemmaSnapshot(BA.globalTier()->exportLemmas());
    S.save(In.BaseStore);
  }

  Rng R(Seed, 31);
  const size_t PerSet = static_cast<size_t>(std::lround(EditShare * Base.size()));
  std::vector<BatchItem> EditedItems;
  std::vector<std::pair<size_t, size_t>> EditedAt; // (set, program)
  for (size_t Set = 0; Set < EditSets; ++Set) {
    std::vector<size_t> Idx(Base.size());
    for (size_t I = 0; I < Idx.size(); ++I)
      Idx[I] = I;
    R.shuffle(Idx);
    Idx.resize(PerSet);
    std::sort(Idx.begin(), Idx.end());
    In.Sets.push_back(Base);
    for (size_t I : Idx) {
      In.Sets.back()[I].Source = editedSource(Base[I].Source, R);
      EditedItems.push_back(In.Sets.back()[I]);
      EditedAt.push_back({Set, I});
    }
  }

  // Cold, store-less analysis of every edited program.
  BatchOptions O = storeOptions(nullptr);
  BatchAnalyzer BA(O);
  BatchResult ER = BA.run(EditedItems);
  In.Expected.assign(EditSets, BaseRef);
  for (size_t K = 0; K < EditedAt.size(); ++K)
    In.Expected[EditedAt[K].first][EditedAt[K].second] = renderOne(ER, K);
  return In;
}

struct RoundResult {
  double Wall = 0, Cpu = 0;
  uint64_t Hits = 0, Misses = 0;
  uintmax_t StoreBytes = 0;
};

/// One CI round: restore the populated store (untimed), then time load,
/// re-analysis of the edited pool, and save.
RoundResult runRound(const StoreInputs &In, size_t Set,
                     const std::string &Workdir, Gate &G,
                     std::vector<double> &Latency, BatchResult *Keep) {
  RoundResult Out;
  const std::string Work = Workdir + "/store.json";
  std::filesystem::copy_file(In.BaseStore, Work,
                             std::filesystem::copy_options::overwrite_existing);
  double C0 = cpuSeconds(RUSAGE_SELF);
  auto T0 = Clock::now();
  BatchOptions O = storeOptions(nullptr);
  SpecStore S(SpecStore::configFingerprint(O.Program));
  std::string Err;
  bool Loaded;
  {
    trace::Span Sp("store_load", "bench");
    Loaded = S.load(Work, &Err);
  }
  O.Store = &S;
  BatchAnalyzer BA(O);
  BA.globalTier()->importSatSnapshot(S.satSnapshot());
  BA.globalTier()->importLemmaSnapshot(S.lemmaSnapshot());
  BatchResult R;
  {
    trace::Span Sp("batch_run", "bench");
    R = BA.run(In.Sets[Set]);
  }
  std::string Rendered = R.renderOutcomes();
  S.setOutcomesDigest(R.Programs.size(), SpecStore::fnv1a(Rendered));
  S.setSatSnapshot(BA.globalTier()->exportSatSnapshot());
  S.setLemmaSnapshot(BA.globalTier()->exportLemmas());
  bool Saved;
  {
    trace::Span Sp("store_save", "bench");
    Saved = S.save(Work, &Err);
  }
  Out.Wall = secondsSince(T0);
  Out.Cpu = cpuSeconds(RUSAGE_SELF) - C0;
  Out.Hits = R.StoreHits;
  Out.Misses = R.StoreMisses;
  std::error_code Ec;
  Out.StoreBytes = std::filesystem::file_size(Work, Ec);

  if (!Loaded || !Saved)
    G.Errors.push_back("store I/O failed: " + Err);
  if (S.stats().LoadDiscarded || S.stats().LoadedGroups == 0)
    G.Errors.push_back("round did not load the populated store");
  if (Out.Hits == 0 || Out.Misses == 0)
    G.Errors.push_back("round without both store hits and misses");
  for (size_t I = 0; I < R.Programs.size(); ++I) {
    G.verdict(*In.Pool[I], R.Programs[I].Verdict);
    if (!R.Programs[I].Result.Ok)
      ++G.Failed;
  }
  std::string Expected;
  for (const std::string &One : In.Expected[Set])
    Expected += One;
  if (Rendered != Expected) {
    // Output bytes are the contract: every differing program fails.
    size_t Bad = 0;
    for (size_t I = 0; I < R.Programs.size(); ++I)
      Bad += renderOne(R, I) != In.Expected[Set][I] ? 1 : 0;
    G.Failed += Bad;
    G.Errors.push_back("round outcomes differ from the cold analysis (" +
                       std::to_string(Bad) + " program(s))");
  }
  for (double Ms : programMillis(R))
    Latency.push_back(Ms);
  if (Keep)
    *Keep = std::move(R);
  return Out;
}

void runStore(uint64_t Seed, double Seconds, bool Traced,
              const std::string &Workdir, RawJson &J) {
  std::vector<double> SetupTimes;
  StoreInputs In = timedSetup<StoreInputs>(
      3, [&] { return makeStoreInputs(Seed, Workdir); }, SetupTimes);
  J.nums("setup_s", SetupTimes);

  Gate G;
  std::vector<double> Walls, Cpus, Latency;
  std::vector<double> Hits, Misses, Bytes;
  auto Record = [&](const RoundResult &R) {
    Walls.push_back(R.Wall);
    Cpus.push_back(R.Cpu);
    Hits.push_back(static_cast<double>(R.Hits));
    Misses.push_back(static_cast<double>(R.Misses));
    Bytes.push_back(static_cast<double>(R.StoreBytes));
  };
  // Peak memory after set-up and one cycle over the edit sets: interned
  // terms of every round's edits accumulate in one process, so a later
  // sample would grow with the number of rounds, i.e. with speed.
  double PeakRss = 0;
  if (!Traced) {
    auto Start = Clock::now();
    size_t Round = 0;
    do {
      Record(runRound(In, Round++ % EditSets, Workdir, G, Latency, nullptr));
      if (Round == EditSets)
        PeakRss = peakRssMb();
    } while (secondsSince(Start) < Seconds || Round < EditSets);
  } else {
    // Two cycles over the edit sets: fixed work, whatever the speed.
    const size_t Rounds = 2 * EditSets;
    trace::start();
    SolverStats Usage;
    GlobalCacheStats Global;
    double BusyMs = 0, WallMs = 0;
    for (size_t Round = 0; Round < Rounds; ++Round) {
      BatchResult R;
      Record(runRound(In, Round % EditSets, Workdir, G, Latency, &R));
      Usage += R.Usage;
      Global.SatLookups += R.Global.SatLookups;
      Global.SatHits += R.Global.SatHits;
      Global.CoreProbes += R.Global.CoreProbes;
      Global.LemmaHits += R.Global.LemmaHits;
      for (const GroupProfile &Row : R.Profile)
        BusyMs += Row.Millis;
      WallMs += R.Millis;
    }
    std::string Err;
    if (!writeTrace(Workdir + "/trace.json", J, Err))
      G.Errors.push_back("trace write failed: " + Err);
    J.num("busy_frac", BusyMs / (WallMs * Workers));
    J.count("rounds", Rounds);
    emitSolver(J, Usage, Global);
    J.count("arena_bytes", ArithIntern::global().arenaBytes());
  }
  J.nums("wall_s", Walls);
  J.nums("cpu_s", Cpus);
  J.nums("latency_ms", Latency);
  J.nums("store_hits", Hits);
  J.nums("store_misses", Misses);
  J.nums("store_bytes", Bytes);
  J.num("peak_rss_mb", PeakRss);
  G.emit(J);
}

int usage() {
  std::cerr << "usage: perfbench_driver --workload "
               "<fig11-cold|serve-stream|store-incremental> --seed N "
               "--seconds S --trace 0|1 --workdir DIR --out FILE\n";
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::map<std::string, std::string> Args;
  for (int I = 1; I + 1 < Argc; I += 2)
    Args[Argv[I]] = Argv[I + 1];
  for (const char *K : {"--workload", "--seed", "--seconds", "--trace",
                        "--workdir", "--out"})
    if (!Args.count(K))
      return usage();
  const std::string W = Args["--workload"];
  const uint64_t Seed = std::stoull(Args["--seed"]);
  const double Seconds = std::stod(Args["--seconds"]);
  const bool Traced = Args["--trace"] == "1";
  const std::string Workdir = Args["--workdir"];
  std::filesystem::create_directories(Workdir);

  RawJson J;
  J.str("workload", W);
  J.count("workers", Workers);
  J.str("compiler", __VERSION__);
  J.str("build_type", PERFBENCH_BUILD_TYPE);
  if (W == "fig11-cold")
    runFig11(Seed, Traced, Workdir, J);
  else if (W == "serve-stream")
    runServe(Seed, Seconds, Traced, Workdir, J);
  else if (W == "store-incremental")
    runStore(Seed, Seconds, Traced, Workdir, J);
  else
    return usage();

  std::ofstream Out(Args["--out"]);
  Out << J.text() << "\n";
  return Out ? 0 : 1;
}
