//===- bench/batch_corpus.cpp - Batch corpus benchmark ----------*- C++ -*-===//
//
// The BENCH_batch.json perf artifact: batch throughput over a corpus
// slice (programs/sec), the two-tier cache's global hit rate, thread
// scaling at 1/2/4/8 workers, and a byte-identity determinism
// cross-check of every configuration against the 1-thread tier-off
// baseline.
//
//   bench_batch_corpus [--json <path>] [--programs <n>]
//
// Also measures the analysis server: request throughput over the
// NDJSON protocol for a first pass over a fresh server (respellings of
// 20 corpus programs, so only their first occurrences infer and the
// rest replay from the server's spec store) and a second pass of the
// same requests, plus the store and epoch-reclamation counters. The cond_term
// section runs @fig11 in conditional-termination mode and reports the
// audit counters plus the overhead over default mode; a demoted
// (audit-failed) condition fails the bench. The observability section
// measures the tracing+profiling overhead on @fig11 (target <= x1.05)
// and hard-fails if observability perturbs the outcome bytes.
//
// Unlike the micro benches this is a plain executable (no
// google-benchmark dependency), so the artifact builds everywhere the
// library does.
//
//===----------------------------------------------------------------------===//

#include "api/AnalysisServer.h"
#include "api/BatchAnalyzer.h"
#include "store/SpecStore.h"
#include "support/Json.h"
#include "support/Trace.h"
#include "workloads/Corpus.h"

#include <algorithm>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

using namespace tnt;

namespace {

struct RunSample {
  unsigned Threads = 1;
  bool Tier = true;
  double Millis = 0;
  double ProgramsPerSec = 0;
  double GlobalSatHitRate = 0;
  double GlobalDnfHitRate = 0;
  uint64_t GlobalSatHits = 0;
  uint64_t GlobalDnfHits = 0;
  bool MatchesBaseline = true;
};

RunSample runOnce(const std::vector<BatchItem> &Items, unsigned Threads,
                  bool Tier, const std::string &Baseline,
                  std::string *OutRender = nullptr) {
  BatchOptions Opt;
  Opt.Threads = Threads;
  Opt.GlobalTier = Tier;
  BatchAnalyzer BA(Opt);
  BatchResult R = BA.run(Items);

  RunSample S;
  S.Threads = Threads;
  S.Tier = Tier;
  S.Millis = R.Millis;
  S.ProgramsPerSec =
      R.Millis > 0 ? double(Items.size()) / (R.Millis / 1000.0) : 0.0;
  S.GlobalSatHitRate = R.Global.satHitRate();
  S.GlobalDnfHitRate = R.Global.dnfHitRate();
  S.GlobalSatHits = R.Global.SatHits;
  S.GlobalDnfHits = R.Global.DnfHits;
  std::string Render = R.renderOutcomes();
  S.MatchesBaseline = Baseline.empty() || Render == Baseline;
  if (OutRender)
    *OutRender = std::move(Render);
  return S;
}

struct ServerSample {
  unsigned Requests = 0;
  double ColdMillis = 0, WarmMillis = 0;
  double ColdReqPerSec = 0, WarmReqPerSec = 0;
  double WarmSpeedup = 0;
  double SatHitRate = 0;
  uint64_t Reclaims = 0, LastDropped = 0, Rotations = 0;
  size_t ArenaBytes = 0;
  /// Spec-store groups replayed / inferred, per pass.
  uint64_t ColdStoreHits = 0, ColdStoreMisses = 0;
  uint64_t WarmStoreHits = 0, WarmStoreMisses = 0;
};

/// Server throughput: \p N requests on a fresh server, then the same N
/// again, from one in-process client (submitAndWait, so each request
/// includes the hand-off to the worker pool). The requests respell 20
/// corpus programs, and respelling keeps content keys, so the "cold"
/// pass is cold only for its first 20 requests: the rest replay groups
/// from the server's spec store, as the whole warm pass does.
ServerSample runServer(unsigned N) {
  using Clock = std::chrono::steady_clock;
  ServerOptions SO;
  SO.ReclaimEvery = 32;
  SO.GlobalSatCapacity = 1u << 12;
  SO.GlobalDnfCapacity = 1u << 9;
  AnalysisServer Server(SO);

  std::vector<BatchItem> Items = corpusBatchItems(20);
  std::vector<std::string> Requests(N);
  for (unsigned I = 0; I < N; ++I)
    Requests[I] =
        soakRequestJson(I, soakVariantSource(Items[I % Items.size()].Source, I));

  ServerSample S;
  S.Requests = N;
  auto T0 = Clock::now();
  for (const std::string &R : Requests)
    (void)Server.submitAndWait(R);
  auto T1 = Clock::now();
  const ServerStats Cold = Server.stats();
  for (const std::string &R : Requests)
    (void)Server.submitAndWait(R);
  auto T2 = Clock::now();

  S.ColdMillis = std::chrono::duration<double, std::milli>(T1 - T0).count();
  S.WarmMillis = std::chrono::duration<double, std::milli>(T2 - T1).count();
  S.ColdReqPerSec = S.ColdMillis > 0 ? N / (S.ColdMillis / 1000.0) : 0;
  S.WarmReqPerSec = S.WarmMillis > 0 ? N / (S.WarmMillis / 1000.0) : 0;
  S.WarmSpeedup = S.WarmMillis > 0 ? S.ColdMillis / S.WarmMillis : 0;
  ServerStats St = Server.stats();
  S.SatHitRate = St.Global.satHitRate();
  S.Reclaims = St.Reclaims;
  S.LastDropped = St.LastReclaim.dropped();
  S.Rotations = St.Global.SatRotations + St.Global.DnfRotations;
  S.ArenaBytes = St.InternArenaBytes;
  S.ColdStoreHits = Cold.StoreHits;
  S.ColdStoreMisses = Cold.StoreMisses;
  S.WarmStoreHits = St.StoreHits - Cold.StoreHits;
  S.WarmStoreMisses = St.StoreMisses - Cold.StoreMisses;
  return S;
}

struct ConcClientSample {
  unsigned Clients = 0;
  double Millis = 0;
  double ReqPerSec = 0;
  uint64_t Shed = 0;
  uint64_t StoreHits = 0, StoreMisses = 0;
};

struct ConcSample {
  unsigned Requests = 0;
  std::vector<ConcClientSample> ByClients;
  double ShedRate = 0; ///< Saturation run: sheds / submissions.
};

/// The multi-client regime: the same request stream of corpus
/// respellings pushed by 1, 4, and 16 client threads through
/// submitAndWait (a fresh server per point; past each of the 20
/// programs' first requests its groups replay from the spec store, so
/// a point is cold only at its start), then a deliberately
/// oversubscribed point
/// (1 worker, tiny queue, 16 clients) to measure the load-shed rate
/// under saturation — sheds are immediate error responses, so clients
/// see bounded latency, not an unbounded queue.
ConcSample runConcurrentServer(unsigned N) {
  using Clock = std::chrono::steady_clock;
  std::vector<BatchItem> Items = corpusBatchItems(20);
  std::vector<std::string> Sources(N);
  for (unsigned I = 0; I < N; ++I)
    Sources[I] = soakVariantSource(Items[I % Items.size()].Source, I);

  ConcSample S;
  S.Requests = N;
  auto drive = [&](AnalysisServer &Server, unsigned Clients) {
    std::vector<std::thread> Threads;
    auto T0 = Clock::now();
    for (unsigned C = 0; C < Clients; ++C)
      Threads.emplace_back([&, C] {
        for (unsigned I = C; I < N; I += Clients)
          (void)Server.submitAndWait(soakRequestJson(I, Sources[I]));
      });
    for (std::thread &T : Threads)
      T.join();
    return std::chrono::duration<double, std::milli>(Clock::now() - T0)
        .count();
  };

  for (unsigned Clients : {1u, 4u, 16u}) {
    ServerOptions SO;
    SO.Workers = 4;
    SO.ReclaimEvery = 32;
    AnalysisServer Server(SO);
    ConcClientSample P;
    P.Clients = Clients;
    P.Millis = drive(Server, Clients);
    P.ReqPerSec = P.Millis > 0 ? N / (P.Millis / 1000.0) : 0;
    P.Shed = Server.shedCount();
    P.StoreHits = Server.stats().StoreHits;
    P.StoreMisses = Server.stats().StoreMisses;
    S.ByClients.push_back(P);
  }

  {
    ServerOptions SO;
    SO.Workers = 1;
    SO.QueueDepth = 4;
    AnalysisServer Server(SO);
    (void)drive(Server, 16);
    S.ShedRate = double(Server.shedCount()) / N;
  }
  return S;
}

struct StoreSample {
  double ColdMillis = 0, WarmMillis = 0;
  double ColdProgPerSec = 0, WarmProgPerSec = 0;
  double WarmSpeedup = 0;
  uint64_t ColdInserts = 0;
  uint64_t WarmHits = 0, WarmMisses = 0;
  size_t FileBytes = 0;
  bool Replayed = true; ///< Warm output byte-identical, zero re-runs.
};

/// The persistent-store regime: a cold corpus pass populating a store
/// file, then a WARM-FROM-DISK pass in a fresh analyzer + freshly
/// loaded store — the repeated-CI-batch / server-restart scenario the
/// store exists for.
StoreSample runStore(const std::vector<BatchItem> &Items,
                     const std::string &Path) {
  StoreSample S;
  std::remove(Path.c_str());
  BatchOptions Opt;
  Opt.Threads = 1;
  std::string ColdRender;
  {
    SpecStore Store(SpecStore::configFingerprint(Opt.Program));
    Opt.Store = &Store;
    BatchAnalyzer BA(Opt);
    BatchResult R = BA.run(Items);
    ColdRender = R.renderOutcomes();
    S.ColdMillis = R.Millis;
    S.ColdInserts = Store.stats().Inserts;
    if (BA.globalTier() != nullptr)
      Store.setSatSnapshot(BA.globalTier()->exportSatSnapshot());
    Store.save(Path);
  }
  {
    std::ifstream In(Path, std::ios::binary | std::ios::ate);
    if (In)
      S.FileBytes = static_cast<size_t>(In.tellg());
  }
  {
    SpecStore Store(SpecStore::configFingerprint(Opt.Program));
    Store.load(Path);
    Opt.Store = &Store;
    BatchAnalyzer BA(Opt);
    if (BA.globalTier() != nullptr)
      BA.globalTier()->importSatSnapshot(Store.satSnapshot());
    BatchResult R = BA.run(Items);
    S.WarmMillis = R.Millis;
    S.WarmHits = R.StoreHits;
    S.WarmMisses = R.StoreMisses;
    S.Replayed = R.StoreMisses == 0 && R.renderOutcomes() == ColdRender;
  }
  std::remove(Path.c_str());
  S.ColdProgPerSec =
      S.ColdMillis > 0 ? Items.size() / (S.ColdMillis / 1000.0) : 0;
  S.WarmProgPerSec =
      S.WarmMillis > 0 ? Items.size() / (S.WarmMillis / 1000.0) : 0;
  S.WarmSpeedup = S.WarmMillis > 0 ? S.ColdMillis / S.WarmMillis : 0;
  return S;
}

struct CondSample {
  double DefaultMillis = 0, CondMillis = 0;
  double OverheadRatio = 0; ///< cond-term wall time / default wall time.
  uint64_t Emitted = 0, Sound = 0, Demoted = 0, NonTrivial = 0;
  unsigned CondPrograms = 0; ///< Programs with a nontrivial condition.
  bool AuditClean = true;    ///< Every emitted condition passed the audit.
};

/// Conditional-termination mode on @fig11 (the corpus whose "U" rows
/// the mode exists for): default-mode pass for the overhead baseline,
/// then the --cond-term pass with the audit counters. Demotions mean
/// the built-in soundness auditor rejected an inferred condition —
/// that is a correctness regression, not a perf number, so the caller
/// gates the exit code on AuditClean.
CondSample runCondTerm() {
  std::vector<BatchItem> Items = loopBasedBatchItems();
  BatchOptions Opt;
  Opt.Threads = 1;
  CondSample S;
  {
    BatchAnalyzer BA(Opt);
    S.DefaultMillis = BA.run(Items).Millis;
  }
  Opt.Program.Solve.EnableCondTerm = true;
  {
    BatchAnalyzer BA(Opt);
    BatchResult R = BA.run(Items);
    S.CondMillis = R.Millis;
    S.Emitted = R.CondTerm.Emitted;
    S.Sound = R.CondTerm.Sound;
    S.Demoted = R.CondTerm.Demoted;
    S.NonTrivial = R.CondTerm.NonTrivial;
    for (const auto &[Cat, C] : R.perCategory())
      S.CondPrograms += C.Cond;
    S.AuditClean = R.CondTerm.Demoted == 0;
  }
  S.OverheadRatio =
      S.DefaultMillis > 0 ? S.CondMillis / S.DefaultMillis : 0;
  return S;
}

struct ObsSample {
  double PlainMillis = 0, TracedMillis = 0; ///< Min of ObsPasses each.
  double OverheadRatio = 0; ///< traced+profiled wall / plain wall.
  uint64_t TraceEvents = 0, TraceDropped = 0;
  bool BytesIdentical = true; ///< Outcome bytes traced vs plain.
  bool WithinTarget = true;   ///< OverheadRatio <= 1.05.
};

/// Timed passes per side of the observability comparison.
constexpr int ObsPasses = 7;

/// The observability regime on @fig11: the same 2-thread batch with
/// tracing + profiling fully on versus fully off, the minimum wall time
/// of ObsPasses alternating passes each way. Two numbers matter: the
/// overhead ratio (target <= x1.05 — recorded, and a gross x1.25 fence
/// gates the exit code, since the tight target is noise-sensitive on a
/// sub-second corpus) and the byte-identity of the rendered outcomes
/// (the out-of-band invariant; any divergence is a hard failure).
ObsSample runObservability() {
  std::vector<BatchItem> Items = loopBasedBatchItems();
  ObsSample S;
  auto once = [&](bool Observed, std::string *Render) {
    BatchOptions Opt;
    Opt.Threads = 2;
    Opt.Profile = Observed;
    if (Observed)
      trace::start();
    BatchAnalyzer BA(Opt);
    BatchResult R = BA.run(Items);
    if (Observed)
      trace::stop();
    if (Render)
      *Render = R.renderOutcomes();
    return R.Millis;
  };

  // An untimed plain pass pays the one-time interning warmup and gives
  // the reference rendering. The timed passes then alternate plain and
  // traced, so a drifting host (clock, neighbours, steal) slows both
  // sides alike, and each side keeps its minimum.
  std::string PlainRender;
  once(false, &PlainRender);
  for (int I = 0; I < ObsPasses; ++I) {
    double Plain = once(false, nullptr);
    std::string TracedRender;
    double Traced = once(true, &TracedRender);
    S.PlainMillis = I == 0 ? Plain : std::min(S.PlainMillis, Plain);
    S.TracedMillis = I == 0 ? Traced : std::min(S.TracedMillis, Traced);
    S.BytesIdentical = S.BytesIdentical && TracedRender == PlainRender;
  }
  S.TraceEvents = trace::eventCount(); // Last traced pass (start() clears).
  S.TraceDropped = trace::dropCount();
  trace::clear();
  S.OverheadRatio =
      S.PlainMillis > 0 ? S.TracedMillis / S.PlainMillis : 0;
  S.WithinTarget = S.OverheadRatio <= 1.05;
  return S;
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = "BENCH_batch.json";
  size_t Programs = 120; // A cross-category slice; full corpus via 0.
  for (int I = 1; I < argc; ++I) {
    if (!std::strcmp(argv[I], "--json") && I + 1 < argc)
      JsonPath = argv[++I];
    else if (!std::strcmp(argv[I], "--programs") && I + 1 < argc)
      Programs = std::strtoul(argv[++I], nullptr, 10);
  }

  std::vector<BatchItem> Items = corpusBatchItems(Programs);
  std::printf("batch corpus bench: %zu programs, hardware_concurrency=%u\n",
              Items.size(), std::thread::hardware_concurrency());

  // Baseline: 1 thread, tier off — the sequential classical regime all
  // other configurations must reproduce byte for byte.
  std::string Baseline;
  RunSample Base = runOnce(Items, 1, false, "", &Baseline);

  // Warm-up effects: the first run interned every spelling/term, so
  // later runs measure steady-state throughput (the server regime).
  // T1 doubles as the 1-thread scaling point.
  RunSample T1 = runOnce(Items, 1, true, Baseline);
  std::vector<RunSample> Scaling = {T1};
  for (unsigned T : {2u, 4u, 8u})
    Scaling.push_back(runOnce(Items, T, true, Baseline));

  bool AllDeterministic = T1.MatchesBaseline;
  for (const RunSample &S : Scaling)
    AllDeterministic = AllDeterministic && S.MatchesBaseline;

  double SpeedupAt4 = 0;
  for (const RunSample &S : Scaling)
    if (S.Threads == 4 && S.Millis > 0)
      SpeedupAt4 = Scaling[0].Millis / S.Millis;

  std::ofstream Out(JsonPath);
  if (!Out) {
    std::cerr << "cannot write " << JsonPath << "\n";
    return 1;
  }
  Out << "{\n";
  Out << "  \"programs\": " << Items.size() << ",\n";
  Out << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ",\n";
  Out << "  \"baseline_1thread_tier_off\": {\n";
  Out << "    \"ms\": " << Base.Millis << ",\n";
  Out << "    \"programs_per_sec\": " << Base.ProgramsPerSec << "\n  },\n";
  Out << "  \"tier_on_1thread\": {\n";
  Out << "    \"ms\": " << T1.Millis << ",\n";
  Out << "    \"programs_per_sec\": " << T1.ProgramsPerSec << ",\n";
  Out << "    \"global_sat_hit_rate\": " << T1.GlobalSatHitRate << ",\n";
  Out << "    \"global_sat_hits\": " << T1.GlobalSatHits << ",\n";
  Out << "    \"global_dnf_hit_rate\": " << T1.GlobalDnfHitRate << ",\n";
  Out << "    \"global_dnf_hits\": " << T1.GlobalDnfHits << "\n  },\n";
  Out << "  \"scaling\": [\n";
  for (size_t I = 0; I < Scaling.size(); ++I) {
    const RunSample &S = Scaling[I];
    Out << "    {\"threads\": " << S.Threads << ", \"ms\": " << S.Millis
        << ", \"programs_per_sec\": " << S.ProgramsPerSec
        << ", \"speedup_vs_1\": "
        << (S.Millis > 0 ? Scaling[0].Millis / S.Millis : 0.0)
        << ", \"global_sat_hit_rate\": " << S.GlobalSatHitRate
        << ", \"deterministic\": " << (S.MatchesBaseline ? "true" : "false")
        << "}" << (I + 1 < Scaling.size() ? "," : "") << "\n";
  }
  Out << "  ],\n";
  Out << "  \"speedup_at_4_threads\": " << SpeedupAt4 << ",\n";

  // The analysis-server regime: a stream of corpus respellings on a
  // fresh server (warm after its first 20 requests), then the same
  // stream again.
  ServerSample Srv = runServer(100);
  Out << "  \"server\": {\n";
  Out << "    \"requests\": " << Srv.Requests << ",\n";
  Out << "    \"cold_ms\": " << Srv.ColdMillis << ",\n";
  Out << "    \"cold_requests_per_sec\": " << Srv.ColdReqPerSec << ",\n";
  Out << "    \"warm_ms\": " << Srv.WarmMillis << ",\n";
  Out << "    \"warm_requests_per_sec\": " << Srv.WarmReqPerSec << ",\n";
  Out << "    \"warm_speedup\": " << Srv.WarmSpeedup << ",\n";
  Out << "    \"global_sat_hit_rate\": " << Srv.SatHitRate << ",\n";
  Out << "    \"reclaims\": " << Srv.Reclaims << ",\n";
  Out << "    \"last_reclaim_dropped\": " << Srv.LastDropped << ",\n";
  Out << "    \"tier_rotations\": " << Srv.Rotations << ",\n";
  Out << "    \"arena_bytes\": " << Srv.ArenaBytes << ",\n";
  Out << "    \"cold_store_hits\": " << Srv.ColdStoreHits << ",\n";
  Out << "    \"cold_store_misses\": " << Srv.ColdStoreMisses << ",\n";
  Out << "    \"warm_store_hits\": " << Srv.WarmStoreHits << ",\n";
  Out << "    \"warm_store_misses\": " << Srv.WarmStoreMisses << "\n  },\n";

  // The concurrent multi-client regime: the same request stream from
  // 1/4/16 clients over the worker pool, plus the saturation shed rate.
  ConcSample Cc = runConcurrentServer(100);
  Out << "  \"server_concurrent\": {\n";
  Out << "    \"requests\": " << Cc.Requests << ",\n";
  Out << "    \"workers\": 4,\n";
  Out << "    \"by_clients\": [\n";
  for (size_t I = 0; I < Cc.ByClients.size(); ++I) {
    const ConcClientSample &P = Cc.ByClients[I];
    Out << "      {\"clients\": " << P.Clients << ", \"ms\": " << P.Millis
        << ", \"requests_per_sec\": " << P.ReqPerSec
        << ", \"shed\": " << P.Shed << ", \"store_hits\": " << P.StoreHits
        << ", \"store_misses\": " << P.StoreMisses << "}"
        << (I + 1 < Cc.ByClients.size() ? "," : "") << "\n";
  }
  Out << "    ],\n";
  Out << "    \"saturation_shed_rate\": " << Cc.ShedRate << "\n  },\n";

  // The persistent-store regime: cold populate vs warm-from-disk
  // replay of the same corpus in a fresh analyzer.
  StoreSample St = runStore(Items, JsonPath + ".store_bench.tmp");
  Out << "  \"store\": {\n";
  Out << "    \"cold_ms\": " << St.ColdMillis << ",\n";
  Out << "    \"cold_programs_per_sec\": " << St.ColdProgPerSec << ",\n";
  Out << "    \"warm_from_disk_ms\": " << St.WarmMillis << ",\n";
  Out << "    \"warm_from_disk_programs_per_sec\": " << St.WarmProgPerSec
      << ",\n";
  Out << "    \"warm_speedup\": " << St.WarmSpeedup << ",\n";
  Out << "    \"cold_inserts\": " << St.ColdInserts << ",\n";
  Out << "    \"warm_hits\": " << St.WarmHits << ",\n";
  Out << "    \"warm_misses\": " << St.WarmMisses << ",\n";
  Out << "    \"file_bytes\": " << St.FileBytes << ",\n";
  Out << "    \"replay_byte_identical\": "
      << (St.Replayed ? "true" : "false") << "\n  },\n";

  // Conditional-termination mode on @fig11: audit counters and the
  // overhead of the extra synthesis/audit queries over default mode.
  CondSample Ct = runCondTerm();
  Out << "  \"cond_term\": {\n";
  Out << "    \"fig11_default_ms\": " << Ct.DefaultMillis << ",\n";
  Out << "    \"fig11_cond_term_ms\": " << Ct.CondMillis << ",\n";
  Out << "    \"overhead_ratio\": " << Ct.OverheadRatio << ",\n";
  Out << "    \"emitted\": " << Ct.Emitted << ",\n";
  Out << "    \"audited_sound\": " << Ct.Sound << ",\n";
  Out << "    \"demoted\": " << Ct.Demoted << ",\n";
  Out << "    \"nontrivial\": " << Ct.NonTrivial << ",\n";
  Out << "    \"programs_with_condition\": " << Ct.CondPrograms << ",\n";
  Out << "    \"audit_clean\": " << (Ct.AuditClean ? "true" : "false")
      << "\n  },\n";

  // The observability regime: tracing + profiling on vs off on @fig11,
  // byte-identity plus the overhead ratio.
  ObsSample Ob = runObservability();
  Out << "  \"observability\": {\n";
  Out << "    \"fig11_plain_ms\": " << Ob.PlainMillis << ",\n";
  Out << "    \"fig11_traced_profiled_ms\": " << Ob.TracedMillis << ",\n";
  Out << "    \"overhead_ratio\": " << Ob.OverheadRatio << ",\n";
  Out << "    \"overhead_target\": 1.05,\n";
  Out << "    \"within_target\": " << (Ob.WithinTarget ? "true" : "false")
      << ",\n";
  Out << "    \"trace_events\": " << Ob.TraceEvents << ",\n";
  Out << "    \"trace_dropped\": " << Ob.TraceDropped << ",\n";
  Out << "    \"bytes_identical\": "
      << (Ob.BytesIdentical ? "true" : "false") << "\n  },\n";

  Out << "  \"deterministic_all_configs\": "
      << (AllDeterministic ? "true" : "false") << "\n";
  Out << "}\n";

  std::printf("BENCH_batch.json: baseline %.1f prog/s; tier-on %.1f prog/s "
              "(global sat hit rate %.3f, dnf %.3f); 4-thread speedup x%.2f; "
              "deterministic: %s\n",
              Base.ProgramsPerSec, T1.ProgramsPerSec, T1.GlobalSatHitRate,
              T1.GlobalDnfHitRate, SpeedupAt4,
              AllDeterministic ? "yes" : "NO");
  std::printf("server: cold %.1f req/s, warm %.1f req/s (x%.2f), "
              "reclaims=%llu dropped=%llu rotations=%llu arena=%zu "
              "store hits/misses cold=%llu/%llu warm=%llu/%llu\n",
              Srv.ColdReqPerSec, Srv.WarmReqPerSec, Srv.WarmSpeedup,
              static_cast<unsigned long long>(Srv.Reclaims),
              static_cast<unsigned long long>(Srv.LastDropped),
              static_cast<unsigned long long>(Srv.Rotations), Srv.ArenaBytes,
              static_cast<unsigned long long>(Srv.ColdStoreHits),
              static_cast<unsigned long long>(Srv.ColdStoreMisses),
              static_cast<unsigned long long>(Srv.WarmStoreHits),
              static_cast<unsigned long long>(Srv.WarmStoreMisses));
  std::printf("server-concurrent: %.1f req/s @1 client, %.1f @4, %.1f @16 "
              "(4 workers); saturation shed rate %.2f\n",
              Cc.ByClients[0].ReqPerSec, Cc.ByClients[1].ReqPerSec,
              Cc.ByClients[2].ReqPerSec, Cc.ShedRate);
  std::printf("store: cold %.1f prog/s, warm-from-disk %.1f prog/s "
              "(x%.2f), %llu entries, %zu file bytes, replay %s\n",
              St.ColdProgPerSec, St.WarmProgPerSec, St.WarmSpeedup,
              static_cast<unsigned long long>(St.ColdInserts), St.FileBytes,
              St.Replayed ? "byte-identical" : "DIVERGED");
  std::printf("cond-term (@fig11): emitted=%llu sound=%llu demoted=%llu "
              "nontrivial=%llu programs_with_condition=%u overhead x%.2f, "
              "audit %s\n",
              static_cast<unsigned long long>(Ct.Emitted),
              static_cast<unsigned long long>(Ct.Sound),
              static_cast<unsigned long long>(Ct.Demoted),
              static_cast<unsigned long long>(Ct.NonTrivial),
              Ct.CondPrograms, Ct.OverheadRatio,
              Ct.AuditClean ? "clean" : "FAILED");
  std::printf("observability (@fig11): overhead x%.3f (target 1.05, %s), "
              "%llu events (%llu dropped), outcome bytes %s\n",
              Ob.OverheadRatio, Ob.WithinTarget ? "within" : "ABOVE",
              static_cast<unsigned long long>(Ob.TraceEvents),
              static_cast<unsigned long long>(Ob.TraceDropped),
              Ob.BytesIdentical ? "identical" : "DIVERGED");
  // Byte divergence is a hard failure; the overhead gate is the gross
  // x1.25 fence (the 1.05 target is recorded in the artifact).
  bool ObsOk = Ob.BytesIdentical && Ob.OverheadRatio <= 1.25;
  return (AllDeterministic && St.Replayed && Ct.AuditClean && ObsOk) ? 0 : 1;
}
