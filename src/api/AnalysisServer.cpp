//===- api/AnalysisServer.cpp ---------------------------------*- C++ -*-===//

#include "api/AnalysisServer.h"

#include "api/MetricsBridge.h"
#include "api/Pipeline.h"
#include "arith/Var.h"
#include "store/SpecStore.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <istream>
#include <ostream>
#include <sstream>

using namespace tnt;

namespace {

/// Live servers with reclamation enabled (see AnalysisServer.h —
/// reclamation is only sound for a sole owner).
std::atomic<unsigned> LiveReclaimers{0};

} // namespace

AnalysisServer::AnalysisServer(ServerOptions Options)
    : Opt(std::move(Options)), Batch([&] {
        BatchOptions BO;
        BO.Program = Opt.Program;
        BO.GlobalTier = Opt.GlobalTier;
        BO.GlobalSatCapacity = Opt.GlobalSatCapacity;
        BO.GlobalDnfCapacity = Opt.GlobalDnfCapacity;
        return BO;
      }()) {
  // Persistent spec store: an externally owned one wins; otherwise a
  // configured StorePath loads (or cold-starts) a private store. The
  // per-request config carries the pointer, and the loaded sat
  // snapshot warm-starts the solver tier. Store entries are plain
  // strings — no interned pointers — so epoch reclamation is
  // unaffected by persistence.
  if (Opt.Store != nullptr) {
    Store = Opt.Store;
  } else if (!Opt.StorePath.empty()) {
    OwnedStore = std::make_unique<SpecStore>(
        SpecStore::configFingerprint(Opt.Program));
    std::string Err;
    if (!OwnedStore->load(Opt.StorePath, &Err)) {
      // Corrupt file: start cold, but say so, and move the file aside
      // so the shutdown save cannot destroy the evidence — an
      // expected warm start silently degrading to cold is exactly the
      // kind of regression an operator needs to see. If the
      // move-aside itself fails, disable persistence instead of
      // saving over the evidence.
      std::string Aside = Opt.StorePath + ".corrupt";
      if (std::rename(Opt.StorePath.c_str(), Aside.c_str()) == 0) {
        std::cerr << "spec store: " << Err
                  << " — starting cold (moved to " << Aside << ")\n";
      } else {
        std::cerr << "spec store: " << Err << " — starting cold; could "
                  << "not move the corrupt file aside, persistence "
                  << "DISABLED to preserve it\n";
        Opt.StorePath.clear(); // saveStore() becomes a no-op.
      }
      OwnedStore = std::make_unique<SpecStore>(
          SpecStore::configFingerprint(Opt.Program));
    }
    Store = OwnedStore.get();
  }
  if (Store != nullptr) {
    Opt.Program.Store = Store;
    if (GlobalSolverCache *Tier = Batch.globalTier())
      Tier->importSatSnapshot(Store->satSnapshot());
  }
  // Everything interned before this point (constant singletons, any
  // warmup the host process did) becomes permanent; per-request terms
  // from here on are generation-tagged and reclaimable.
  if (Opt.ReclaimEvery != 0) {
    Reclaiming = true;
    LiveReclaimers.fetch_add(1);
    ArithIntern::global().beginEpochs();
  }
}

AnalysisServer::~AnalysisServer() {
  if (Reclaiming)
    LiveReclaimers.fetch_sub(1);
}

std::string tnt::proto::idText(const json::Value &Req) {
  const json::Value *Id = Req.field("id");
  if (Id == nullptr)
    return "null";
  if (Id->isNumber())
    return Id->rawNumber();
  if (Id->isString())
    return json::quoted(Id->asString());
  return "null";
}

std::string tnt::proto::errorResponse(const std::string &IdText,
                                      const std::string &Msg) {
  return "{\"id\":" + IdText + ",\"ok\":false,\"error\":" +
         json::quoted(Msg) + "}";
}

namespace {
using tnt::proto::errorResponse;
using tnt::proto::idText;
} // namespace

void AnalysisServer::reclaimNow() {
  // Sole-owner gate: sweeping everything outside THIS server's tier is
  // only sound when no other live tier holds interned pointers —
  // whether it belongs to a sibling server (reclaiming or not) or to
  // a bare BatchAnalyzer/GlobalSolverCache in the host process. With
  // any other tier alive, stand down (append-only mode) rather than
  // free keys from under it: tier maps compare keys by pointer, so a
  // swept key re-interned at a recycled address could alias a stale
  // entry. The gate detects TIER owners only — it cannot see a
  // tier-less analysis running concurrently on another host thread;
  // not dereferencing per-request pointers across an epoch boundary
  // is the caller contract ArithIntern::reclaim documents, and the
  // server itself honors it by handling requests strictly serially.
  const size_t OwnTiers = Batch.globalTier() != nullptr ? 1 : 0;
  if (!Reclaiming || LiveReclaimers.load() != 1 ||
      GlobalSolverCache::liveCount() != OwnTiers)
    return;
  // The process-wide default context is the one SolverContext a host
  // process might feed through the legacy Solver facade between
  // requests; its caches hold interned pointers, so drop them before
  // the sweep rather than listing them as roots (they are caches — a
  // refill is always sound).
  SolverContext::defaultCtx().clearCache();
  EpochRoots Roots;
  if (GlobalSolverCache *Tier = Batch.globalTier())
    Tier->collectRoots(Roots);
  LastReclaim = ArithIntern::global().reclaim(Roots);
  ++Reclaims;
}

RequestOutcome tnt::runProgramRequest(const std::string &Source,
                                      const std::string &Entry,
                                      const AnalyzerConfig &Config,
                                      GlobalSolverCache *Tier) {
  RequestOutcome O;
  O.Ran = true;

  // Observability is strictly out-of-band: the span and the execution
  // histogram never touch O. Both front ends funnel through here, so
  // "server.request.exec_us" means the same thing serial or concurrent.
  trace::Span ReqSpan("request", "server");
  auto ExecT0 = std::chrono::steady_clock::now();

  // A virgin block lease for this request: every id and spelling the
  // analysis mints is session-local and positional, so the rendered
  // response is a pure function of (Source, Entry, Config) — identical
  // to a fresh-process run, whatever else the hosting server has done
  // or is doing. The lease dies with this frame; nothing to recycle by
  // hand.
  VarPool::Session Lease;
  VarPool::SessionScope Active(Lease);

  // The exact analyzeProgram schedule — root block 0, group G on block
  // G+1, bottom-up group order — so the response is byte-identical to a
  // fresh single-program run (the tier only changes who computes an
  // answer, never the answer).
  std::unique_ptr<PreparedProgram> PP = prepareProgram(Source, Config);
  prescanSpecStore(*PP, Config);
  AnalysisResult R;
  if (!PP->Ok) {
    R = finalizeProgram(*PP, {}, Config, Tier);
  } else {
    const size_t N = PP->Groups.size();
    std::vector<GroupRun> Runs(N);
    for (size_t G = 0; G < N; ++G)
      Runs[G] = runPipelineGroup(*PP, Config, G,
                                 static_cast<uint32_t>(G) + 1, Tier);
    R = finalizeProgram(*PP, std::move(Runs), Config, Tier);
  }
  O.Usage = R.SolverUsage;
  O.Cond = R.CondTerm;
  if (!R.Ok) {
    O.Failed = true;
    O.Body = "\"ok\":false,\"error\":" + json::quoted(R.Diagnostics);
  } else {
    O.Body = "\"ok\":true,\"entry\":" + json::quoted(Entry) +
             ",\"verdict\":" + json::quoted(outcomeStr(R.outcome(Entry))) +
             ",\"output\":" + json::quoted(R.str());
  }
  static metrics::Histogram &ExecUs =
      metrics::Registry::get().histogram("server.request.exec_us");
  ExecUs.observe(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - ExecT0)
          .count()));
  // PP and R (every Formula handle of this request) die HERE — nothing
  // of the request outlives its epoch except what promoteTo put in the
  // tier (and, as plain strings, what the spec store captured). The
  // caller guarantees no epoch boundary while we were in flight.
  return O;
}

std::optional<RequestOutcome>
tnt::decodeAndRunRequest(const json::Value &Req, const AnalyzerConfig &Config,
                         GlobalSolverCache *Tier, bool AllowPaths) {
  auto errorOutcome = [](const std::string &Msg) {
    RequestOutcome O;
    O.Failed = true;
    O.Body = "\"ok\":false,\"error\":" + json::quoted(Msg);
    return O;
  };
  std::string Entry = "main";
  if (const json::Value *E = Req.field("entry"))
    if (E->isString())
      Entry = E->asString();
  if (const json::Value *Prog = Req.field("program")) {
    if (!Prog->isString())
      return errorOutcome("\"program\" must be a string");
    return runProgramRequest(Prog->asString(), Entry, Config, Tier);
  }
  if (const json::Value *Path = Req.field("path")) {
    if (!AllowPaths)
      return errorOutcome("path requests are disabled");
    if (!Path->isString())
      return errorOutcome("\"path\" must be a string");
    std::ifstream In(Path->asString());
    if (!In)
      return errorOutcome("cannot open " + Path->asString());
    std::stringstream Buf;
    Buf << In.rdbuf();
    return runProgramRequest(Buf.str(), Entry, Config, Tier);
  }
  return std::nullopt;
}

void AnalysisServer::accumulate(const RequestOutcome &Outcome) {
  if (Outcome.Ran)
    ++Requests;
  if (Outcome.Failed)
    ++Errors;
  Usage += Outcome.Usage;
  Cond += Outcome.Cond;
}

std::optional<std::string>
AnalysisServer::decodeAndRun(const json::Value &Req) {
  auto T0 = std::chrono::steady_clock::now();
  std::optional<RequestOutcome> Outcome =
      decodeAndRunRequest(Req, Opt.Program, Batch.globalTier(), Opt.AllowPaths);
  if (!Outcome)
    return std::nullopt;
  if (Outcome->Ran) {
    // The serial loop admits a request the instant it is read, so its
    // queue wait is identically zero; recording it anyway keeps the
    // metrics-verb schema one shape across both front ends.
    static metrics::Histogram &QueueUs =
        metrics::Registry::get().histogram("server.request.queue_us");
    static metrics::Histogram &TotalUs =
        metrics::Registry::get().histogram("server.request.total_us");
    QueueUs.observe(0);
    TotalUs.observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - T0)
            .count()));
  }
  accumulate(*Outcome);
  // Serial loop: every request completion is a quiescence point.
  if (Outcome->Ran && Opt.ReclaimEvery != 0 &&
      Requests % Opt.ReclaimEvery == 0)
    reclaimNow();
  return Outcome->Body;
}

std::string AnalysisServer::handleBatchVerb(const std::string &Id,
                                            const json::Value &Req) {
  const json::Value *Programs = Req.field("programs");
  if (Programs == nullptr || !Programs->isArray()) {
    ++Errors;
    return errorResponse(Id, "analyze-batch needs a \"programs\" array");
  }
  // Answered strictly in request order, each element decoded and
  // analyzed by the SAME path as a standalone request (counters and
  // reclaim cadence included), assembled into one response line.
  std::string Out = "{\"id\":" + Id + ",\"ok\":true,\"results\":[";
  bool First = true;
  for (const json::Value &Item : Programs->elements()) {
    if (!First)
      Out += ',';
    First = false;
    if (!Item.isObject()) {
      ++Errors;
      Out += "{\"ok\":false,\"error\":\"request is not a JSON object\"}";
      continue;
    }
    std::optional<std::string> Body = decodeAndRun(Item);
    if (!Body) {
      ++Errors;
      Out += "{\"ok\":false,\"error\":\"batch element needs \\\"program\\\" "
             "or \\\"path\\\"\"}";
      continue;
    }
    Out += "{" + *Body + "}";
  }
  return Out + "]}";
}

bool AnalysisServer::saveStore(std::string *Err) {
  if (Store == nullptr || Opt.StorePath.empty())
    return true;
  if (GlobalSolverCache *Tier = Batch.globalTier())
    Store->setSatSnapshot(Tier->exportSatSnapshot());
  return Store->save(Opt.StorePath, Err);
}

std::string AnalysisServer::statsJson(const std::string &Id) const {
  ServerStats S = stats();
  std::ostringstream Out;
  Out << "{\"id\":" << Id << ",\"ok\":true,\"stats\":{"
      << "\"requests\":" << S.Requests << ",\"errors\":" << S.Errors
      << ",\"store_hits\":" << S.StoreHits
      << ",\"store_misses\":" << S.StoreMisses
      << ",\"reclaims\":" << S.Reclaims << ",\"generation\":"
      << ArithIntern::global().generation() << ",\"last_reclaim\":{"
      << "\"kept\":" << S.LastReclaim.kept()
      << ",\"dropped\":" << S.LastReclaim.dropped()
      << ",\"bytes_before\":" << S.LastReclaim.BytesBefore
      << ",\"bytes_after\":" << S.LastReclaim.BytesAfter << "},\"intern\":{"
      << "\"exprs\":" << S.InternExprs
      << ",\"constraints\":" << S.InternConstraints
      << ",\"formulas\":" << S.InternFormulas
      << ",\"arena_bytes\":" << S.InternArenaBytes << "},\"global_tier\":{"
      << "\"sat_entries\":" << S.Global.SatEntries
      << ",\"sat_prev_entries\":" << S.Global.SatPrevEntries
      << ",\"sat_lookups\":" << S.Global.SatLookups
      << ",\"sat_hits\":" << S.Global.SatHits
      << ",\"sat_prev_hits\":" << S.Global.SatPrevHits
      << ",\"sat_rotations\":" << S.Global.SatRotations
      << ",\"dnf_entries\":" << S.Global.DnfEntries
      << ",\"dnf_prev_entries\":" << S.Global.DnfPrevEntries
      << ",\"dnf_lookups\":" << S.Global.DnfLookups
      << ",\"dnf_hits\":" << S.Global.DnfHits
      << ",\"dnf_prev_hits\":" << S.Global.DnfPrevHits
      << ",\"dnf_rotations\":" << S.Global.DnfRotations << "},\"ladder\":{"
      << "\"interval_unsat\":" << S.Usage.IntervalUnsat
      << ",\"interval_sat\":" << S.Usage.IntervalSat << "},\"cond_term\":{"
      << "\"emitted\":" << S.CondTerm.Emitted
      << ",\"sound\":" << S.CondTerm.Sound
      << ",\"demoted\":" << S.CondTerm.Demoted
      << ",\"nontrivial\":" << S.CondTerm.NonTrivial
      << ",\"leaves_certified\":" << S.CondTerm.LeavesCertified
      << "}}}";
  return Out.str();
}

std::string AnalysisServer::metricsJson(const std::string &Id) const {
  // Refresh the registry from the engine's cumulative counters first,
  // so the snapshot is current however long ago the last bridge ran.
  // Event-driven instruments (request latency histograms, batch group
  // timings, concurrent-server admission counters) are already in the
  // registry — they accumulate at event time.
  ServerStats S = stats();
  metrics::Registry &R = metrics::Registry::get();
  R.setGauge("server.requests", static_cast<int64_t>(S.Requests));
  R.setGauge("server.errors", static_cast<int64_t>(S.Errors));
  R.setGauge("server.reclaims", static_cast<int64_t>(S.Reclaims));
  R.setGauge("server.store_hits", static_cast<int64_t>(S.StoreHits));
  R.setGauge("server.store_misses", static_cast<int64_t>(S.StoreMisses));
  R.setGauge("server.intern_exprs", static_cast<int64_t>(S.InternExprs));
  R.setGauge("server.intern_constraints",
             static_cast<int64_t>(S.InternConstraints));
  R.setGauge("server.intern_formulas",
             static_cast<int64_t>(S.InternFormulas));
  R.setGauge("server.intern_arena_bytes",
             static_cast<int64_t>(S.InternArenaBytes));
  bridgeSolverStats("solver.", S.Usage);
  bridgeGlobalCacheStats("tier.", S.Global);
  bridgeCondTermStats("cond_term.", S.CondTerm);
  if (Store != nullptr)
    bridgeSpecStoreStats("spec_store.", Store->stats());
  return "{\"id\":" + Id + ",\"ok\":true,\"metrics\":" +
         R.snapshotJson() + "}";
}

std::string AnalysisServer::handleLine(const std::string &Line) {
  // Blank lines keep the stream alive without a response.
  bool AllWs = true;
  for (char C : Line)
    if (C != ' ' && C != '\t' && C != '\r')
      AllWs = false;
  if (AllWs)
    return "";

  std::string Err;
  std::optional<json::Value> Req = json::parse(Line, &Err);
  if (!Req || !Req->isObject()) {
    ++Errors;
    return errorResponse("null",
                         Req ? "request is not a JSON object" : Err);
  }
  std::string Id = idText(*Req);
  // Tag any spans the request opens (trace cat "server"/"pipeline"/
  // "solver"/...) with the request id; a no-op unless tracing is on.
  trace::ScopedTag IdTag("request_id", Id);

  if (const json::Value *Verb = Req->field("verb")) {
    if (!Verb->isString()) {
      ++Errors;
      return errorResponse(Id, "\"verb\" must be a string");
    }
    const std::string &V = Verb->asString();
    if (V == "stats")
      return statsJson(Id);
    if (V == "metrics")
      return metricsJson(Id);
    if (V == "analyze-batch")
      return handleBatchVerb(Id, *Req);
    if (V == "shutdown") {
      Shutdown = true;
      std::string SaveErr;
      if (!saveStore(&SaveErr)) {
        // The session's specs could not be persisted; the ack says so
        // (and stderr records it) instead of exiting clean.
        std::cerr << "spec store: " << SaveErr << "\n";
        return "{\"id\":" + Id + ",\"ok\":true,\"shutdown\":true," +
               "\"store_error\":" + json::quoted(SaveErr) + "}";
      }
      return "{\"id\":" + Id + ",\"ok\":true,\"shutdown\":true}";
    }
    ++Errors;
    return errorResponse(Id, "unknown verb '" + V + "'");
  }

  if (std::optional<std::string> Body = decodeAndRun(*Req))
    return "{\"id\":" + Id + "," + *Body + "}";

  ++Errors;
  return errorResponse(Id, "request needs \"program\", \"path\" or \"verb\"");
}

int AnalysisServer::serve(std::istream &In, std::ostream &Out) {
  std::string Line;
  while (!Shutdown && std::getline(In, Line)) {
    std::string Response = handleLine(Line);
    if (!Response.empty()) {
      Out << Response << "\n";
      Out.flush();
    }
  }
  // End of stream without a shutdown verb still persists the store —
  // a client hangup must not lose the session's inferred specs. A
  // failed save is a failed serve.
  if (!Shutdown) {
    std::string SaveErr;
    if (!saveStore(&SaveErr)) {
      std::cerr << "spec store: " << SaveErr << "\n";
      return 1;
    }
  }
  return 0;
}

std::string tnt::soakRequestJson(uint64_t Id, const std::string &Source) {
  return "{\"id\":" + std::to_string(Id) +
         ",\"program\":" + json::quoted(Source) + "}";
}

bool tnt::soakSamplesBounded(const std::vector<size_t> &Samples) {
  if (Samples.size() < SoakMinSamples)
    return false; // Windows would overlap; gate on SoakMinSamples first.
  size_t Baseline = 0, Final = 0;
  for (size_t I = 3; I < 7; ++I)
    Baseline = std::max(Baseline, Samples[I]);
  for (size_t I = Samples.size() - 3; I < Samples.size(); ++I)
    Final = std::max(Final, Samples[I]);
  return Final <= Baseline + Baseline / 4;
}

ServerStats AnalysisServer::stats() const {
  ServerStats S;
  S.Requests = Requests;
  S.Errors = Errors;
  S.Reclaims = Reclaims;
  S.Usage = Usage;
  S.CondTerm = Cond;
  S.LastReclaim = LastReclaim;
  if (Store != nullptr) {
    SpecStoreStats SS = Store->stats();
    S.StoreHits = SS.Hits;
    S.StoreMisses = SS.Misses;
  }
  if (const GlobalSolverCache *Tier = Batch.globalTier())
    S.Global = Tier->stats();
  ArithIntern &I = ArithIntern::global();
  S.InternExprs = I.exprCount();
  S.InternConstraints = I.constraintCount();
  S.InternFormulas = I.formulaCount();
  S.InternArenaBytes = I.arenaBytes();
  return S;
}
