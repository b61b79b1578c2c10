//===- api/AnalysisServer.cpp ---------------------------------*- C++ -*-===//

#include "api/AnalysisServer.h"

#include "api/MetricsBridge.h"
#include "api/Pipeline.h"
#include "arith/Var.h"
#include "store/SpecStore.h"
#include "support/Metrics.h"
#include "support/Trace.h"
#include "support/UnixSocket.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <future>
#include <iostream>
#include <sstream>
#include <thread>

using namespace tnt;

namespace {

using Clock = std::chrono::steady_clock;

uint64_t microsSince(Clock::time_point T0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            T0)
          .count());
}

/// The request id rendered for echoing: raw number lexeme, quoted
/// string, or "null" when absent/other.
std::string idText(const json::Value &Req) {
  const json::Value *Id = Req.field("id");
  if (Id == nullptr)
    return "null";
  if (Id->isNumber())
    return Id->rawNumber();
  if (Id->isString())
    return json::quoted(Id->asString());
  return "null";
}

RequestOutcome errorOutcome(const std::string &Msg) {
  RequestOutcome O;
  O.Failed = true;
  O.Body = "\"ok\":false,\"error\":" + json::quoted(Msg);
  return O;
}

/// A complete {"id":...,"ok":false,"error":...} response line.
std::string errorResponse(const std::string &IdText, const std::string &Msg) {
  return "{\"id\":" + IdText + "," + errorOutcome(Msg).Body + "}";
}

/// Decodes ONE program-request object — "program" or "path" plus
/// optional "entry", with the type checks and the \p AllowPaths gate —
/// and runs it via runProgramRequest. Returns nullopt when the object
/// carries neither "program" nor "path". Standalone requests and
/// analyze-batch elements both decode here, which keeps batch entries
/// byte-identical to standalone responses.
std::optional<RequestOutcome> decodeAndRunRequest(const json::Value &Req,
                                                  const AnalyzerConfig &Config,
                                                  bool AllowPaths) {
  const json::Value *Prog = Req.field("program");
  const json::Value *Path = Req.field("path");
  if (Prog == nullptr && Path == nullptr)
    return std::nullopt;
  std::string Entry = "main";
  if (const json::Value *E = Req.field("entry")) {
    if (!E->isString())
      return errorOutcome("\"entry\" must be a string");
    Entry = E->asString();
  }
  if (Prog != nullptr) {
    if (!Prog->isString())
      return errorOutcome("\"program\" must be a string");
    return runProgramRequest(Prog->asString(), Entry, Config);
  }
  if (!AllowPaths)
    return errorOutcome("path requests are disabled");
  if (!Path->isString())
    return errorOutcome("\"path\" must be a string");
  std::ifstream In(Path->asString());
  if (!In)
    return errorOutcome("cannot open " + Path->asString());
  std::stringstream Buf;
  Buf << In.rdbuf();
  return runProgramRequest(Buf.str(), Entry, Config);
}

} // namespace

AnalysisServer::AnalysisServer(ServerOptions Options)
    : Opt(std::move(Options)),
      Store(std::make_unique<SpecStore>(
          SpecStore::configFingerprint(Opt.Program))),
      Pool(std::max(1u, Opt.Workers)) {
  Opt.Workers = std::max(1u, Opt.Workers);
  // The spec store is always on: every request's groups go through it,
  // so a group this server already inferred replays instead of running
  // again. A configured StorePath only adds persistence: the file is
  // loaded here and saved at shutdown. Store entries are plain strings
  // — no interned pointers — so epoch reclamation is unaffected by the
  // store.
  if (!Opt.StorePath.empty()) {
    std::string Err;
    if (!Store->load(Opt.StorePath, &Err)) {
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
        Opt.StorePath.clear(); // Saving becomes a no-op.
      }
      Store = std::make_unique<SpecStore>(
          SpecStore::configFingerprint(Opt.Program));
    }
  }
  Opt.Program.Store = Store.get();
  // Everything interned before this point (constant singletons, any
  // warmup the host process did) becomes permanent; per-request terms
  // from here on are generation-tagged and reclaimable.
  if (Opt.ReclaimEvery != 0)
    ArithIntern::global().beginEpochs();
  NextReclaimAt = Opt.ReclaimEvery;
}

AnalysisServer::~AnalysisServer() {
  requestShutdown();
  waitIdle();
  Pool.wait();
}

RequestOutcome tnt::runProgramRequest(const std::string &Source,
                                      const std::string &Entry,
                                      const AnalyzerConfig &Config) {
  RequestOutcome O;
  O.Ran = true;

  // Observability is strictly out-of-band: the span and the execution
  // histogram never touch O.
  trace::Span ReqSpan("request", "server");
  auto ExecT0 = Clock::now();

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
  // fresh single-program run.
  std::unique_ptr<PreparedProgram> PP = prepareProgram(Source, Config);
  AnalysisResult R;
  if (!PP->Ok) {
    R = finalizeProgram(*PP, {}, Config);
  } else {
    const size_t N = PP->Groups.size();
    std::vector<GroupRun> Runs(N);
    for (size_t G = 0; G < N; ++G)
      Runs[G] = runPipelineGroup(*PP, Config, G);
    R = finalizeProgram(*PP, std::move(Runs), Config);
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
  ExecUs.observe(microsSince(ExecT0));
  // PP and R (every Formula handle of this request) die HERE — nothing
  // of the request outlives its epoch except, as plain strings, what
  // the spec store captured. The caller guarantees no epoch boundary
  // while we were in flight.
  return O;
}

bool AnalysisServer::shutdownRequested() const {
  std::lock_guard<std::mutex> L(QM);
  return ShuttingDown;
}

uint64_t AnalysisServer::shedCount() const {
  std::lock_guard<std::mutex> L(QM);
  return ShedN;
}

void AnalysisServer::pauseDispatchForTest(bool Paused) {
  std::lock_guard<std::mutex> L(QM);
  DispatchPaused = Paused;
  if (!Paused)
    pumpLocked();
}

void AnalysisServer::countError() {
  std::lock_guard<std::mutex> E(EngineMu);
  ++Errors;
}

void AnalysisServer::pumpLocked() {
  while (!DispatchPaused && !ReclaimPending && !ReclaimInProgress &&
         InFlight < Opt.Workers && !Queue.empty()) {
    auto J = std::make_shared<Job>(std::move(Queue.front()));
    Queue.pop_front();
    ++InFlight;
    Pool.submit([this, J] { runJob(*J); });
  }
}

void AnalysisServer::waitIdle() {
  std::unique_lock<std::mutex> L(QM);
  IdleCv.wait(L, [&] {
    return Queue.empty() && InFlight == 0 && !ReclaimPending &&
           !ReclaimInProgress;
  });
}

void AnalysisServer::jobFinished(uint64_t ProgramsRan) {
  std::unique_lock<std::mutex> L(QM);
  --InFlight;
  CompletedPrograms += ProgramsRan;
  if (NextReclaimAt != 0 && CompletedPrograms >= NextReclaimAt)
    ReclaimPending = true;
  if (ReclaimPending && InFlight == 0) {
    // Quiescence: we are the job that idled the server, so no live
    // request can reach any reclaimable term. ReclaimPending keeps the
    // pump paused while the engine lock is taken.
    ReclaimInProgress = true;
    L.unlock();
    {
      std::lock_guard<std::mutex> E(EngineMu);
      // Sole-engine gate: the sweep frees every term interned this
      // epoch, which is only sound when no other engine — a second
      // server (reclaiming or not) or a BatchAnalyzer — may be holding
      // some. With any other engine alive, stand down (append-only
      // mode) rather than free terms from under it.
      if (LiveEngine::count() == 1) {
        LastReclaim = ArithIntern::global().reclaim();
        ++Reclaims;
      }
    }
    L.lock();
    ReclaimInProgress = false;
    ReclaimPending = false;
    NextReclaimAt =
        (CompletedPrograms / Opt.ReclaimEvery + 1) * Opt.ReclaimEvery;
  }
  pumpLocked();
  IdleCv.notify_all();
}

void AnalysisServer::runJob(Job &J) {
  // Queue wait: dispatch minus admission. Observed before the work so
  // a long-running job does not hide the wait that preceded it.
  static metrics::Histogram &QueueUs =
      metrics::Registry::get().histogram("server.request.queue_us");
  static metrics::Histogram &TotalUs =
      metrics::Registry::get().histogram("server.request.total_us");
  QueueUs.observe(microsSince(J.Enqueued));
  trace::ScopedTag IdTag("request_id", J.Id);

  std::vector<RequestOutcome> Outcomes;
  std::string Response = "{\"id\":" + J.Id + ",";
  const json::Value *Programs = J.Req.field("programs");
  if (J.Req.field("verb") == nullptr) {
    // Admission guarantees a "program" or "path" field.
    Outcomes.push_back(
        *decodeAndRunRequest(J.Req, Opt.Program, Opt.AllowPaths));
    Response += Outcomes.back().Body + "}";
  } else if (Programs == nullptr || !Programs->isArray()) {
    Outcomes.push_back(
        errorOutcome("analyze-batch needs a \"programs\" array"));
    Response += Outcomes.back().Body + "}";
  } else {
    // analyze-batch: answered strictly in request order, each element
    // decoded and analyzed by the same path as a standalone request,
    // assembled into one response line.
    Response += "\"ok\":true,\"results\":[";
    for (const json::Value &Item : Programs->elements()) {
      std::optional<RequestOutcome> O;
      if (!Item.isObject())
        O = errorOutcome("request is not a JSON object");
      else if (!(O = decodeAndRunRequest(Item, Opt.Program, Opt.AllowPaths)))
        O = errorOutcome("batch element needs \"program\" or \"path\"");
      Response += (Outcomes.empty() ? "{" : ",{") + O->Body + "}";
      Outcomes.push_back(std::move(*O));
    }
    Response += "]}";
  }

  uint64_t ProgramsRan = 0;
  {
    std::lock_guard<std::mutex> E(EngineMu);
    for (const RequestOutcome &O : Outcomes) {
      ProgramsRan += O.Ran ? 1 : 0;
      Errors += O.Failed ? 1 : 0;
      Usage += O.Usage;
      Cond += O.Cond;
    }
    Requests += ProgramsRan;
  }
  // Bookkeeping BEFORE the response: once a client's submitAndWait
  // returns, the server must no longer count the job in flight — a
  // drain-then-health sequence from that client is otherwise racy.
  // (The job that crosses the reclaim cadence therefore also delivers
  // its response after the quiescent reclaim it triggered.)
  jobFinished(ProgramsRan);
  TotalUs.observe(microsSince(J.Enqueued));
  J.Done(std::move(Response));
}

void AnalysisServer::submitAsync(const std::string &Line, Reply Done) {
  // Blank lines keep a stream alive without a response.
  if (Line.find_first_not_of(" \t\r") == std::string::npos) {
    Done("");
    return;
  }
  std::string Err;
  std::optional<json::Value> Req = json::parse(Line, &Err);
  if (!Req || !Req->isObject()) {
    countError();
    Done(errorResponse("null", Req ? "request is not a JSON object" : Err));
    return;
  }
  std::string Id = idText(*Req);
  // Tag any spans the request opens on this thread (trace cat
  // "server"/"store"/...) with the request id; a no-op unless tracing
  // is on. Admitted jobs tag their worker thread in runJob.
  trace::ScopedTag IdTag("request_id", Id);
  const json::Value *Verb = Req->field("verb");
  if (Verb != nullptr && !Verb->isString()) {
    countError();
    Done(errorResponse(Id, "\"verb\" must be a string"));
    return;
  }
  const std::string V = Verb != nullptr ? Verb->asString() : "";

  // Admission control for analysis work.
  if (V == "analyze-batch" ||
      (Verb == nullptr &&
       (Req->field("program") != nullptr || Req->field("path") != nullptr))) {
    static metrics::Counter &ShedCount =
        metrics::Registry::get().counter("server.shed");
    std::string Refusal;
    {
      std::lock_guard<std::mutex> L(QM);
      if (ShuttingDown) {
        Refusal = errorResponse(Id, "server is shutting down");
      } else if (Draining || Queue.size() >= Opt.QueueDepth) {
        ++ShedN;
        ShedCount.add(1);
        Refusal = "{\"id\":" + Id + ",\"ok\":false,\"error\":\"" +
                  (Draining ? "server draining"
                            : "server overloaded: queue full") +
                  "\",\"shed\":true}";
      } else {
        Queue.push_back(
            Job{std::move(*Req), std::move(Id), std::move(Done), Clock::now()});
        pumpLocked();
        return;
      }
    }
    Done(std::move(Refusal));
    return;
  }

  // Control plane: runs on the submitting thread, never queued — an
  // overloaded server still answers these.
  std::string Response;
  bool Stop = false;
  if (Verb == nullptr) {
    countError();
    Response =
        errorResponse(Id, "request needs \"program\", \"path\" or \"verb\"");
  } else if (V == "stats" || V == "metrics") {
    std::lock_guard<std::mutex> E(EngineMu);
    Response = V == "stats" ? statsJson(Id) : metricsJson(Id);
  } else if (V == "health") {
    std::lock_guard<std::mutex> L(QM);
    Response = "{\"id\":" + Id + ",\"ok\":true,\"health\":\"ok\",\"workers\":" +
               std::to_string(Opt.Workers) +
               ",\"inflight\":" + std::to_string(InFlight) +
               ",\"queued\":" + std::to_string(Queue.size()) +
               ",\"shed\":" + std::to_string(ShedN) + "}";
  } else if (V == "drain") {
    {
      std::lock_guard<std::mutex> L(QM);
      Draining = true;
    }
    waitIdle();
    {
      std::lock_guard<std::mutex> L(QM);
      if (!ShuttingDown)
        Draining = false;
    }
    Response = "{\"id\":" + Id + ",\"ok\":true,\"drained\":true}";
  } else if (V == "shutdown") {
    {
      std::lock_guard<std::mutex> L(QM);
      Stop = !ShuttingDown;
      Draining = true; // New analysis work sheds while we drain.
    }
    if (!Stop) {
      Response = errorResponse(Id, "server is shutting down");
    } else {
      waitIdle();
      Response = "{\"id\":" + Id + ",\"ok\":true,\"shutdown\":true";
      std::lock_guard<std::mutex> E(EngineMu);
      ShutdownSaved = true;
      std::string SaveErr;
      if (!saveStoreLocked(&SaveErr)) {
        // The session's specs could not be persisted; the ack says so
        // (and stderr records it) instead of exiting clean.
        std::cerr << "spec store: " << SaveErr << "\n";
        Response += ",\"store_error\":" + json::quoted(SaveErr);
      }
      Response += "}";
    }
  } else {
    countError();
    Response = errorResponse(Id, "unknown verb '" + V + "'");
  }
  // Deliver the shutdown ack BEFORE hanging up the transports:
  // requestShutdown half-closes every connection fd, so a write after
  // it is lost — the client would see EOF instead of its ack.
  Done(std::move(Response));
  if (Stop)
    requestShutdown();
}

std::string AnalysisServer::submitAndWait(const std::string &Line) {
  std::promise<std::string> P;
  std::future<std::string> F = P.get_future();
  submitAsync(Line, [&P](std::string Resp) { P.set_value(std::move(Resp)); });
  return F.get();
}

int AnalysisServer::serve(std::istream &In, std::ostream &Out) {
  std::string Line;
  while (!shutdownRequested() && std::getline(In, Line)) {
    std::string Response = submitAndWait(Line);
    if (!Response.empty()) {
      Out << Response << "\n";
      Out.flush();
    }
  }
  return finishServe();
}

int AnalysisServer::finishServe() {
  // A serve that ended without a shutdown verb (end of stream, client
  // hangup, host-driven requestShutdown) still persists the store — it
  // must not lose the session's inferred specs. A failed save is a
  // failed serve.
  std::lock_guard<std::mutex> E(EngineMu);
  std::string SaveErr;
  if (ShutdownSaved || saveStoreLocked(&SaveErr))
    return 0;
  std::cerr << "spec store: " << SaveErr << "\n";
  return 1;
}

void AnalysisServer::requestShutdown() {
  std::vector<std::shared_ptr<Conn>> Live;
  {
    std::lock_guard<std::mutex> L(QM);
    ShuttingDown = true;
    Draining = true;
    if (Listener != nullptr)
      Listener->wake();
    for (const std::weak_ptr<Conn> &W : Conns)
      if (std::shared_ptr<Conn> C = W.lock())
        Live.push_back(std::move(C));
  }
  // Hang up readers outside the lock; their loops exit and close the
  // fds once outstanding responses are flushed. C->Mu orders this
  // against the close, so a closed (and maybe reused) fd number is
  // never shut down.
  for (const std::shared_ptr<Conn> &C : Live) {
    std::lock_guard<std::mutex> L(C->Mu);
    shutdownFd(C->Fd);
  }
}

void AnalysisServer::connLoop(std::shared_ptr<Conn> C) {
  auto Respond = [C](std::string Resp) {
    if (!Resp.empty()) {
      Resp += '\n';
      std::lock_guard<std::mutex> W(C->WriteMu);
      writeAll(C->Fd, Resp.data(), Resp.size());
    }
    {
      std::lock_guard<std::mutex> L(C->Mu);
      --C->Outstanding;
    }
    C->Cv.notify_all();
  };
  LineReader Reader(C->Fd);
  std::string Line;
  while (Reader.readLine(Line)) {
    {
      std::lock_guard<std::mutex> L(C->Mu);
      ++C->Outstanding;
    }
    submitAsync(Line, Respond);
    if (shutdownRequested())
      break;
  }
  if (Reader.overlong()) {
    // A peer that never sends a newline cannot grow the buffer past
    // the cap; it gets one error line and loses its connection.
    countError();
    std::string Resp =
        errorResponse("null", "request line exceeds " +
                                  std::to_string(LineReader::MaxLineBytes) +
                                  " bytes") +
        "\n";
    std::lock_guard<std::mutex> W(C->WriteMu);
    writeAll(C->Fd, Resp.data(), Resp.size());
  }
  // EOF (or hangup): wait for in-flight responses of THIS connection
  // before closing its fd — a worker must never write a closed fd.
  std::unique_lock<std::mutex> L(C->Mu);
  C->Cv.wait(L, [&] { return C->Outstanding == 0; });
  closeFd(C->Fd);
  C->Fd = -1;
}

int AnalysisServer::serveSocket(std::string *Err) {
  UnixListener L;
  if (Opt.SocketPath.empty()) {
    if (Err != nullptr)
      *Err = "no socket path configured";
    return 1;
  }
  if (!L.bindAndListen(Opt.SocketPath, Err))
    return 1;
  {
    std::lock_guard<std::mutex> G(QM);
    Listener = &L;
    if (ShuttingDown)
      L.wake();
  }
  std::vector<std::thread> Readers;
  for (;;) {
    int Fd = L.acceptFd();
    if (Fd < 0)
      break;
    auto C = std::make_shared<Conn>();
    C->Fd = Fd;
    {
      std::lock_guard<std::mutex> G(QM);
      if (ShuttingDown) {
        closeFd(Fd);
        break;
      }
      Conns.push_back(C);
    }
    Readers.emplace_back([this, C] { connLoop(std::move(C)); });
  }
  {
    std::lock_guard<std::mutex> G(QM);
    Listener = nullptr;
  }
  for (std::thread &T : Readers)
    T.join();
  waitIdle();
  L.close();
  return finishServe();
}

bool AnalysisServer::saveStoreLocked(std::string *Err) {
  if (Opt.StorePath.empty())
    return true;
  return Store->save(Opt.StorePath, Err);
}

std::string AnalysisServer::statsJson(const std::string &Id) const {
  ServerStats S = statsLocked();
  std::ostringstream Out;
  Out << "{\"id\":" << Id << ",\"ok\":true,\"stats\":{"
      << "\"requests\":" << S.Requests << ",\"errors\":" << S.Errors
      << ",\"store_hits\":" << S.StoreHits
      << ",\"store_misses\":" << S.StoreMisses
      << ",\"store_entries\":" << S.StoreEntries
      << ",\"store_bytes\":" << S.StoreBytes
      << ",\"store_refused\":" << S.StoreRefused
      << ",\"reclaims\":" << S.Reclaims << ",\"generation\":"
      << ArithIntern::global().generation() << ",\"last_reclaim\":{"
      << "\"dropped\":" << S.LastReclaim.dropped()
      << ",\"bytes_before\":" << S.LastReclaim.BytesBefore
      << ",\"bytes_after\":" << S.LastReclaim.BytesAfter << "},\"intern\":{"
      << "\"formulas\":" << S.InternFormulas
      << ",\"arena_bytes\":" << S.InternArenaBytes << "},\"cond_term\":{"
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
  // timings, admission counters) are already in the registry — they
  // accumulate at event time.
  ServerStats S = statsLocked();
  metrics::Registry &R = metrics::Registry::get();
  R.setGauge("server.requests", static_cast<int64_t>(S.Requests));
  R.setGauge("server.errors", static_cast<int64_t>(S.Errors));
  R.setGauge("server.reclaims", static_cast<int64_t>(S.Reclaims));
  R.setGauge("server.intern_formulas",
             static_cast<int64_t>(S.InternFormulas));
  R.setGauge("server.intern_arena_bytes",
             static_cast<int64_t>(S.InternArenaBytes));
  bridgeSolverStats("solver.", S.Usage);
  bridgeCondTermStats("cond_term.", S.CondTerm);
  bridgeSpecStoreStats("spec_store.", Store->stats());
  return "{\"id\":" + Id + ",\"ok\":true,\"metrics\":" +
         R.snapshotJson() + "}";
}

ServerStats AnalysisServer::stats() const {
  std::lock_guard<std::mutex> E(EngineMu);
  return statsLocked();
}

ServerStats AnalysisServer::statsLocked() const {
  ServerStats S;
  S.Requests = Requests;
  S.Errors = Errors;
  S.Reclaims = Reclaims;
  S.Usage = Usage;
  S.CondTerm = Cond;
  S.LastReclaim = LastReclaim;
  SpecStoreStats SS = Store->stats();
  S.StoreHits = SS.Hits;
  S.StoreMisses = SS.Misses;
  S.StoreEntries = SS.Entries;
  S.StoreBytes = SS.Bytes;
  S.StoreRefused = SS.Refused;
  ArithIntern &I = ArithIntern::global();
  S.InternFormulas = I.formulaCount();
  S.InternArenaBytes = I.arenaBytes();
  return S;
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
