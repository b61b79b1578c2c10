//===- api/AnalysisServer.h - Persistent analysis server --------*- C++ -*-===//
//
// Part of the hiptntpp project: a reproduction of "Termination and
// Non-Termination Specification Inference" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis server: a persistent process that answers
/// newline-delimited JSON requests. It keeps two things across
/// requests. Its in-memory spec store (store/SpecStore.h) holds every
/// group summary it inferred, keyed by content, so a group it has
/// already solved replays and skips verification and inference
/// entirely. Its global solver tier stays warm, so the groups it does
/// solve answer repeated queries from the shared cache. This is the
/// long-lived regime the paper's reuse argument points at
/// (specifications inferred once answer future queries cheaply) and
/// the ROADMAP's north star.
///
/// The store is always on and bounded: it refuses inserts past
/// SpecStore::MaxBytes rather than evicting, so the entry pointers a
/// request in flight holds stay valid. Two concurrent cold requests
/// for one content key both infer it and the first insert wins (an
/// entry is a pure function of its key). StorePath adds persistence
/// only: load at start, save at shutdown.
///
/// One engine, three ways in. The engine is a bounded admission queue
/// in front of a worker pool (Workers program requests in flight at
/// once); the transports only frame lines:
///
///   serve(In, Out)   stdin/stdout: submits one line and waits for its
///                    answer, so responses come back in request order.
///   serveSocket()    unix-domain socket: a reader thread per
///                    connection, many requests in flight. Responses to
///                    one connection may arrive OUT OF REQUEST ORDER, so
///                    clients correlate them by "id".
///   submitAndWait()  the same protocol in-process (tests, benches).
///
/// Protocol (one JSON object per line):
///
///   {"id": 1, "program": "int main(int n) { ... }"}      analyze source
///   {"id": 2, "path": "prog.t", "entry": "main"}         analyze a file
///   {"id": 3, "verb": "analyze-batch",
///    "programs": [{"program": ...}, {"path": ...}]}      batch request
///   {"id": 4, "verb": "stats"}                           server counters
///   {"id": 5, "verb": "metrics"}                         registry snapshot
///   {"id": 6, "verb": "health"}                          load snapshot
///   {"id": 7, "verb": "drain"}                           wait until idle
///   {"id": 8, "verb": "shutdown"}                        stop serving
///
/// analyze-batch answers one response line carrying a "results" array
/// with one entry per requested program, in request order; each entry
/// has the same fields as a single-program response minus the id
/// ({"ok","entry","verdict","output"} or {"ok":false,"error"}), and
/// each program is decoded and analyzed exactly like a standalone
/// request, so entries stay byte-identical to single-program responses
/// of the same sources.
///
/// Admission control. Program work (single requests and analyze-batch
/// lines) is admitted to a queue of QueueDepth entries; when it is full
/// the request is LOAD-SHED with a well-formed error object:
///
///   {"id":<id>,"ok":false,"error":"server overloaded: queue full",
///    "shed":true}
///
/// Control verbs and malformed lines never queue: they run on the
/// submitting thread, so an overloaded server still answers health
/// checks. shutdown drains in-flight work, saves the spec store (with
/// a StorePath), acks, and stops every transport.
///
/// Program responses carry {"id", "ok", "entry", "verdict", "output"}
/// and are BYTE-IDENTICAL to a fresh single-program analyzeProgram run
/// of the same source under the server's config: every request is
/// analyzed inside its own VarPool SESSION (a virgin block lease — see
/// arith/Var.h) on the exact block numbering analyzeProgram uses (root
/// block 0, group G on block G+1), so the ids and spellings a request
/// mints are a pure function of the request, independent of server
/// history and of sibling requests in flight, and the shared tier and
/// spec store are semantically transparent. Deliberately, the response
/// contains no times or cache counters — warmth must be unobservable in
/// it (the soak suites diff responses against fresh runs).
///
/// Epoch-scoped reclamation: without it, a server analyzing an
/// unbounded program stream grows the process-wide ArithIntern table
/// with every request. The server runs in ArithIntern epoch mode: once
/// every ReclaimEvery completed program requests it collects the
/// interned pointers still reachable from its tier (both cache
/// generations) as the retained root set and reclaims everything else.
/// It reclaims only at QUIESCENCE: dispatch pauses (new jobs keep
/// queueing) and the job that brings the in-flight count to zero runs
/// the reclaim, so no request ever spans an epoch boundary — the caller
/// contract ArithIntern::reclaim documents.
///
/// Reclamation also assumes this server's tier is the only
/// cross-request owner of interned pointers in the process. While any
/// other GlobalSolverCache is alive — a second server's (reclaiming or
/// not) or a tier-owning BatchAnalyzer's — the server stands down to
/// append-only mode until sole ownership returns (tested by
/// ServerProtocol.ConcurrentReclaimersStandDown). The gate cannot see
/// tier-less analyses running on other host threads; a host that runs
/// those must disable reclamation (ReclaimEvery = 0).
///
//===----------------------------------------------------------------------===//

#ifndef TNT_API_ANALYSISSERVER_H
#define TNT_API_ANALYSISSERVER_H

#include "api/BatchAnalyzer.h"
#include "support/Json.h"
#include "support/WorkStealingPool.h"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tnt {

class SpecStore;
class UnixListener;

/// Server configuration.
struct ServerOptions {
  /// Per-request analyzer knobs; the batch defaults (deadline-free,
  /// deterministic group fuel) keep responses reproducible.
  AnalyzerConfig Program = batchProgramConfig();
  /// Enable the warm global cache tier.
  bool GlobalTier = true;
  size_t GlobalSatCapacity = GlobalSolverCache::DefaultSatCapacity;
  size_t GlobalDnfCapacity = GlobalSolverCache::DefaultDnfCapacity;
  /// Program requests per intern epoch; 0 disables reclamation (the
  /// table then grows for the process lifetime, as in one-shot mode).
  unsigned ReclaimEvery = 64;
  /// Allow {"path": ...} requests to read files from disk.
  bool AllowPaths = true;
  /// Persistent spec store file: loaded at startup (inferred specs and
  /// the solver sat snapshot warm-start the server), saved atomically
  /// on shutdown / end of serve. Empty keeps the store in memory only;
  /// the server has a store either way.
  std::string StorePath;
  /// Maximum program requests in flight at once (also the worker-pool
  /// size). 0 is clamped to 1.
  unsigned Workers = 4;
  /// Bounded admission queue: program requests beyond the in-flight
  /// cap wait here; when it is full they are load-shed.
  size_t QueueDepth = 64;
  /// serveSocket() endpoint. Unused by the other transports.
  std::string SocketPath;
};

/// A stats() snapshot (also served by the "stats" verb).
struct ServerStats {
  uint64_t Requests = 0; ///< Program requests handled.
  uint64_t Errors = 0;   ///< Malformed requests / failed analyses.
  uint64_t Reclaims = 0; ///< Reclaim passes performed.
  uint64_t StoreHits = 0;   ///< Groups served from the spec store.
  uint64_t StoreMisses = 0; ///< Groups inferred (the store missed).
  size_t StoreEntries = 0;  ///< Entries the spec store holds.
  size_t StoreBytes = 0;    ///< Their key + entry bytes.
  uint64_t StoreRefused = 0; ///< Inserts refused at the byte cap.
  ReclaimStats LastReclaim;
  GlobalCacheStats Global;
  /// Cumulative per-request solver usage (sum of every handled
  /// program's SolverUsage) — the interval-prefilter counters live
  /// here.
  SolverStats Usage;
  /// Cumulative conditional-termination counters (zero unless the
  /// server's Program config enables --cond-term). Store-served groups
  /// contribute their producer-run counts, rehydrated from the entry's
  /// "ct" record, so warm and cold servers report the same numbers.
  CondTermStats CondTerm;
  size_t InternExprs = 0;
  size_t InternConstraints = 0;
  size_t InternFormulas = 0;
  size_t InternArenaBytes = 0;
};

/// One program request's result: the rendered response body plus the
/// counters the server folds into its totals.
struct RequestOutcome {
  /// Response-body fields (no braces, no id) — an "ok":true program
  /// body or an "ok":false error body.
  std::string Body;
  SolverStats Usage;
  CondTermStats Cond;
  /// An analysis actually ran (counts as a program request). False for
  /// decode-stage errors, which count as errors only.
  bool Ran = false;
  /// Body is an error body.
  bool Failed = false;
};

/// Analyzes one program source exactly like a fresh single-program run
/// — root block 0, group G on block G+1, executed serially on the
/// calling thread inside a FRESH VarPool session — and renders the
/// response body. This is the single analysis path behind the server's
/// workers and the byte-identity reference runs of the soak suites.
/// Thread-safe: concurrent calls share only the internally
/// synchronized tier, store and intern table. The caller owns epoch
/// discipline: the request's interned terms may be reclaimed at the
/// next epoch boundary, so no reclaim may run while a call is in
/// flight (quiescence).
RequestOutcome runProgramRequest(const std::string &Source,
                                 const std::string &Entry,
                                 const AnalyzerConfig &Config,
                                 GlobalSolverCache *Tier);

/// The analysis server. Owns the warm tier, the spec store, the engine
/// counters and the worker pool; thread-safe throughout (submitAndWait
/// may be called from any number of threads).
class AnalysisServer {
public:
  explicit AnalysisServer(ServerOptions Options = {});
  ~AnalysisServer();

  AnalysisServer(const AnalysisServer &) = delete;
  AnalysisServer &operator=(const AnalysisServer &) = delete;

  /// Handles one protocol line and returns the response (no trailing
  /// newline; empty for blank lines). Program lines block the CALLER
  /// until their job completes (or sheds); the server keeps serving
  /// other callers meanwhile.
  std::string submitAndWait(const std::string &Line);

  /// Reads newline-delimited requests from \p In until EOF or a
  /// shutdown, writing one response line per request to \p Out in
  /// request order (flushed per line). Returns 0, or 1 when persisting
  /// the spec store at end of stream failed (shutdown-verb save
  /// failures are reported in the ack and on stderr instead — the ack
  /// was promised to the client either way).
  int serve(std::istream &In, std::ostream &Out);

  /// Binds Options.SocketPath and serves connections until a shutdown
  /// verb arrives (from any transport) or requestShutdown() is called.
  /// Returns 0, or 1 when binding failed (\p Err set) or the
  /// end-of-serve store save failed.
  int serveSocket(std::string *Err = nullptr);

  /// Stops every transport: wakes the listener, hangs up readers,
  /// sheds new work. Does NOT save the store (that belongs to the
  /// shutdown verb / end-of-serve path). Safe from any thread.
  void requestShutdown();

  /// True once a shutdown verb was handled or requestShutdown() ran.
  bool shutdownRequested() const;

  /// Engine counters (requests, errors, reclaims, tier, cond-term...).
  ServerStats stats() const;

  /// Program requests rejected by admission control.
  uint64_t shedCount() const;

  /// Test hook: true freezes dispatch (jobs queue but never start), so
  /// a test can fill the bounded queue and observe a deterministic
  /// shed; false resumes and dispatches the backlog.
  void pauseDispatchForTest(bool Paused);

private:
  using Reply = std::function<void(std::string)>;
  struct Job {
    json::Value Req; ///< A program request or an analyze-batch line.
    std::string Id;  ///< Its rendered id.
    Reply Done;
    /// Admission time — the anchor for the queue-wait and total-latency
    /// histograms ("server.request.queue_us" / "...total_us"). Purely
    /// observational; never feeds a response.
    std::chrono::steady_clock::time_point Enqueued;
  };
  /// Per-connection state shared between its reader thread and the
  /// worker-side response writers.
  struct Conn {
    int Fd = -1;
    std::mutex WriteMu;     ///< One response line at a time.
    std::mutex Mu;          ///< Guards Outstanding and closing Fd.
    std::condition_variable Cv;
    unsigned Outstanding = 0; ///< Lines submitted, response not yet sent.
  };

  /// The dispatcher: classifies one line, admits program work to the
  /// queue and answers everything else on the calling thread. \p Done
  /// receives the response exactly once (synchronously for control and
  /// shed paths).
  void submitAsync(const std::string &Line, Reply Done);
  /// Runs one admitted job on a pool thread.
  void runJob(Job &J);
  /// Bookkeeping after a job: in-flight count, reclaim at quiescence,
  /// dispatch pump.
  void jobFinished(uint64_t ProgramsRan);
  /// Dispatches queued jobs while capacity allows (QM held).
  void pumpLocked();
  /// Blocks until no job is queued, in flight, or reclaiming.
  void waitIdle();
  void connLoop(std::shared_ptr<Conn> C);
  /// The end-of-serve store save of both transports, skipped when a
  /// shutdown verb already saved. Returns the serve's exit code.
  int finishServe();
  void countError();
  // The four below run with EngineMu held.
  bool saveStoreLocked(std::string *Err);
  ServerStats statsLocked() const;
  std::string statsJson(const std::string &Id) const;
  std::string metricsJson(const std::string &Id) const;

  ServerOptions Opt; ///< Program.Store points at Store.
  std::unique_ptr<SpecStore> Store; ///< Never null.
  std::unique_ptr<GlobalSolverCache> Tier; ///< Null when disabled.
  /// Reclamation was enabled at construction; the sole-owner gate is
  /// checked again at every reclaim (see file comment).
  bool Reclaiming = false;

  /// Serializes every touch of the engine state below: counter folds,
  /// stats, store saves, reclaims. Analysis itself runs outside it —
  /// runProgramRequest only shares internally synchronized state.
  mutable std::mutex EngineMu;
  uint64_t Requests = 0;
  uint64_t Errors = 0;
  uint64_t Reclaims = 0;
  SolverStats Usage;
  CondTermStats Cond;
  ReclaimStats LastReclaim;
  bool ShutdownSaved = false; ///< The shutdown verb ran its store save.

  mutable std::mutex QM; ///< Queue + dispatch + transport registry.
  std::condition_variable IdleCv;
  std::deque<Job> Queue;
  unsigned InFlight = 0;
  bool DispatchPaused = false;
  bool Draining = false;
  bool ShuttingDown = false;
  bool ReclaimPending = false;
  bool ReclaimInProgress = false;
  uint64_t CompletedPrograms = 0;
  uint64_t NextReclaimAt = 0; ///< 0: reclamation disabled.
  uint64_t ShedN = 0;
  UnixListener *Listener = nullptr; ///< Live only inside serveSocket.
  std::vector<std::weak_ptr<Conn>> Conns;

  /// Last: its workers run jobs against everything above.
  WorkStealingPool Pool;
};

/// One NDJSON program-request line for the server protocol, shared by
/// every soak driver (ServerSoakTest, `hiptnt --serve-smoke`, the
/// batch bench) so the request shape cannot drift between them.
std::string soakRequestJson(uint64_t Id, const std::string &Source);

/// Minimum per-epoch samples soakSamplesBounded needs for its two
/// comparison windows to be disjoint. Callers gate on this BEFORE
/// calling (and treat fewer samples as "not enough soak", not as a
/// leak) — the soak drivers all do.
constexpr size_t SoakMinSamples = 10;

/// The bounded-growth fence over per-epoch samples of an interned-term
/// metric (entry count or arena bytes), shared by the soak drivers.
/// Peak-to-peak: samples cycle with the tier's rotation phase and the
/// first epochs are warmup (the retained root set legitimately grows
/// until the first rotation), so the max of the LAST three samples
/// must stay within 25% of the max over samples [3, 7). Fewer than
/// SoakMinSamples returns false — gate on the count first to tell
/// "leak" apart from "not enough soak to judge".
bool soakSamplesBounded(const std::vector<size_t> &Samples);

} // namespace tnt

#endif // TNT_API_ANALYSISSERVER_H
