//===- api/AnalysisServer.h - Persistent analysis front end -----*- C++ -*-===//
//
// Part of the hiptntpp project: a reproduction of "Termination and
// Non-Termination Specification Inference" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis-server front end: a persistent process that reads
/// newline-delimited JSON requests and streams one response line per
/// request, keeping one BatchAnalyzer's global solver tier warm across
/// requests so repeated and similar programs answer from the shared
/// cache. This is the long-lived regime the paper's reuse argument
/// points at (specifications inferred once answer future queries
/// cheaply) and the ROADMAP's north star.
///
/// Protocol (one JSON object per line):
///
///   {"id": 1, "program": "int main(int n) { ... }"}      analyze source
///   {"id": 2, "path": "prog.t", "entry": "main"}         analyze a file
///   {"id": 3, "verb": "analyze-batch",
///    "programs": [{"program": ...}, {"path": ...}]}      batch request
///   {"id": 4, "verb": "stats"}                           server counters
///   {"id": 5, "verb": "metrics"}                         registry snapshot
///   {"id": 6, "verb": "shutdown"}                        stop serving
///
/// analyze-batch answers one response line carrying a "results" array
/// with one entry per requested program, in request order; each entry
/// has the same fields as a single-program response minus the id
/// ({"ok","entry","verdict","output"} or {"ok":false,"error"}), and
/// each program is analyzed exactly like a standalone request (same
/// block numbering, same reclaim cadence), so entries stay
/// byte-identical to single-program responses of the same sources.
///
/// Program responses carry {"id", "ok", "entry", "verdict", "output"}
/// and are BYTE-IDENTICAL to a fresh single-program analyzeProgram run
/// of the same source under the server's config: every request is
/// analyzed inside its own VarPool SESSION (a virgin block lease — see
/// arith/Var.h) on the exact block numbering analyzeProgram uses (root
/// block 0, group G on block G+1), so the ids and spellings a request
/// mints are a pure function of the request, independent of server
/// history, and the shared tier is semantically transparent.
/// Deliberately, the response contains no times or cache counters —
/// warmth must be unobservable in it (the soak suite diffs every
/// response against a fresh run). The session design is also what lets
/// the CONCURRENT front end (api/ConcurrentServer.h) multiplex many
/// in-flight requests over one engine without giving up a byte of
/// determinism: sibling requests cannot observe each other through the
/// pool.
///
/// Epoch-scoped reclamation: without it, a server analyzing an
/// unbounded program stream grows the process-wide ArithIntern table
/// with every request. The server runs in ArithIntern epoch mode:
/// every ReclaimEvery program requests it collects the interned
/// pointers still reachable from the global tier (both cache
/// generations) as the retained root set and reclaims everything else
/// — per-request garbage lives for at most one epoch, and combined
/// with the tier's capacity rotation the whole footprint is bounded.
/// Reclamation assumes this server's tier is the only cross-request
/// owner of interned pointers in the process; while any other
/// GlobalSolverCache is alive — a sibling server's (reclaiming or
/// not) or a tier-owning BatchAnalyzer's — the server stands down to
/// append-only mode until sole ownership returns (tested by
/// ServerSoakTest). The gate cannot see analyses with no tier running
/// concurrently on other host threads; a host that does that must
/// either disable reclamation (ReclaimEvery = 0) or guarantee
/// QUIESCENCE at every reclaim — no analysis in flight — per
/// ArithIntern::reclaim's caller contract. The serial serve() loop
/// gets quiescence for free (strictly one request at a time); the
/// concurrent front end pauses dispatch and waits for in-flight
/// requests to drain before calling reclaimNow().
///
//===----------------------------------------------------------------------===//

#ifndef TNT_API_ANALYSISSERVER_H
#define TNT_API_ANALYSISSERVER_H

#include "api/BatchAnalyzer.h"
#include "support/Json.h"

#include <iosfwd>
#include <memory>
#include <string>

namespace tnt {

class SpecStore;

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
  /// on shutdown / end of stream. Empty disables persistence.
  std::string StorePath;
  /// Alternatively, an externally owned store (tests; overrides
  /// StorePath's loading — saving still goes to StorePath if set).
  SpecStore *Store = nullptr;
};

/// A stats() snapshot (also served by the "stats" verb).
struct ServerStats {
  uint64_t Requests = 0; ///< Program requests handled.
  uint64_t Errors = 0;   ///< Malformed requests / failed analyses.
  uint64_t Reclaims = 0; ///< Reclaim passes performed.
  uint64_t StoreHits = 0;   ///< Groups served from the spec store.
  uint64_t StoreMisses = 0; ///< Groups inferred with a store attached.
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
/// counters the engine folds into its totals. Produced by
/// runProgramRequest / decodeAndRunRequest, consumed by
/// AnalysisServer::accumulate — the one shape both the serial and the
/// concurrent front end speak.
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
/// response body. This is the single analysis path behind the serial
/// server, the concurrent server's workers, and the byte-identity
/// reference runs of the soak suites. Thread-safe: concurrent calls
/// share only the internally synchronized tier, store and intern
/// table. The caller owns epoch discipline: the request's interned
/// terms may be reclaimed at the next epoch boundary, so no reclaim
/// may run while a call is in flight (quiescence).
RequestOutcome runProgramRequest(const std::string &Source,
                                 const std::string &Entry,
                                 const AnalyzerConfig &Config,
                                 GlobalSolverCache *Tier);

/// Decodes ONE program-request object — "program" or "path" plus
/// optional "entry", with the type checks and the \p AllowPaths gate —
/// and runs it via runProgramRequest. Returns nullopt when the object
/// carries neither key (the caller owns that error's wording: a
/// top-level request may still have a "verb"). The single decode path
/// is what keeps analyze-batch elements and concurrent-server
/// responses byte-identical to standalone serial responses.
std::optional<RequestOutcome> decodeAndRunRequest(const json::Value &Req,
                                                  const AnalyzerConfig &Config,
                                                  GlobalSolverCache *Tier,
                                                  bool AllowPaths);

namespace proto {
/// The request id rendered for echoing: raw number lexeme, quoted
/// string, or "null" when absent/other.
std::string idText(const json::Value &Req);
/// A complete {"id":...,"ok":false,"error":...} response line.
std::string errorResponse(const std::string &IdText, const std::string &Msg);
} // namespace proto

/// The persistent front end. One instance owns one BatchAnalyzer whose
/// global tier stays warm for the server's lifetime. serve() handles
/// requests strictly one at a time; ConcurrentAnalysisServer wraps an
/// instance to multiplex many in-flight requests over the same engine
/// (cross-request cache reuse is where the service wins either way;
/// concurrency adds throughput, sessions keep it unobservable).
class AnalysisServer {
public:
  explicit AnalysisServer(ServerOptions Options = {});
  ~AnalysisServer();

  AnalysisServer(const AnalysisServer &) = delete;
  AnalysisServer &operator=(const AnalysisServer &) = delete;

  /// Reads newline-delimited requests from \p In until EOF or a
  /// shutdown verb, writing one response line per request to \p Out
  /// (flushed per line). Returns 0, or 1 when persisting the spec
  /// store at end of stream failed (shutdown-verb save failures are
  /// reported in the ack and on stderr instead — the ack was promised
  /// to the client either way).
  int serve(std::istream &In, std::ostream &Out);

  /// Handles one request line and returns the response (no trailing
  /// newline; empty for blank input lines). Exposed so tests and the
  /// smoke driver can exercise the exact protocol path in-process.
  std::string handleLine(const std::string &Line);

  /// True once a shutdown verb has been handled.
  bool shutdownRequested() const { return Shutdown; }

  ServerStats stats() const;

  /// The warm tier (null when disabled).
  GlobalSolverCache *globalTier() { return Batch.globalTier(); }

  /// The spec store (null when persistence is off).
  SpecStore *specStore() { return Store; }

  /// Saves the spec store (and the tier's sat snapshot) to the
  /// configured StorePath; no-op without one. Called on shutdown and
  /// at end of stream; exposed for hosts that serve() other loops.
  bool saveStore(std::string *Err = nullptr);

  /// Forces an epoch boundary now (normally driven by ReclaimEvery).
  /// Caller must guarantee quiescence: no analysis in flight.
  void reclaimNow();

  /// Folds one request outcome into the server's counters (requests,
  /// errors, solver usage, cond-term). Does NOT drive the reclaim
  /// cadence — the serial path does that right after, the concurrent
  /// front end at its next quiescence point. Not internally locked;
  /// the concurrent front end serializes calls under its engine lock.
  void accumulate(const RequestOutcome &Outcome);

  /// Program requests handled so far (drives the reclaim cadence).
  uint64_t requestCount() const { return Requests; }

  /// The effective options (Program.Store is patched to the loaded
  /// store) — the concurrent front end runs its workers off these.
  const ServerOptions &options() const { return Opt; }

  /// The complete stats-verb response line (shared with the concurrent
  /// front end's stats verb, so both report identical shapes).
  std::string statsJson(const std::string &IdText) const;

  /// The complete metrics-verb response line:
  /// {"id":...,"ok":true,"metrics":<registry snapshot>}. Bridges the
  /// engine's cumulative counters (server.*, solver.*, tier.*,
  /// cond_term.*, spec_store.*) into the process-wide metrics registry
  /// (support/Metrics.h) and snapshots it — so the one response also
  /// carries every event-driven instrument (request latency
  /// histograms, batch timings, concurrent-server admission counters).
  /// The concurrent front end routes its metrics verb here too.
  std::string metricsJson(const std::string &IdText) const;

private:
  /// Decodes and runs one program-request object via
  /// decodeAndRunRequest, folds the outcome and drives the reclaim
  /// cadence; nullopt when the object has neither "program" nor
  /// "path".
  std::optional<std::string> decodeAndRun(const json::Value &Req);
  std::string handleBatchVerb(const std::string &IdText,
                              const json::Value &Req);

  ServerOptions Opt;
  std::unique_ptr<SpecStore> OwnedStore; ///< When StorePath is set.
  SpecStore *Store = nullptr;
  BatchAnalyzer Batch; ///< Owns the warm global tier.
  uint64_t Requests = 0;
  uint64_t Errors = 0;
  uint64_t Reclaims = 0;
  SolverStats Usage;
  CondTermStats Cond;
  ReclaimStats LastReclaim;
  bool Shutdown = false;
  /// True when this server was constructed with reclamation enabled.
  /// reclaimNow() additionally checks at reclaim time that this is the
  /// process's ONLY live reclaiming server and that no other
  /// GlobalSolverCache instance exists (see file comment); otherwise
  /// it stands down — the table then just grows, exactly as in
  /// one-shot mode.
  bool Reclaiming = false;
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
