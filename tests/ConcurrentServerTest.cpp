//===- tests/ConcurrentServerTest.cpp - multi-client front end --*- C++ -*-===//
//
// The regression fence for the analysis server under concurrency
// (api/AnalysisServer.h): many clients multiplexed over the worker
// pool must get the same protocol bytes as one client AND responses
// byte-identical to fresh-context runs — concurrency may change which
// requests compute answers and which reuse them, never the bytes of
// any response.
//
//  * Stress: K=8 client threads race program requests over a small
//    worker pool with a tight reclaim cadence, so epoch reclamation
//    interleaves with in-flight work. Every response is diffed against
//    a fresh serial session-wrapped run of the same source; zero
//    global-id fallbacks; the shared VarPool never grows (per-request
//    sessions are private).
//
//  * Admission control: a deterministic load-shed (dispatch frozen via
//    the test hook, queue filled to capacity) with the exact documented
//    error object; drain and health verbs.
//
//  * Transport: the unix-domain socket loop with concurrent clients,
//    responses correlated by id, and its line-length cap.
//
// The suites run under TSan in CI (tsan-concurrency job) — the
// scheduler races here are the point, not an accident.
//
//===----------------------------------------------------------------------===//

#include "api/AnalysisServer.h"
#include "arith/Var.h"
#include "support/Json.h"
#include "support/UnixSocket.h"
#include "workloads/Corpus.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <thread>

#include <sys/socket.h>

using namespace tnt;

namespace {

/// The serial fresh-context reference for one source: a virgin VarPool
/// session around a bare analyzeProgram — exactly the context every
/// server request runs in, so equality IS the byte-identity contract.
/// Rendering happens INSIDE the session (spellings are session-local;
/// they are unresolvable once the lease dies), so the reference is the
/// rendered strings, not the AnalysisResult.
struct FreshRun {
  bool Ok = false;
  std::string Diags;
  std::string Output;
  std::string Verdict;
};
FreshRun freshReference(const std::string &Src,
                        const AnalyzerConfig &Config) {
  VarPool::Session Lease;
  VarPool::SessionScope Active(Lease);
  AnalysisResult R = analyzeProgram(Src, Config);
  FreshRun Out;
  Out.Ok = R.Ok;
  Out.Diags = R.Diagnostics;
  if (R.Ok) {
    Out.Output = R.str();
    Out.Verdict = outcomeStr(R.outcome("main"));
  }
  return Out;
}

/// Parses a response and checks it against the fresh reference run.
void expectMatchesFresh(const std::string &Response, const std::string &Src,
                        const AnalyzerConfig &Config, unsigned Idx) {
  std::optional<json::Value> R = json::parse(Response);
  ASSERT_TRUE(R && R->isObject()) << Response;
  const json::Value *Ok = R->field("ok");
  ASSERT_TRUE(Ok != nullptr && Ok->asBool())
      << "request " << Idx << ": " << Response;
  FreshRun Fresh = freshReference(Src, Config);
  ASSERT_TRUE(Fresh.Ok) << Fresh.Diags;
  const json::Value *Output = R->field("output");
  const json::Value *Verdict = R->field("verdict");
  ASSERT_TRUE(Output != nullptr && Verdict != nullptr) << Response;
  EXPECT_EQ(Output->asString(), Fresh.Output) << "request " << Idx;
  EXPECT_EQ(Verdict->asString(), Fresh.Verdict) << "request " << Idx;
}

} // namespace

TEST(ServerConcurrent, MultiClientByteIdenticalToSerialFreshRuns) {
  ServerOptions CO;
  CO.Workers = 4;
  CO.QueueDepth = 64;
  // Tight cadence: quiescent reclaim epochs must interleave with the
  // client races, not happen once at the end.
  CO.ReclaimEvery = 10;

  constexpr unsigned Clients = 8;
  constexpr unsigned PerClient = 6;
  std::vector<BatchItem> Items = corpusBatchItems(12);
  const size_t PoolBefore = VarPool::get().size();
  const uint64_t FallbacksBefore = VarPool::get().scopedFallbacks();

  // Sources and responses indexed by request id = C * PerClient + R.
  std::vector<std::string> Sources(Clients * PerClient);
  std::vector<std::string> Responses(Clients * PerClient);
  for (unsigned Idx = 0; Idx < Clients * PerClient; ++Idx)
    Sources[Idx] = soakVariantSource(Items[Idx % Items.size()].Source, Idx);

  {
    AnalysisServer Server(CO);
    std::vector<std::thread> Threads;
    for (unsigned C = 0; C < Clients; ++C)
      Threads.emplace_back([&, C] {
        for (unsigned R = 0; R < PerClient; ++R) {
          unsigned Idx = C * PerClient + R;
          Responses[Idx] =
              Server.submitAndWait(soakRequestJson(Idx, Sources[Idx]));
        }
      });
    for (std::thread &T : Threads)
      T.join();

    ServerStats S = Server.stats();
    EXPECT_EQ(S.Requests, uint64_t(Clients) * PerClient);
    EXPECT_EQ(S.Errors, 0u);
    EXPECT_GT(S.Reclaims, 0u)
        << "reclamation never interleaved with the concurrent soak";
    EXPECT_EQ(Server.shedCount(), 0u)
        << "an unsaturated queue shed requests";
  }

  // Every concurrent response equals a fresh serial session run —
  // computed AFTER the races, so the comparisons cannot perturb them.
  for (unsigned Idx = 0; Idx < Clients * PerClient; ++Idx)
    expectMatchesFresh(Responses[Idx], Sources[Idx], CO.Program, Idx);

  // The carve-out retirement fences: no request fell back to the
  // shared global-id region, and no request-local spelling leaked into
  // the shared pool.
  EXPECT_EQ(VarPool::get().scopedFallbacks(), FallbacksBefore);
  EXPECT_EQ(VarPool::get().size(), PoolBefore);
}

TEST(ServerConcurrent, BatchVerbMatchesSerialServer) {
  // analyze-batch through the worker pool produces exactly the response
  // the serial runProgramRequest bodies assemble for the
  // same line — batch elements run per-request sessions either way.
  std::vector<BatchItem> Items = corpusBatchItems(3);
  std::string Line = "{\"id\":7,\"verb\":\"analyze-batch\",\"programs\":[";
  for (size_t I = 0; I < Items.size(); ++I)
    Line += (I ? "," : "") +
            ("{\"program\":" + json::quoted(Items[I].Source) + "}");
  Line += "]}";

  ServerOptions SO;
  AnalysisServer Conc(SO);
  std::string ConcResp = Conc.submitAndWait(Line);
  std::string Serial = "{\"id\":7,\"ok\":true,\"results\":[";
  for (size_t I = 0; I < Items.size(); ++I)
    Serial += (I ? ",{" : "{") +
              runProgramRequest(Items[I].Source, "main", SO.Program).Body +
              "}";
  Serial += "]}";
  EXPECT_EQ(ConcResp, Serial);
  EXPECT_EQ(Conc.stats().Requests, Items.size());
}

TEST(ServerConcurrent, DeterministicLoadShedAndRecovery) {
  ServerOptions CO;
  CO.Workers = 1;
  CO.QueueDepth = 2;
  AnalysisServer Server(CO);

  const char *Src = "int main(int n) { return n; }";

  // Freeze dispatch so the queue fills deterministically — no racing
  // worker can pop an entry between our submissions.
  Server.pauseDispatchForTest(true);
  std::vector<std::thread> Blocked;
  for (unsigned I = 0; I < CO.QueueDepth; ++I)
    Blocked.emplace_back([&Server, Src, I] {
      std::string Resp = Server.submitAndWait(soakRequestJson(I, Src));
      std::optional<json::Value> R = json::parse(Resp);
      const json::Value *Ok =
          R && R->isObject() ? R->field("ok") : nullptr;
      EXPECT_TRUE(Ok != nullptr && Ok->asBool()) << Resp;
    });
  // Wait until both requests are actually queued (health reports the
  // queue depth; the submitting threads enqueue before blocking).
  for (int Spin = 0; Spin < 2000; ++Spin) {
    std::string H = Server.submitAndWait("{\"id\":0,\"verb\":\"health\"}");
    std::optional<json::Value> R = json::parse(H);
    ASSERT_TRUE(R.has_value()) << H;
    if (static_cast<size_t>(R->field("queued")->asNumber()) ==
        CO.QueueDepth)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The next program request finds the queue full: load-shed, with the
  // exact documented error object — a well-formed response the client
  // can retry on, not a dropped connection.
  EXPECT_EQ(Server.submitAndWait(soakRequestJson(9, Src)),
            "{\"id\":9,\"ok\":false,"
            "\"error\":\"server overloaded: queue full\",\"shed\":true}");
  EXPECT_EQ(Server.shedCount(), 1u);

  // Control verbs are never shed: stats still answers while the queue
  // is full.
  std::optional<json::Value> Stats =
      json::parse(Server.submitAndWait("{\"id\":10,\"verb\":\"stats\"}"));
  ASSERT_TRUE(Stats.has_value());
  EXPECT_TRUE(Stats->field("ok")->asBool());

  // Resume: the backlog drains, the blocked clients get real answers.
  Server.pauseDispatchForTest(false);
  for (std::thread &T : Blocked)
    T.join();
  EXPECT_EQ(Server.stats().Requests, uint64_t(CO.QueueDepth));
  EXPECT_EQ(Server.stats().Errors, 0u);
}

TEST(ServerConcurrent, DrainAndHealthVerbs) {
  ServerOptions CO;
  CO.Workers = 2;
  AnalysisServer Server(CO);

  std::string H = Server.submitAndWait("{\"id\":1,\"verb\":\"health\"}");
  std::optional<json::Value> R = json::parse(H);
  ASSERT_TRUE(R.has_value()) << H;
  EXPECT_TRUE(R->field("ok")->asBool());
  EXPECT_EQ(R->field("health")->asString(), "ok");
  EXPECT_EQ(static_cast<unsigned>(R->field("workers")->asNumber()),
            CO.Workers);

  // Drain with work in flight: returns only once idle, and afterwards
  // health reports an empty server.
  const char *Src =
      "int dec(int k) { if (k <= 0) return 0; else return dec(k - 1); } "
      "int main(int n) { return dec(n); }";
  std::vector<std::thread> Clients;
  for (unsigned I = 0; I < 4; ++I)
    Clients.emplace_back([&Server, Src, I] {
      (void)Server.submitAndWait(soakRequestJson(I, Src));
    });
  std::string D = Server.submitAndWait("{\"id\":2,\"verb\":\"drain\"}");
  EXPECT_EQ(D, "{\"id\":2,\"ok\":true,\"drained\":true}");
  for (std::thread &T : Clients)
    T.join();
  R = json::parse(Server.submitAndWait("{\"id\":3,\"verb\":\"health\"}"));
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->field("inflight")->asNumber(), 0.0);
  EXPECT_EQ(R->field("queued")->asNumber(), 0.0);

  // Post-drain the server accepts work again (drain is a barrier, not
  // a shutdown).
  std::string After = Server.submitAndWait(soakRequestJson(9, Src));
  R = json::parse(After);
  ASSERT_TRUE(R.has_value()) << After;
  EXPECT_TRUE(R->field("ok")->asBool());
}

TEST(ServerConcurrent, SocketTransportMultiClientAndShutdown) {
  std::string Path = ::testing::TempDir() + "tnt_conc_server.sock";
  std::filesystem::remove(Path);

  ServerOptions CO;
  CO.Workers = 4;
  CO.SocketPath = Path;
  AnalysisServer Server(CO);
  std::thread ServerThread([&Server] {
    std::string Err;
    EXPECT_EQ(Server.serveSocket(&Err), 0) << Err;
  });
  for (int Spin = 0; Spin < 2000 && !std::filesystem::exists(Path); ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(std::filesystem::exists(Path)) << "socket never bound";

  // K clients, each writing all its requests up front and then reading
  // the responses — which may arrive OUT OF ORDER; correlate by id.
  constexpr unsigned Clients = 4;
  constexpr unsigned PerClient = 3;
  std::vector<BatchItem> Items = corpusBatchItems(6);
  std::vector<std::string> Sources(Clients * PerClient);
  for (unsigned Idx = 0; Idx < Sources.size(); ++Idx)
    Sources[Idx] = soakVariantSource(Items[Idx % Items.size()].Source, Idx);

  std::atomic<unsigned> Failures{0};
  std::vector<std::map<unsigned, std::string>> ByClient(Clients);
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Clients; ++C)
    Threads.emplace_back([&, C] {
      std::string Err;
      int Fd = unixConnect(Path, &Err);
      if (Fd < 0) {
        ADD_FAILURE() << Err;
        ++Failures;
        return;
      }
      std::string Out;
      for (unsigned R = 0; R < PerClient; ++R) {
        unsigned Idx = C * PerClient + R;
        Out += soakRequestJson(Idx, Sources[Idx]) + "\n";
      }
      if (!writeAll(Fd, Out.data(), Out.size())) {
        ADD_FAILURE() << "short write";
        ++Failures;
        closeFd(Fd);
        return;
      }
      LineReader Reader(Fd);
      std::string Line;
      for (unsigned R = 0; R < PerClient && Reader.readLine(Line); ++R) {
        std::optional<json::Value> V = json::parse(Line);
        if (!V || V->field("id") == nullptr) {
          ADD_FAILURE() << Line;
          ++Failures;
          continue;
        }
        ByClient[C][static_cast<unsigned>(V->field("id")->asNumber())] =
            Line;
      }
      closeFd(Fd);
    });
  for (std::thread &T : Threads)
    T.join();
  ASSERT_EQ(Failures.load(), 0u);

  // One more client shuts the server down and still receives the ack.
  {
    std::string Err;
    int Fd = unixConnect(Path, &Err);
    ASSERT_GE(Fd, 0) << Err;
    std::string Bye = "{\"id\":99,\"verb\":\"shutdown\"}\n";
    ASSERT_TRUE(writeAll(Fd, Bye.data(), Bye.size()));
    LineReader Reader(Fd);
    std::string Ack;
    ASSERT_TRUE(Reader.readLine(Ack));
    std::optional<json::Value> V = json::parse(Ack);
    ASSERT_TRUE(V.has_value()) << Ack;
    EXPECT_TRUE(V->field("ok")->asBool());
    EXPECT_TRUE(V->field("shutdown")->asBool());
    closeFd(Fd);
  }
  ServerThread.join();
  EXPECT_FALSE(std::filesystem::exists(Path))
      << "socket path not unlinked on shutdown";

  // All responses arrived, each byte-identical to a fresh serial run.
  for (unsigned C = 0; C < Clients; ++C) {
    ASSERT_EQ(ByClient[C].size(), size_t(PerClient)) << "client " << C;
    for (const auto &[Idx, Resp] : ByClient[C])
      expectMatchesFresh(Resp, Sources[Idx], CO.Program, Idx);
  }
}

TEST(ServerConcurrent, OverlongSocketLineIsAnError) {
  // A client that never sends a newline must not grow the server's
  // line buffer without bound: past LineReader::MaxLineBytes it gets
  // one error line and loses its connection, while other connections
  // keep being served.
  std::string Path = ::testing::TempDir() + "tnt_overlong.sock";
  std::filesystem::remove(Path);
  ServerOptions SO;
  SO.Workers = 2;
  SO.SocketPath = Path;
  AnalysisServer Server(SO);
  std::thread ServerThread([&Server] {
    std::string Err;
    EXPECT_EQ(Server.serveSocket(&Err), 0) << Err;
  });
  for (int Spin = 0; Spin < 2000 && !std::filesystem::exists(Path); ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(std::filesystem::exists(Path)) << "socket never bound";

  {
    std::string Err;
    int Fd = unixConnect(Path, &Err);
    ASSERT_GE(Fd, 0) << Err;
    std::string Flood(LineReader::MaxLineBytes + 1, 'x');
    // The server may hang up before the last bytes land; a short write
    // is fine, the error line is what matters.
    (void)writeAll(Fd, Flood.data(), Flood.size());
    ::shutdown(Fd, SHUT_WR);
    LineReader Reader(Fd);
    std::string Line;
    ASSERT_TRUE(Reader.readLine(Line));
    EXPECT_EQ(Line, "{\"id\":null,\"ok\":false,"
                    "\"error\":\"request line exceeds 16777216 bytes\"}");
    EXPECT_FALSE(Reader.readLine(Line)) << "connection stayed open: " << Line;
    closeFd(Fd);
  }
  EXPECT_EQ(Server.stats().Errors, 1u);

  {
    std::string Err;
    int Fd = unixConnect(Path, &Err);
    ASSERT_GE(Fd, 0) << Err;
    const char *Src = "int main(int n) { return n; }";
    std::string Req = soakRequestJson(2, Src) + "\n";
    ASSERT_TRUE(writeAll(Fd, Req.data(), Req.size()));
    LineReader Reader(Fd);
    std::string Line;
    ASSERT_TRUE(Reader.readLine(Line));
    expectMatchesFresh(Line, Src, SO.Program, 2);
    closeFd(Fd);
  }

  Server.requestShutdown();
  ServerThread.join();
}
