//===- tests/ServerSoakTest.cpp - long-lived server soak --------*- C++ -*-===//
//
// The analysis-server regression fence for the long-lived regime:
//
//  * Soak: >= 1000 requests (corpus programs cycled with
//    fresh-variable-heavy variants) through an in-process server.
//    EVERY response must be byte-identical to a fresh single-program
//    analyzeProgram run of the same source — the tier and the epoch
//    machinery must be unobservable in responses — and the interned
//    node counts plus the arena-bytes RSS proxy must stay bounded
//    across epochs (no monotone growth: reclamation plus tier rotation
//    give a steady state).
//
//  * Protocol: stats/shutdown verbs, path requests, malformed input,
//    blank lines, and the serve() stream loop.
//
// The soak runs the server in-process from one client (submitAndWait)
// so the fresh-run comparisons interleave deterministically with the
// server's epochs; the ctest server-smoke label drives the same
// protocol from eight clients via `hiptnt --serve-smoke`.
//
//===----------------------------------------------------------------------===//

#include "api/AnalysisServer.h"
#include "arith/Intern.h"
#include "arith/Var.h"
#include "support/Json.h"
#include "workloads/Corpus.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

using namespace tnt;

TEST(ServerSoak, ThousandRequestsByteIdenticalAndBounded) {
  ServerOptions SO;
  SO.ReclaimEvery = 50;
  // A tiny tier so capacity rotation — which is what bounds the
  // retained root set on an unbounded stream — actually fires inside
  // the soak horizon. Tinier than it used to be: per-request sessions
  // mint POSITIONAL ids, so the variant requests' structurally
  // distinct spellings alias to identical interned keys and the tier's
  // distinct-entry population is now per-corpus, not per-request.
  SO.GlobalSatCapacity = 1u << 6;
  SO.GlobalDnfCapacity = 1u << 4;
  AnalysisServer Server(SO);

  std::vector<BatchItem> Items = corpusBatchItems(25);
  ASSERT_EQ(Items.size(), 25u);

  constexpr unsigned N = 1000;
  std::vector<size_t> FormulaSamples, ConstraintSamples, ArenaSamples;
  for (unsigned I = 0; I < N; ++I) {
    // Cycled corpus program with a request-unique fresh-variable-heavy
    // helper: every request mints interned terms no other request
    // shares, i.e. the garbage reclamation exists to collect.
    std::string Src = soakVariantSource(Items[I % Items.size()].Source, I);
    std::string Line = Server.submitAndWait(soakRequestJson(I, Src));
    std::optional<json::Value> Resp = json::parse(Line);
    ASSERT_TRUE(Resp && Resp->isObject()) << Line;
    const json::Value *Ok = Resp->field("ok");
    ASSERT_TRUE(Ok != nullptr && Ok->asBool()) << "request " << I << ": "
                                               << Line;
    {
      // Fresh-context reference: same source, same config, no server,
      // no tier. Byte-identity is the whole contract — the response
      // may not depend on how warm the tier is or how many epochs have
      // passed. The server runs each request in a virgin VarPool
      // session, so the reference runs in one too; a bare
      // analyzeProgram would carry pool history across the comparator
      // runs themselves. The reference result is scoped to this
      // iteration so no Formula handle of it survives into a later
      // epoch.
      VarPool::Session Lease;
      VarPool::SessionScope Active(Lease);
      AnalysisResult Fresh = analyzeProgram(Src, SO.Program);
      ASSERT_TRUE(Fresh.Ok) << Fresh.Diagnostics;
      const json::Value *Output = Resp->field("output");
      const json::Value *Verdict = Resp->field("verdict");
      ASSERT_TRUE(Output != nullptr && Verdict != nullptr) << Line;
      ASSERT_EQ(Output->asString(), Fresh.str()) << "request " << I;
      ASSERT_EQ(Verdict->asString(),
                std::string(outcomeStr(Fresh.outcome("main"))))
          << "request " << I;
    }
    if ((I + 1) % SO.ReclaimEvery == 0) {
      // Epoch boundary (the reclaim ran inside submitAndWait above):
      // sample the interned-term counts and the RSS proxy.
      ArithIntern &In = ArithIntern::global();
      FormulaSamples.push_back(In.formulaCount());
      ConstraintSamples.push_back(In.constraintCount());
      ArenaSamples.push_back(In.arenaBytes());
    }
  }

  ServerStats S = Server.stats();
  EXPECT_EQ(S.Requests, N);
  EXPECT_EQ(S.Errors, 0u);
  EXPECT_EQ(S.Reclaims, N / SO.ReclaimEvery);
  EXPECT_GT(S.LastReclaim.dropped(), 0u) << "reclamation did no work";
  EXPECT_GT(S.Global.SatHits, 0u) << "the warm tier never fired";
  EXPECT_GT(S.Global.SatRotations, 0u)
      << "tier never rotated; the bounded-footprint claim is untested";

  // Bounded across epochs: the shared peak-to-peak fence
  // (soakSamplesBounded — same predicate the server-smoke CI gate
  // uses). Warmup — the epochs before the first rotation, during
  // which the retained root set legitimately grows — is excluded;
  // past it, the late peak must stay within 25% of the early peak.
  // Without reclamation every sample would grow by a full epoch's
  // garbage (~20k entries here) and the fence would blow immediately.
  auto bounded = [](const std::vector<size_t> &Samples, const char *What) {
    ASSERT_GE(Samples.size(), SoakMinSamples);
    EXPECT_TRUE(soakSamplesBounded(Samples))
        << What << " kept growing across epochs: "
        << ::testing::PrintToString(Samples);
  };
  bounded(FormulaSamples, "interned formula count");
  bounded(ConstraintSamples, "interned constraint count");
  bounded(ArenaSamples, "arena bytes");
}

TEST(ServerSoak, UniqueIdentifiersLeaveSharedPoolFlat) {
  // The VarPool spelling-growth fence (the second half of the
  // long-lived story): ArithIntern reclamation bounds formula nodes,
  // and per-request SESSIONS bound the pool — every request-minted
  // spelling lives in the request's private session tables and dies
  // with them. A request stream whose programs each use IDENTIFIERS no
  // other request shares therefore leaves the shared pool's size
  // EXACTLY unchanged; before sessions, every request grew it
  // permanently (names are never unmapped from the shared tables), the
  // unbounded growth this test pins the fix for.
  ServerOptions SO;
  SO.ReclaimEvery = 25;
  AnalysisServer Server(SO);

  const size_t PoolBefore = VarPool::get().size();
  constexpr unsigned N = 200;
  std::vector<size_t> Samples;
  for (unsigned I = 0; I < N; ++I) {
    // Request-unique parameter and callee names: a fresh process would
    // intern two new spellings per request.
    std::string V = "v" + std::to_string(I), F = "dec" + std::to_string(I);
    std::string Src = "int " + F + "(int " + V + ") { if (" + V +
                      " <= 0) return 0; else return " + F + "(" + V +
                      " - 1); } int main(int n) { return " + F + "(n); }";
    std::string Line = Server.submitAndWait(soakRequestJson(I, Src));
    std::optional<json::Value> Resp = json::parse(Line);
    ASSERT_TRUE(Resp && Resp->isObject()) << Line;
    ASSERT_TRUE(Resp->field("ok")->asBool()) << Line;
    if ((I + 1) % SO.ReclaimEvery == 0)
      Samples.push_back(VarPool::get().size());
  }
  EXPECT_EQ(VarPool::get().size(), PoolBefore)
      << "request-local spellings leaked into the shared pool";
  for (size_t S : Samples)
    EXPECT_EQ(S, PoolBefore);
  EXPECT_EQ(Server.stats().Errors, 0u);
}

TEST(ServerProtocol, StatsShutdownAndErrors) {
  ServerOptions SO;
  SO.ReclaimEvery = 2;
  AnalysisServer Server(SO);

  // Malformed JSON.
  std::optional<json::Value> R =
      json::parse(Server.submitAndWait("{not json"));
  ASSERT_TRUE(R.has_value());
  EXPECT_FALSE(R->field("ok")->asBool());

  // Not an object.
  R = json::parse(Server.submitAndWait("[1,2]"));
  ASSERT_TRUE(R.has_value());
  EXPECT_FALSE(R->field("ok")->asBool());

  // Missing payload.
  R = json::parse(Server.submitAndWait("{\"id\":7}"));
  ASSERT_TRUE(R.has_value());
  EXPECT_FALSE(R->field("ok")->asBool());
  EXPECT_EQ(R->field("id")->rawNumber(), "7");

  // Blank lines produce no response.
  EXPECT_EQ(Server.submitAndWait(""), "");
  EXPECT_EQ(Server.submitAndWait("   \t"), "");

  // Number lexemes strtod tolerates but JSON forbids ("01", "1.") are
  // rejected at parse time — the raw id lexeme is echoed verbatim into
  // responses, so accepting them would emit invalid response JSON.
  R = json::parse(Server.submitAndWait("{\"id\":01,\"verb\":\"stats\"}"));
  ASSERT_TRUE(R.has_value()); // The response itself is valid JSON...
  EXPECT_FALSE(R->field("ok")->asBool()); // ...and reports the error.
  R = json::parse(Server.submitAndWait("{\"id\":1.,\"verb\":\"stats\"}"));
  ASSERT_TRUE(R.has_value());
  EXPECT_FALSE(R->field("ok")->asBool());

  // A parse-broken program is an error response, not a crash.
  R = json::parse(Server.submitAndWait(
      "{\"id\":8,\"program\":\"int main( {\"}"));
  ASSERT_TRUE(R.has_value());
  EXPECT_FALSE(R->field("ok")->asBool());
  EXPECT_TRUE(R->field("error") != nullptr);

  // A mistyped entry is a type error, not a silent "main".
  R = json::parse(Server.submitAndWait(
      "{\"id\":6,\"program\":\"int main(int n) { return n; }\","
      "\"entry\":5}"));
  ASSERT_TRUE(R.has_value());
  EXPECT_FALSE(R->field("ok")->asBool());
  EXPECT_EQ(R->field("error")->asString(), "\"entry\" must be a string");

  // A mistyped verb is a type error, not "unknown verb ''".
  R = json::parse(Server.submitAndWait("{\"id\":5,\"verb\":123}"));
  ASSERT_TRUE(R.has_value());
  EXPECT_FALSE(R->field("ok")->asBool());
  EXPECT_NE(R->field("error")->asString().find("must be a string"),
            std::string::npos);

  // String ids echo back quoted.
  R = json::parse(Server.submitAndWait("{\"id\":\"q1\",\"verb\":\"stats\"}"));
  ASSERT_TRUE(R.has_value());
  EXPECT_TRUE(R->field("ok")->asBool());
  EXPECT_EQ(R->field("id")->asString(), "q1");
  EXPECT_TRUE(R->field("stats") != nullptr);

  // The store is always on: a repeated program's group replays, and
  // both stats and metrics report the store's size and refusals.
  const std::string Prog =
      soakRequestJson(10, "int main(int n) { return n; }");
  const std::string First = Server.submitAndWait(Prog);
  EXPECT_NE(First.find("\"ok\":true"), std::string::npos) << First;
  EXPECT_EQ(Server.submitAndWait(Prog), First);
  R = json::parse(Server.submitAndWait("{\"id\":11,\"verb\":\"stats\"}"));
  ASSERT_TRUE(R.has_value());
  const json::Value *St = R->field("stats");
  ASSERT_TRUE(St != nullptr);
  auto num = [](const json::Value *Obj, const char *Name) {
    const json::Value *F = Obj->field(Name);
    EXPECT_TRUE(F != nullptr) << Name;
    return F != nullptr ? json::toInt64(*F).value_or(-1) : -1;
  };
  EXPECT_EQ(num(St, "store_misses"), 1);
  EXPECT_EQ(num(St, "store_hits"), 1);
  EXPECT_EQ(num(St, "store_entries"), 1);
  const int64_t Bytes = num(St, "store_bytes");
  EXPECT_GT(Bytes, 0);
  EXPECT_EQ(num(St, "store_refused"), 0);
  R = json::parse(
      Server.submitAndWait("{\"id\":12,\"verb\":\"metrics\"}"));
  ASSERT_TRUE(R.has_value());
  const json::Value *Gauges = R->field("metrics")->field("gauges");
  ASSERT_TRUE(Gauges != nullptr);
  EXPECT_EQ(num(Gauges, "spec_store.entries"), 1);
  EXPECT_EQ(num(Gauges, "spec_store.bytes"), Bytes);
  EXPECT_EQ(num(Gauges, "spec_store.refused"), 0);

  // Shutdown flips the flag and acks.
  R = json::parse(Server.submitAndWait("{\"id\":9,\"verb\":\"shutdown\"}"));
  ASSERT_TRUE(R.has_value());
  EXPECT_TRUE(R->field("ok")->asBool());
  EXPECT_TRUE(Server.shutdownRequested());
}

TEST(ServerProtocol, DeeplyNestedProgramIsAnError) {
  // Two ~40 KB requests that overflowed the stack of a serving
  // process: 20,000 nested parentheses (in the parser) and a
  // 20,000-term sum (in a pass over the left-deep tree the parser
  // built). Each gets an error response, and the stream goes on.
  const size_t N = 20000;
  std::string Parens = "int main(int n) { return " + std::string(N, '(') +
                       "n" + std::string(N, ')') + "; }";
  std::string Sum = "int main(int n) { return n";
  for (size_t I = 1; I < N; ++I)
    Sum += " + n";
  Sum += "; }";
  const std::string Plain = "int main(int n) { return n; }";

  AnalysisServer Server{ServerOptions{}};
  std::istringstream In(soakRequestJson(1, Parens) + "\n" +
                        soakRequestJson(2, Plain) + "\n" +
                        soakRequestJson(3, Sum) + "\n" +
                        soakRequestJson(4, Plain) + "\n");
  std::ostringstream Out;
  EXPECT_EQ(Server.serve(In, Out), 0);

  std::istringstream Responses(Out.str());
  std::string Line;
  for (int Id = 1; Id <= 4; ++Id) {
    ASSERT_TRUE(std::getline(Responses, Line)) << "no response " << Id;
    std::optional<json::Value> R = json::parse(Line);
    ASSERT_TRUE(R.has_value()) << Line;
    EXPECT_EQ(R->field("id")->rawNumber(), std::to_string(Id));
    const bool Nested = Id % 2 == 1;
    EXPECT_EQ(R->field("ok")->asBool(), !Nested) << Line.substr(0, 200);
    if (Nested) {
      EXPECT_NE(R->field("error")->asString().find("nesting exceeds"),
                std::string::npos);
    }
  }
}

TEST(ServerProtocol, ConcurrentReclaimersStandDown) {
  // Reclamation sweeps everything outside the reclaiming server's own
  // tier, so it is only sound for a sole owner: while ANY other
  // GlobalSolverCache is alive — a sibling reclaiming server, a
  // non-reclaiming one, or a bare tier (as a BatchAnalyzer would own)
  // — the server must not reclaim, or it would free interned pointers
  // the other tier still keys on. Once the siblings die, reclamation
  // resumes.
  const char *Src = "int main(int n)\n{\n  return n;\n}\n";
  ServerOptions SO;
  SO.ReclaimEvery = 1; // Reclaim after every request — when allowed.
  AnalysisServer A(SO);
  {
    AnalysisServer B(SO);
    (void)A.submitAndWait(soakRequestJson(1, Src));
    (void)B.submitAndWait(soakRequestJson(1, Src));
    EXPECT_EQ(A.stats().Reclaims, 0u);
    EXPECT_EQ(B.stats().Reclaims, 0u);
  }
  {
    // A NON-reclaiming sibling's tier is just as much a pointer owner.
    ServerOptions NoReclaim;
    NoReclaim.ReclaimEvery = 0;
    AnalysisServer C(NoReclaim);
    (void)A.submitAndWait(soakRequestJson(2, Src));
    EXPECT_EQ(A.stats().Reclaims, 0u);
  }
  {
    // So is a bare tier with no server around it.
    GlobalSolverCache Bare(16, 16);
    (void)A.submitAndWait(soakRequestJson(3, Src));
    EXPECT_EQ(A.stats().Reclaims, 0u);
  }
  (void)A.submitAndWait(soakRequestJson(4, Src));
  EXPECT_EQ(A.stats().Reclaims, 1u);
}

TEST(ServerProtocol, ServeLoopAndPathRequests) {
  // Drive the real serve() stream loop, including a {"path": ...}
  // request against a file on disk.
  std::string Src = "int main(int n)\n{\n  if (n <= 0) return 0;\n"
                    "  else return main(n - 1);\n}\n";
  std::string Path = ::testing::TempDir() + "server_soak_prog.t";
  {
    std::ofstream Out(Path);
    ASSERT_TRUE(Out.good());
    Out << Src;
  }

  ServerOptions SO;
  AnalysisServer Server(SO);
  std::istringstream In(soakRequestJson(1, Src) + "\n" +
                        "{\"id\":2,\"path\":" + json::quoted(Path) + "}\n" +
                        "\n" // blank line: skipped
                        "{\"id\":3,\"verb\":\"shutdown\"}\n" +
                        soakRequestJson(4, Src) + "\n"); // after shutdown
  std::ostringstream Out;
  EXPECT_EQ(Server.serve(In, Out), 0);

  std::vector<json::Value> Lines;
  std::istringstream Responses(Out.str());
  std::string Line;
  while (std::getline(Responses, Line)) {
    std::optional<json::Value> V = json::parse(Line);
    ASSERT_TRUE(V.has_value()) << Line;
    Lines.push_back(std::move(*V));
  }
  // Three responses: program, path-program, shutdown ack. Request 4
  // was never read.
  ASSERT_EQ(Lines.size(), 3u);
  EXPECT_TRUE(Lines[0].field("ok")->asBool());
  EXPECT_TRUE(Lines[1].field("ok")->asBool());
  // Inline and path requests of the same source produce identical
  // analysis output.
  EXPECT_EQ(Lines[0].field("output")->asString(),
            Lines[1].field("output")->asString());
  EXPECT_EQ(Lines[0].field("verdict")->asString(), "Y");
  EXPECT_TRUE(Lines[2].field("shutdown")->asBool());

  // Path requests can be disabled.
  ServerOptions NoPaths;
  NoPaths.AllowPaths = false;
  AnalysisServer Locked(NoPaths);
  std::optional<json::Value> R = json::parse(
      Locked.submitAndWait("{\"id\":1,\"path\":" + json::quoted(Path) + "}"));
  ASSERT_TRUE(R.has_value());
  EXPECT_FALSE(R->field("ok")->asBool());

  // serve() on a 4-worker server still answers in request order: it
  // submits one line and waits for it. Program bodies, batch entries
  // included, equal fresh session runs (tier-less runProgramRequest).
  ServerOptions Four;
  Four.Workers = 4;
  AnalysisServer Pooled(Four);
  std::vector<BatchItem> Items = corpusBatchItems(4);
  auto body = [&](const std::string &Source) {
    return runProgramRequest(Source, "main", Four.Program, nullptr).Body;
  };
  std::istringstream Mixed(
      soakRequestJson(1, Items[0].Source) + "\n" +
      "{\"id\":2,\"verb\":\"stats\"}\n" +
      "{\"id\":3,\"verb\":\"analyze-batch\",\"programs\":["
      "{\"program\":" + json::quoted(Items[1].Source) + "},"
      "{\"program\":" + json::quoted(Items[2].Source) + "}]}\n" +
      "{\"id\":4,\"verb\":\"health\"}\n" +
      soakRequestJson(5, Items[3].Source) + "\n" +
      "{\"id\":6,\"verb\":\"stats\"}\n");
  std::ostringstream MixedOut;
  EXPECT_EQ(Pooled.serve(Mixed, MixedOut), 0);
  std::vector<std::string> Got;
  std::istringstream MixedLines(MixedOut.str());
  while (std::getline(MixedLines, Line))
    Got.push_back(Line);
  ASSERT_EQ(Got.size(), 6u) << MixedOut.str();
  for (size_t I = 0; I < Got.size(); ++I) {
    std::optional<json::Value> V = json::parse(Got[I]);
    ASSERT_TRUE(V.has_value()) << Got[I];
    EXPECT_EQ(V->field("id")->rawNumber(), std::to_string(I + 1)) << Got[I];
    EXPECT_TRUE(V->field("ok")->asBool()) << Got[I];
  }
  EXPECT_EQ(Got[0], "{\"id\":1," + body(Items[0].Source) + "}");
  EXPECT_EQ(Got[2], "{\"id\":3,\"ok\":true,\"results\":[{" +
                        body(Items[1].Source) + "},{" +
                        body(Items[2].Source) + "}]}");
  EXPECT_EQ(Got[4], "{\"id\":5," + body(Items[3].Source) + "}");
  EXPECT_NE(Got[1].find("\"stats\""), std::string::npos);
  EXPECT_NE(Got[3].find("\"health\":\"ok\""), std::string::npos);
  EXPECT_NE(Got[5].find("\"requests\":4"), std::string::npos) << Got[5];
}

//===----------------------------------------------------------------------===//
// The analyze-batch verb: an array of program requests answered in
// request order within one response line, each entry byte-identical to
// the corresponding single-program response body.
//===----------------------------------------------------------------------===//

TEST(ServerProtocol, AnalyzeBatchVerb) {
  const char *TermSrc =
      "int dec(int k) { if (k <= 0) return 0; else return dec(k - 1); } "
      "int main(int n) { return dec(n); }";
  const char *LoopSrc =
      "int spin(int b) { if (b < 0) return 0; else return spin(b + 1); } "
      "int main(int n) { return spin(1); }";

  AnalysisServer Server{ServerOptions{}};
  // Reference single-program responses FIRST (ids differ; bodies are
  // what must agree).
  std::optional<json::Value> Term = json::parse(Server.submitAndWait(
      "{\"id\":100,\"program\":" + json::quoted(TermSrc) + "}"));
  std::optional<json::Value> Loop = json::parse(Server.submitAndWait(
      "{\"id\":101,\"program\":" + json::quoted(LoopSrc) + "}"));
  ASSERT_TRUE(Term && Loop);

  std::string Batch =
      "{\"id\":7,\"verb\":\"analyze-batch\",\"programs\":["
      "{\"program\":" + json::quoted(LoopSrc) + "},"
      "{\"program\":\"int main( {\"},"
      "{\"program\":" + json::quoted(TermSrc) + ",\"entry\":\"dec\"},"
      "{\"program\":" + json::quoted(TermSrc) + "}]}";
  std::optional<json::Value> R = json::parse(Server.submitAndWait(Batch));
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->field("id")->rawNumber(), "7");
  EXPECT_TRUE(R->field("ok")->asBool());
  const json::Value *Results = R->field("results");
  ASSERT_TRUE(Results != nullptr && Results->isArray());
  ASSERT_EQ(Results->elements().size(), 4u);

  // Answered in request order: loop, error, term-with-entry, term.
  const json::Value &R0 = Results->elements()[0];
  EXPECT_TRUE(R0.field("ok")->asBool());
  EXPECT_EQ(R0.field("verdict")->asString(), "N");
  EXPECT_EQ(R0.field("output")->asString(),
            Loop->field("output")->asString());

  const json::Value &R1 = Results->elements()[1];
  EXPECT_FALSE(R1.field("ok")->asBool());
  EXPECT_TRUE(R1.field("error") != nullptr);

  const json::Value &R2 = Results->elements()[2];
  EXPECT_TRUE(R2.field("ok")->asBool());
  EXPECT_EQ(R2.field("entry")->asString(), "dec");
  EXPECT_EQ(R2.field("verdict")->asString(), "Y");

  const json::Value &R3 = Results->elements()[3];
  EXPECT_TRUE(R3.field("ok")->asBool());
  EXPECT_EQ(R3.field("entry")->asString(), "main");
  EXPECT_EQ(R3.field("verdict")->asString(), "Y");
  EXPECT_EQ(R3.field("output")->asString(),
            Term->field("output")->asString());

  // Each batch element counts as a program request (reclaim cadence
  // and stats treat them exactly like standalone requests).
  EXPECT_EQ(Server.stats().Requests, 2u + 4u); // 2 singles + 4 batch
                                               // elements (the parse
                                               // failure counts too).

  // Protocol errors: missing / mistyped programs array.
  R = json::parse(
      Server.submitAndWait("{\"id\":8,\"verb\":\"analyze-batch\"}"));
  ASSERT_TRUE(R.has_value());
  EXPECT_FALSE(R->field("ok")->asBool());
  R = json::parse(Server.submitAndWait(
      "{\"id\":9,\"verb\":\"analyze-batch\",\"programs\":3}"));
  ASSERT_TRUE(R.has_value());
  EXPECT_FALSE(R->field("ok")->asBool());

  // An empty batch is a valid request with an empty results array.
  R = json::parse(Server.submitAndWait(
      "{\"id\":10,\"verb\":\"analyze-batch\",\"programs\":[]}"));
  ASSERT_TRUE(R.has_value());
  EXPECT_TRUE(R->field("ok")->asBool());
  EXPECT_TRUE(R->field("results")->isArray());
  EXPECT_EQ(R->field("results")->elements().size(), 0u);

  // Batch elements that are not objects error in place, preserving
  // positions.
  R = json::parse(Server.submitAndWait(
      "{\"id\":11,\"verb\":\"analyze-batch\",\"programs\":[42,"
      "{\"program\":" + json::quoted(TermSrc) + "}]}"));
  ASSERT_TRUE(R.has_value());
  ASSERT_EQ(R->field("results")->elements().size(), 2u);
  EXPECT_FALSE(R->field("results")->elements()[0].field("ok")->asBool());
  EXPECT_TRUE(R->field("results")->elements()[1].field("ok")->asBool());

  // So does an element with a non-string entry.
  R = json::parse(Server.submitAndWait(
      "{\"id\":12,\"verb\":\"analyze-batch\",\"programs\":["
      "{\"program\":" + json::quoted(TermSrc) + "},"
      "{\"program\":" + json::quoted(TermSrc) + ",\"entry\":5},"
      "{\"program\":" + json::quoted(LoopSrc) + "}]}"));
  ASSERT_TRUE(R.has_value());
  ASSERT_EQ(R->field("results")->elements().size(), 3u);
  const json::Value &E1 = R->field("results")->elements()[1];
  EXPECT_FALSE(E1.field("ok")->asBool());
  EXPECT_EQ(E1.field("error")->asString(), "\"entry\" must be a string");
  EXPECT_EQ(R->field("results")->elements()[0].field("verdict")->asString(),
            "Y");
  EXPECT_EQ(R->field("results")->elements()[2].field("verdict")->asString(),
            "N");
}
