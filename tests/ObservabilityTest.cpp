//===- tests/ObservabilityTest.cpp - metrics/trace fences ------*- C++ -*-===//
//
// The observability layer's regression fences, in three tiers:
//
//  * Unit: histogram bucket arithmetic (log2 buckets, exact
//    count/sum/min/max), counter exactness under concurrent adds, and
//    the registry snapshot's deterministic order and schema.
//
//  * Trace: spans and scoped tags round-trip through writeJson into
//    Chrome trace-event JSON that json::parse accepts, and a disabled
//    tracer collects nothing.
//
//  * The load-bearing invariant: observability is OUT-OF-BAND. Batch
//    analysis output (rendered outcomes and the category table) is
//    byte-identical with tracing + profiling on or off, at 1/2/4/8
//    threads; and the metrics verb answers the same schema in-process
//    and over the server's serve() stream.
//
//===----------------------------------------------------------------------===//

#include "api/AnalysisServer.h"
#include "api/BatchAnalyzer.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/Trace.h"
#include "workloads/Corpus.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

using namespace tnt;

namespace {

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// RAII: whatever a test does with the tracer, leave it off and empty.
struct TraceQuiesce {
  ~TraceQuiesce() {
    trace::stop();
    trace::clear();
  }
};

/// The batch table minus its wall-clock column: times vary run to run
/// by design (the determinism contract covers outcomes, not timings),
/// so byte comparisons drop each row's final Time(ms) field.
std::string tableWithoutTimes(const std::string &Table) {
  std::istringstream In(Table);
  std::string Out, Line;
  while (std::getline(In, Line)) {
    size_t End = Line.find_last_not_of(" \t");
    size_t Cut = Line.find_last_of(" \t", End);
    std::string Prefix =
        Line.substr(0, Cut == std::string::npos ? End + 1 : Cut);
    // A right-aligned time pads to its own width; drop that too.
    size_t PEnd = Prefix.find_last_not_of(" \t");
    Out += PEnd == std::string::npos ? std::string() : Prefix.substr(0, PEnd + 1);
    Out += '\n';
  }
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Histogram / counter / registry units
//===----------------------------------------------------------------------===//

TEST(MetricsHistogram, BucketArithmetic) {
  using H = metrics::Histogram;
  // Bucket 0 holds exactly the value 0; bucket i >= 1 holds values of
  // bit width i: [2^(i-1), 2^i).
  EXPECT_EQ(H::bucketOf(0), 0u);
  EXPECT_EQ(H::bucketOf(1), 1u);
  EXPECT_EQ(H::bucketOf(2), 2u);
  EXPECT_EQ(H::bucketOf(3), 2u);
  EXPECT_EQ(H::bucketOf(4), 3u);
  EXPECT_EQ(H::bucketOf(7), 3u);
  EXPECT_EQ(H::bucketOf(8), 4u);
  EXPECT_EQ(H::bucketOf(1023), 10u);
  EXPECT_EQ(H::bucketOf(1024), 11u);
  // Clamped to the last bucket.
  EXPECT_EQ(H::bucketOf(UINT64_MAX), H::NumBuckets - 1);
  EXPECT_EQ(H::bucketOf(uint64_t{1} << 60), H::NumBuckets - 1);

  EXPECT_EQ(H::bucketLo(0), 0u);
  EXPECT_EQ(H::bucketLo(1), 1u);
  EXPECT_EQ(H::bucketLo(2), 2u);
  EXPECT_EQ(H::bucketLo(3), 4u);
  EXPECT_EQ(H::bucketLo(10), 512u);
  // Every representable value lands in the bucket whose range covers
  // it (below the clamp).
  for (unsigned I = 1; I + 1 < H::NumBuckets; ++I) {
    EXPECT_EQ(H::bucketOf(H::bucketLo(I)), I);
    EXPECT_EQ(H::bucketOf(H::bucketLo(I + 1) - 1), I);
  }
}

TEST(MetricsHistogram, ExactStatsAndReset) {
  metrics::Histogram H;
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.min(), 0u); // Empty: 0, not the internal sentinel.
  EXPECT_EQ(H.max(), 0u);
  for (uint64_t V : {uint64_t{0}, uint64_t{1}, uint64_t{3}, uint64_t{3},
                     uint64_t{100}})
    H.observe(V);
  EXPECT_EQ(H.count(), 5u);
  EXPECT_EQ(H.sum(), 107u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 100u);
  EXPECT_EQ(H.bucketCount(0), 1u); // 0
  EXPECT_EQ(H.bucketCount(1), 1u); // 1
  EXPECT_EQ(H.bucketCount(2), 2u); // 3, 3
  EXPECT_EQ(H.bucketCount(7), 1u); // 100 in [64, 128)
  H.resetForTest();
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.sum(), 0u);
  EXPECT_EQ(H.min(), 0u);
  EXPECT_EQ(H.max(), 0u);
  EXPECT_EQ(H.bucketCount(2), 0u);
}

TEST(MetricsCounter, ConcurrentAddsAreExact) {
  metrics::Counter &C =
      metrics::Registry::get().counter("obs_test.concurrent");
  C.resetForTest();
  constexpr unsigned Threads = 8;
  constexpr uint64_t PerThread = 20000;
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T < Threads; ++T)
    Ts.emplace_back([&C] {
      for (uint64_t I = 0; I < PerThread; ++I)
        C.add(1);
    });
  for (std::thread &T : Ts)
    T.join();
  EXPECT_EQ(C.value(), Threads * PerThread);
}

TEST(MetricsRegistry, SnapshotIsDeterministicSortedAndSchemaStable) {
  metrics::Registry &R = metrics::Registry::get();
  // Register deliberately out of name order; the snapshot must come
  // out sorted regardless (std::map) and twice-identical.
  R.counter("obs_test.z_counter").resetForTest();
  R.counter("obs_test.z_counter").add(2);
  R.setGauge("obs_test.a_gauge", -3);
  metrics::Histogram &H = R.histogram("obs_test.m_hist");
  H.resetForTest();
  H.observe(5);

  std::string S1 = R.snapshotJson();
  std::string S2 = R.snapshotJson();
  EXPECT_EQ(S1, S2) << "snapshot of unchanged state not byte-stable";

  // Schema pin: valid JSON, three top-level objects, exact histogram
  // field order, and [lo, count] bucket pairs.
  std::string Err;
  std::optional<json::Value> V = json::parse(S1, &Err);
  ASSERT_TRUE(V && V->isObject()) << Err;
  for (const char *Key : {"counters", "gauges", "histograms"}) {
    const json::Value *Sec = V->field(Key);
    ASSERT_TRUE(Sec != nullptr && Sec->isObject()) << Key;
  }
  EXPECT_NE(S1.find("\"obs_test.z_counter\":2"), std::string::npos);
  EXPECT_NE(S1.find("\"obs_test.a_gauge\":-3"), std::string::npos);
  EXPECT_NE(S1.find("\"obs_test.m_hist\":{\"count\":1,\"sum\":5,"
                    "\"min\":5,\"max\":5,\"buckets\":[[4,1]]}"),
            std::string::npos)
      << S1;

  // Name-sorted within a section: a_gauge precedes any later gauge the
  // process registered; cheapest meaningful check is the two obs_test
  // counters vs histograms living in their own sections, plus sorted
  // keys inside "gauges".
  const json::Value *Gauges = V->field("gauges");
  std::string Prev;
  for (const auto &[Name, Val] : Gauges->members()) {
    (void)Val;
    EXPECT_LT(Prev, Name) << "gauges not name-sorted";
    Prev = Name;
  }
}

//===----------------------------------------------------------------------===//
// Trace
//===----------------------------------------------------------------------===//

TEST(Trace, DisabledCollectsNothing) {
  TraceQuiesce Q;
  trace::stop();
  trace::clear();
  {
    trace::Span S("dead", "test");
    S.arg("k", "v");
    trace::ScopedTag T("tag", "val");
    trace::Span S2("dead2", "test");
  }
  EXPECT_FALSE(trace::enabled());
  EXPECT_EQ(trace::eventCount(), 0u);
  EXPECT_EQ(trace::dropCount(), 0u);
}

TEST(Trace, SpansTagsAndChromeJsonRoundTrip) {
  TraceQuiesce Q;
  trace::start();
  ASSERT_TRUE(trace::enabled());
  {
    trace::ScopedTag Tag("program", "prog_a");
    trace::Span Outer("outer", "test");
    Outer.arg("key", "value \"quoted\"");
    { trace::Span Inner("inner", "test"); }
  }
  { trace::Span Untagged("untagged", "test"); }
  trace::stop();
  EXPECT_EQ(trace::eventCount(), 3u);

  std::string Path =
      (std::filesystem::temp_directory_path() / "obs_trace_test.json")
          .string();
  std::string Err;
  ASSERT_TRUE(trace::writeJson(Path, &Err)) << Err;
  std::optional<json::Value> V = json::parse(readFile(Path), &Err);
  ASSERT_TRUE(V && V->isObject()) << Err;
  const json::Value *Events = V->field("traceEvents");
  ASSERT_TRUE(Events != nullptr && Events->isArray());
  ASSERT_EQ(Events->elements().size(), 3u);

  bool SawOuter = false, SawInner = false, SawUntagged = false;
  for (const json::Value &E : Events->elements()) {
    ASSERT_TRUE(E.isObject());
    const json::Value *Name = E.field("name");
    ASSERT_TRUE(Name != nullptr && Name->isString());
    // Complete events with the mandatory Chrome fields.
    EXPECT_EQ(E.field("ph")->asString(), "X");
    EXPECT_TRUE(E.field("ts")->isNumber());
    EXPECT_TRUE(E.field("dur")->isNumber());
    EXPECT_TRUE(E.field("pid")->isNumber());
    EXPECT_TRUE(E.field("tid")->isNumber());
    const json::Value *Args = E.field("args");
    ASSERT_TRUE(Args != nullptr && Args->isObject());
    if (Name->asString() == "outer") {
      SawOuter = true;
      EXPECT_EQ(Args->field("program")->asString(), "prog_a");
      EXPECT_EQ(Args->field("key")->asString(), "value \"quoted\"");
    } else if (Name->asString() == "inner") {
      SawInner = true;
      // The live tag was captured by the nested span too.
      EXPECT_EQ(Args->field("program")->asString(), "prog_a");
    } else if (Name->asString() == "untagged") {
      SawUntagged = true;
      EXPECT_EQ(Args->field("program"), nullptr);
    }
  }
  EXPECT_TRUE(SawOuter && SawInner && SawUntagged);
  std::filesystem::remove(Path);
}

//===----------------------------------------------------------------------===//
// The out-of-band invariant
//===----------------------------------------------------------------------===//

TEST(Observability, BatchBytesIdenticalWithTracingAndProfilingOn) {
  TraceQuiesce Q;
  std::vector<BatchItem> Items = corpusBatchItems(10);

  // Baseline: observability cold, serial.
  BatchOptions Base;
  Base.Threads = 1;
  BatchAnalyzer BaseBA(Base);
  BatchResult Ref = BaseBA.run(Items);
  std::string RefOutcomes = Ref.renderOutcomes();
  std::string RefTable = tableWithoutTimes(Ref.table());
  ASSERT_FALSE(RefOutcomes.empty());

  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    trace::start(); // Hot tracer, profile capture on, any thread count:
    BatchOptions Opt;
    Opt.Threads = Threads;
    Opt.Profile = true;
    BatchAnalyzer BA(Opt);
    BatchResult R = BA.run(Items);
    trace::stop();
    EXPECT_EQ(R.renderOutcomes(), RefOutcomes)
        << "tracing/profiling changed analysis output at " << Threads
        << " threads";
    EXPECT_EQ(tableWithoutTimes(R.table()), RefTable)
        << "tracing/profiling changed the batch table at " << Threads
        << " threads";
    EXPECT_GT(trace::eventCount(), 0u) << "tracer was on but saw nothing";
    // Profile rows cover every group, in deterministic (program,
    // group) order; the rendered table is non-empty and capped.
    size_t Groups = 0;
    for (const BatchProgramResult &P : R.Programs)
      Groups += P.Result.GroupCount;
    EXPECT_EQ(R.Profile.size(), Groups);
    EXPECT_NE(R.profileTable().find("Slowest groups"), std::string::npos);
    trace::clear();
  }

  // Without Profile, no rows are captured and the table renders empty.
  EXPECT_TRUE(Ref.Profile.empty());
  EXPECT_EQ(Ref.profileTable(), "");
}

TEST(Observability, MetricsVerbSameSchemaOnBothFrontEnds) {
  const std::string Prog = corpusBatchItems(1)[0].Source;
  auto checkMetricsResponse = [](const std::string &Response) {
    std::string Err;
    std::optional<json::Value> V = json::parse(Response, &Err);
    ASSERT_TRUE(V && V->isObject()) << Err << " in " << Response;
    ASSERT_TRUE(V->field("ok") != nullptr && V->field("ok")->asBool());
    const json::Value *M = V->field("metrics");
    ASSERT_TRUE(M != nullptr && M->isObject());
    for (const char *Key : {"counters", "gauges", "histograms"}) {
      const json::Value *Sec = M->field(Key);
      ASSERT_TRUE(Sec != nullptr && Sec->isObject()) << Key;
    }
    // The bridged engine gauges and the event-driven request
    // histograms are both present — the one-snapshot promise.
    const json::Value *Gauges = M->field("gauges");
    EXPECT_NE(Gauges->field("server.requests"), nullptr);
    EXPECT_NE(Gauges->field("solver.sat_queries"), nullptr);
    EXPECT_NE(Gauges->field("spec_store.entries"), nullptr);
    EXPECT_NE(Gauges->field("cond_term.emitted"), nullptr);
    const json::Value *Hists = M->field("histograms");
    const json::Value *Exec = Hists->field("server.request.exec_us");
    ASSERT_NE(Exec, nullptr);
    EXPECT_GE(json::toInt64(*Exec->field("count")).value_or(0), 1);
    ASSERT_NE(Hists->field("server.request.queue_us"), nullptr);
    ASSERT_NE(Hists->field("server.request.total_us"), nullptr);
  };

  // One server, driven in-process and then over the serve() stream.
  AnalysisServer Server;
  const std::string ProgLine =
      "{\"id\":1,\"program\":" + json::quoted(Prog) + "}";
  const std::string MetricsLine = "{\"id\":2,\"verb\":\"metrics\"}";
  {
    std::string R1 = Server.submitAndWait(ProgLine);
    ASSERT_NE(R1.find("\"ok\":true"), std::string::npos) << R1;
    checkMetricsResponse(Server.submitAndWait(MetricsLine));
  }
  {
    std::istringstream In(ProgLine + "\n" + MetricsLine + "\n");
    std::ostringstream Out;
    ASSERT_EQ(Server.serve(In, Out), 0);
    std::istringstream Lines(Out.str());
    std::string R1, R2;
    ASSERT_TRUE(std::getline(Lines, R1) && std::getline(Lines, R2))
        << Out.str();
    ASSERT_NE(R1.find("\"ok\":true"), std::string::npos) << R1;
    checkMetricsResponse(R2);
  }
}
