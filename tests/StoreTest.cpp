//===- tests/StoreTest.cpp - persistent spec store tests --------*- C++ -*-===//
//
// The spec store subsystem: canonical content hashing (rename
// invariance, edit sensitivity, transitive-caller invalidation),
// VarId-free serialization round trips, the SpecStore file format
// (fingerprint guard, sat snapshot, outcomes digest, atomic save), the
// pipeline round-trip property (analyze -> save -> reload -> re-analyze
// is byte-identical with zero inference re-runs), the incremental
// re-analysis contract (editing one function re-runs only its group
// and transitive callers — pinned by the store's miss counter), the
// GlobalSolverCache sat snapshot, server store persistence, and the
// cooperative budget cancellation token.
//
//===----------------------------------------------------------------------===//

#include "api/AnalysisServer.h"
#include "api/BatchAnalyzer.h"
#include "lang/Parser.h"
#include "lang/Resolve.h"
#include "lang/Transforms.h"
#include "solver/Cancellation.h"
#include "solver/GlobalCache.h"
#include "store/ContentHash.h"
#include "store/SpecSerial.h"
#include "store/SpecStore.h"
#include "support/Json.h"
#include "workloads/Corpus.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <unistd.h>

using namespace tnt;

namespace {

std::string tempPath(const std::string &Name) {
  return testing::TempDir() + "tnt_store_" + Name + "_" +
         std::to_string(::getpid()) + ".json";
}

struct TempFile {
  std::string Path;
  explicit TempFile(const std::string &Name) : Path(tempPath(Name)) {
    std::remove(Path.c_str());
  }
  ~TempFile() { std::remove(Path.c_str()); }
};

/// Group keys of a source program under the single-program block
/// schedule, mirroring prepare + prescan.
std::vector<std::string> keysOf(const std::string &Source) {
  DiagnosticEngine Diags;
  std::optional<Program> P = parseProgram(Source, Diags);
  if (!P || !resolveProgram(*P, Diags) || !lowerLoops(*P, Diags))
    return {};
  CallGraph CG = CallGraph::build(*P);
  std::vector<std::vector<std::string>> Groups = CG.sccs();
  std::vector<std::set<size_t>> Deps(Groups.size());
  std::vector<uint32_t> Blocks(Groups.size());
  for (size_t G = 0; G < Groups.size(); ++G)
    Blocks[G] = static_cast<uint32_t>(G) + 1;
  return computeGroupKeys(*P, CG, Groups, Deps, Blocks, 0);
}

const char *ChainSrc = R"(
int base(int n)
{
  if (n <= 0) return 0;
  else return base(n - 1);
}
int mid(int n)
{
  return base(n + 1);
}
int main(int n)
{
  return mid(n);
}
)";

BatchItem item(const char *Name, std::string Src) {
  BatchItem It;
  It.Name = Name;
  It.Category = "t";
  It.Source = std::move(Src);
  return It;
}

size_t totalGroups(const BatchResult &R) {
  size_t N = 0;
  for (const BatchProgramResult &P : R.Programs)
    N += P.Result.GroupCount;
  return N;
}

/// About \p Count programs spread evenly over the whole corpus, so every
/// category is represented.
std::vector<BatchItem> corpusSlice(size_t Count) {
  const std::vector<BenchProgram> &All = corpus();
  size_t Step = std::max<size_t>(All.size() / Count, 1);
  std::vector<BatchItem> Items;
  for (size_t I = 0; I < All.size(); I += Step)
    Items.push_back({All[I].Name, All[I].Category, All[I].Source, All[I].Entry});
  return Items;
}

} // namespace

//===----------------------------------------------------------------------===//
// Content hashing
//===----------------------------------------------------------------------===//

TEST(ContentHash, AlphaRenamingKeepsKeys) {
  // Params, locals and method names renamed consistently (alphabetical
  // SCC order preserved): structurally the same program.
  std::vector<std::string> A = keysOf(R"(
int f(int n)
{
  int acc;
  acc = n + 1;
  if (acc <= 0) return 0;
  else return f(acc - 2);
}
int main(int k) { return f(k); }
)");
  std::vector<std::string> B = keysOf(R"(
int g(int m)
{
  int tmp;
  tmp = m + 1;
  if (tmp <= 0) return 0;
  else return g(tmp - 2);
}
int main(int z) { return g(z); }
)");
  ASSERT_EQ(A.size(), 2u);
  EXPECT_EQ(A, B);
}

TEST(ContentHash, BodyEditChangesKeyAndInvalidatesCallers) {
  std::vector<std::string> A = keysOf(ChainSrc);
  // Edit the bottom method only.
  std::string Edited = ChainSrc;
  size_t Pos = Edited.find("n - 1");
  ASSERT_NE(Pos, std::string::npos);
  Edited.replace(Pos, 5, "n - 2");
  std::vector<std::string> B = keysOf(Edited);
  ASSERT_EQ(A.size(), 3u);
  ASSERT_EQ(B.size(), 3u);
  // Groups are bottom-up: base, mid, main. All three keys change —
  // base because its body changed, mid and main because their keys
  // embed their callee's key (the invalidation rule).
  for (size_t G = 0; G < 3; ++G)
    EXPECT_NE(A[G], B[G]) << "group " << G;
}

TEST(ContentHash, AssumeFormulasResolveLocalsPositionally) {
  // Locals inside assume() formulas must hash by declaration position
  // like every other body reference. These two programs differ only in
  // WHICH local the assume constrains relative to the declaration /
  // use positions — spelling-hashing the formula would give them one
  // key and let the second wrongly replay the first's summary.
  std::vector<std::string> P1 = keysOf(R"(
int f(int p)
{
  int a;
  int b;
  a = p;
  assume(a > 0);
  return a;
}
int main(int n) { return f(n); }
)");
  std::vector<std::string> P2 = keysOf(R"(
int f(int p)
{
  int b;
  int a;
  b = p;
  assume(a > 0);
  return b;
}
int main(int n) { return f(n); }
)");
  ASSERT_EQ(P1.size(), 2u);
  ASSERT_EQ(P2.size(), 2u);
  EXPECT_NE(P1[0], P2[0]);
  // Consistent alpha-renaming of the locals still keys together.
  std::vector<std::string> P1R = keysOf(R"(
int f(int p)
{
  int u;
  int v;
  u = p;
  assume(u > 0);
  return u;
}
int main(int n) { return f(n); }
)");
  EXPECT_EQ(P1, P1R);
}

TEST(ContentHash, ConstantAndCalleeIdentityMatter) {
  std::vector<std::string> Base = keysOf("int main(int n) { return n + 1; }");
  std::vector<std::string> Konst =
      keysOf("int main(int n) { return n + 2; }");
  EXPECT_NE(Base.back(), Konst.back());

  // Same body text for main, but the callee it names resolves to a
  // different method: the call-site identity is the callee's key, not
  // its spelling.
  std::vector<std::string> C1 = keysOf(R"(
int h(int n) { if (n <= 0) return 0; else return h(n - 1); }
int main(int n) { return h(n); }
)");
  std::vector<std::string> C2 = keysOf(R"(
int h(int n) { if (n <= 0) return 0; else return h(n - 3); }
int main(int n) { return h(n); }
)");
  EXPECT_NE(C1.back(), C2.back());
}

TEST(ContentHash, BlockScheduleIsPartOfTheKey) {
  // Identical content under different block schedules must key apart:
  // formula child canonicalization is VarId-hash-based, so inference
  // may legitimately differ between numberings (see ContentHash.h).
  DiagnosticEngine Diags;
  std::optional<Program> P =
      parseProgram("int main(int n) { return n; }", Diags);
  ASSERT_TRUE(P && resolveProgram(*P, Diags) && lowerLoops(*P, Diags));
  CallGraph CG = CallGraph::build(*P);
  auto Groups = CG.sccs();
  std::vector<std::set<size_t>> Deps(Groups.size());
  std::vector<uint32_t> B1(Groups.size(), 1), B2(Groups.size(), 7);
  EXPECT_NE(computeGroupKeys(*P, CG, Groups, Deps, B1, 0),
            computeGroupKeys(*P, CG, Groups, Deps, B2, 0));
  EXPECT_EQ(computeGroupKeys(*P, CG, Groups, Deps, B1, 0),
            computeGroupKeys(*P, CG, Groups, Deps, B1, 0));
}

//===----------------------------------------------------------------------===//
// Serialization round trips
//===----------------------------------------------------------------------===//

namespace {

/// A scenario slot over two parameters plus the block map of a
/// one-group program on block 5 (token "k#0").
struct SerialFixture {
  ScenarioSlot Slot;
  BlockTokenMap Blocks;
  SerialFixture() {
    Slot.MethodIdx = 0;
    Slot.SpecIdx = 0;
    Slot.Params = {mkVar("sx"), mkVar("sy")};
    Slot.NumMethodParams = 2;
    Blocks.TokenOf[5] = "k#0";
    Blocks.BlockOf["k#0"] = 5;
  }
};

} // namespace

TEST(SpecSerial, TreeRoundTripPreservesRendering) {
  SerialFixture F;
  VarId X = F.Slot.Params[0], Y = F.Slot.Params[1];

  // A nested tree exercising: conjunction guards, negation, Ne atoms,
  // existential binders (fresh-style and named), int64-extreme
  // coefficients, primed params, lexicographic measures.
  VarId W;
  {
    VarPool::Scope Sc(5);
    W = VarPool::get().fresh("w"); // "w!b5!0"
  }
  VarId G = mkVar("ghost0");
  Formula Guard1 = Formula::conj2(
      Formula::cmp(LinExpr::var(X, 3) - LinExpr::var(Y, 5) + 1, CmpKind::Le,
                   LinExpr(0)),
      Formula::exists({W}, Formula::cmp(LinExpr::var(W) + LinExpr::var(X),
                                        CmpKind::Eq, LinExpr::var(Y))));
  Formula Guard2 = Formula::neg(Formula::cmp(
      LinExpr::var(G, INT64_C(4611686018427387904)), CmpKind::Ne,
      LinExpr(INT64_C(-9223372036854775807))));
  Formula Guard3 =
      Formula::cmp(LinExpr::var(mkVar("sx'")), CmpKind::Ge, LinExpr(2));

  CaseTree Leaf1;
  Leaf1.Temporal =
      TemporalSpec::term({LinExpr::var(X) - LinExpr::var(Y), LinExpr::var(X)});
  CaseTree Leaf2;
  Leaf2.Temporal = TemporalSpec::loop();
  Leaf2.PostReachable = false;
  CaseTree Inner;
  Inner.Children.emplace_back(Guard2, Leaf2);
  CaseTree Leaf3;
  Leaf3.Temporal = TemporalSpec::mayLoop();
  Inner.Children.emplace_back(Guard3, Leaf3);
  CaseTree Root;
  Root.Children.emplace_back(Guard1, Leaf1);
  Root.Children.emplace_back(Formula::neg(Guard1), Inner);

  ScenarioRecord R;
  R.Slot = F.Slot;
  R.SafetyFailed = false;
  R.ReVerified = true;
  R.Cases = &Root;
  std::optional<std::string> Entry =
      serializeGroupEntry({R}, "some diags\n", true, F.Blocks);
  ASSERT_TRUE(Entry.has_value());

  RehydratedGroup RG;
  std::string Err;
  ASSERT_TRUE(rehydrateGroupEntry(*Entry, {F.Slot}, F.Blocks, RG, &Err))
      << Err;
  ASSERT_EQ(RG.Scenarios.size(), 1u);
  EXPECT_TRUE(RG.Bailed);
  EXPECT_EQ(RG.Diags, "some diags\n");
  EXPECT_TRUE(RG.Scenarios[0].ReVerified);
  // Rendering is the byte-identity currency: trees, guards, measures
  // and binder spellings all reproduce.
  EXPECT_EQ(RG.Scenarios[0].Cases.str(1), Root.str(1));

  // Serializing the rehydrated tree again is a fixpoint.
  ScenarioRecord R2 = R;
  R2.Cases = &RG.Scenarios[0].Cases;
  std::optional<std::string> Entry2 =
      serializeGroupEntry({R2}, "some diags\n", true, F.Blocks);
  ASSERT_TRUE(Entry2.has_value());
  EXPECT_EQ(*Entry, *Entry2);
}

TEST(SpecSerial, FreshVariablesRespellToConsumerBlocks) {
  SerialFixture F;
  VarId W;
  {
    VarPool::Scope Sc(5);
    W = VarPool::get().fresh("fv"); // "fv!b5!<n>"
  }
  CaseTree Root;
  CaseTree Leaf;
  Leaf.Temporal = TemporalSpec::mayLoop();
  Root.Children.emplace_back(
      Formula::cmp(LinExpr::var(W), CmpKind::Ge, LinExpr(0)), Leaf);

  ScenarioRecord R;
  R.Slot = F.Slot;
  R.Cases = &Root;
  std::optional<std::string> Entry =
      serializeGroupEntry({R}, "", false, F.Blocks);
  ASSERT_TRUE(Entry.has_value());
  // The producer's block number must not appear in the entry.
  EXPECT_EQ(Entry->find("b5"), std::string::npos);

  // A consumer whose group for token "k#0" runs on block 9 rehydrates
  // the SAME variable respelled into ITS block.
  BlockTokenMap Consumer;
  Consumer.TokenOf[9] = "k#0";
  Consumer.BlockOf["k#0"] = 9;
  RehydratedGroup RG;
  std::string Err;
  ASSERT_TRUE(rehydrateGroupEntry(*Entry, {F.Slot}, Consumer, RG, &Err))
      << Err;
  EXPECT_NE(RG.Scenarios[0].Cases.str(1).find("!b9!"), std::string::npos);

  // Prescan resolves the same spellings the rehydration will intern.
  std::vector<std::string> Fresh;
  collectFreshSpellings(*Entry, Consumer, Fresh);
  ASSERT_EQ(Fresh.size(), 1u);
  EXPECT_EQ(Fresh[0].find("fv!b9!"), 0u);
}

TEST(SpecSerial, FreshReferencesAreSpelledLiterally) {
  // collectFreshSpellings skips the parse of an entry without the
  // literal ["f", — sound because the serializer spells every fresh
  // reference so and SpecStore::load re-writes entries compactly.
  VarPool::Session S;
  VarPool::SessionScope Active(S);
  SerialFixture F;
  BlockTokenMap Consumer;
  Consumer.TokenOf[9] = "k#0";
  Consumer.BlockOf["k#0"] = 9;
  auto collect = [&](const std::string &Entry) {
    std::vector<std::string> Fresh;
    collectFreshSpellings(Entry, Consumer, Fresh);
    return Fresh;
  };
  const std::vector<std::string> Want = {"w!b9!3"};

  // A guard naming block 5's "w!b5!3", plus diagnostics quoting the
  // literal of another fresh reference.
  CaseTree Leaf;
  Leaf.Temporal = TemporalSpec::mayLoop();
  CaseTree Tree;
  Tree.Children.emplace_back(
      Formula::cmp(LinExpr::var(mkVar("w!b5!3")), CmpKind::Ge, LinExpr(0)),
      Leaf);
  ScenarioRecord R;
  R.Slot = F.Slot;
  R.Cases = &Tree;
  const std::string Diags = "see [\"f\",0,7,\"v\"]\n";
  std::optional<std::string> Entry =
      serializeGroupEntry({R}, Diags, false, F.Blocks);
  ASSERT_TRUE(Entry.has_value());
  const std::string Literal = "[\"f\",0,3,\"w\"]";
  ASSERT_NE(Entry->find(Literal), std::string::npos) << *Entry;
  // The serializer's bytes are already what load re-writes them to,
  // and the quoted diagnostics add no spelling.
  std::optional<json::Value> Doc = json::parse(*Entry);
  ASSERT_TRUE(Doc.has_value());
  EXPECT_EQ(json::write(*Doc), *Entry);
  EXPECT_EQ(collect(*Entry), Want);

  // A store file that spells the reference with blanks collects the
  // same spelling once loaded.
  std::string Spaced = *Entry;
  Spaced.replace(Spaced.find(Literal), Literal.size(),
                 "[ \"f\" , 0, 3, \"w\" ]");
  TempFile File("spaced");
  {
    std::ofstream Out(File.Path);
    Out << "{\"version\":1,\"fingerprint\":\"fp\",\"groups\":{\"k\":" << Spaced
        << "}}\n";
  }
  SpecStore Store("fp");
  std::string Err;
  ASSERT_TRUE(Store.load(File.Path, &Err)) << Err;
  ASSERT_NE(Store.peek("k"), nullptr);
  EXPECT_EQ(*Store.peek("k"), *Entry);
  EXPECT_EQ(collect(*Store.peek("k")), Want);

  // Diagnostics quoting the literal, in an entry that names no fresh
  // variable, collect nothing.
  CaseTree Plain;
  Plain.Temporal = TemporalSpec::mayLoop();
  R.Cases = &Plain;
  std::optional<std::string> NoFresh =
      serializeGroupEntry({R}, Diags, false, F.Blocks);
  ASSERT_TRUE(NoFresh.has_value());
  EXPECT_TRUE(collect(*NoFresh).empty());
}

TEST(SpecSerial, RootBlockVariablesAreNotSerializable) {
  SerialFixture F;
  VarId RootVar;
  {
    VarPool::Scope Sc(0); // The root block has no token.
    RootVar = VarPool::get().fresh("rv");
  }
  CaseTree Root;
  CaseTree Leaf;
  Leaf.Temporal = TemporalSpec::mayLoop();
  Root.Children.emplace_back(
      Formula::cmp(LinExpr::var(RootVar), CmpKind::Ge, LinExpr(0)), Leaf);
  ScenarioRecord R;
  R.Slot = F.Slot;
  R.Cases = &Root;
  EXPECT_FALSE(serializeGroupEntry({R}, "", false, F.Blocks).has_value());
}

TEST(SpecSerial, RejectsMismatchesAndCorruption) {
  SerialFixture F;
  CaseTree Root; // Leaf MayLoop.
  Root.Temporal = TemporalSpec::mayLoop();
  ScenarioRecord R;
  R.Slot = F.Slot;
  R.Cases = &Root;
  std::optional<std::string> Entry =
      serializeGroupEntry({R}, "", false, F.Blocks);
  ASSERT_TRUE(Entry.has_value());

  RehydratedGroup RG;
  // Slot mismatch: different spec index.
  ScenarioSlot Wrong = F.Slot;
  Wrong.SpecIdx = 3;
  EXPECT_FALSE(rehydrateGroupEntry(*Entry, {Wrong}, F.Blocks, RG));
  // Count mismatch.
  EXPECT_FALSE(
      rehydrateGroupEntry(*Entry, {F.Slot, F.Slot}, F.Blocks, RG));
  // Corrupt JSON.
  EXPECT_FALSE(rehydrateGroupEntry("{not json", {F.Slot}, F.Blocks, RG));
  // Unresolvable block token: build an entry whose table names a token
  // the consumer lacks.
  VarId W;
  {
    VarPool::Scope Sc(5);
    W = VarPool::get().fresh("zz");
  }
  CaseTree Root2;
  CaseTree Leaf2;
  Leaf2.Temporal = TemporalSpec::mayLoop();
  Root2.Children.emplace_back(
      Formula::cmp(LinExpr::var(W), CmpKind::Ge, LinExpr(0)), Leaf2);
  ScenarioRecord R2;
  R2.Slot = F.Slot;
  R2.Cases = &Root2;
  std::optional<std::string> E2 =
      serializeGroupEntry({R2}, "", false, F.Blocks);
  ASSERT_TRUE(E2.has_value());
  BlockTokenMap Empty;
  EXPECT_FALSE(rehydrateGroupEntry(*E2, {F.Slot}, Empty, RG));
}

//===----------------------------------------------------------------------===//
// SpecStore file format
//===----------------------------------------------------------------------===//

TEST(SpecStore, SaveLoadRoundTripAndFingerprint) {
  TempFile File("fmt");
  {
    SpecStore S("fp-A");
    S.insert("key1", "{\"v\":1,\"sc\":[]}");
    S.insert("key2", "{\"v\":1,\"sc\":[],\"b\":true}");
    S.insert("key1", "{\"ignored\":true}"); // First writer wins.
    S.setSatSnapshot({{"l-1;x*1", Tri::True}, {"e0;y*2", Tri::False}});
    S.setOutcomesDigest(7, 0xdeadbeefcafe1234ull);
    std::string Err;
    ASSERT_TRUE(S.save(File.Path, &Err)) << Err;
    EXPECT_EQ(S.stats().Inserts, 2u);
  }
  {
    SpecStore S("fp-A");
    std::string Err;
    ASSERT_TRUE(S.load(File.Path, &Err)) << Err;
    EXPECT_EQ(S.stats().LoadedGroups, 2u);
    EXPECT_FALSE(S.stats().LoadDiscarded);
    ASSERT_NE(S.peek("key1"), nullptr);
    // The entry body round-trips byte-exactly (raw number lexemes).
    EXPECT_EQ(*S.peek("key1"), "{\"v\":1,\"sc\":[]}");
    auto Snap = S.satSnapshot();
    ASSERT_EQ(Snap.size(), 2u);
    EXPECT_EQ(Snap[0].first, "l-1;x*1");
    EXPECT_EQ(Snap[0].second, Tri::True);
    uint64_t Count = 0, Hash = 0;
    ASSERT_TRUE(S.outcomesDigest(Count, Hash));
    EXPECT_EQ(Count, 7u);
    EXPECT_EQ(Hash, 0xdeadbeefcafe1234ull);
  }
  {
    // Different config fingerprint: the file is discarded, not served.
    SpecStore S("fp-B");
    std::string Err;
    ASSERT_TRUE(S.load(File.Path, &Err)) << Err;
    EXPECT_TRUE(S.stats().LoadDiscarded);
    EXPECT_EQ(S.size(), 0u);
  }
}

TEST(SpecStore, MissingFileIsColdStartAndGarbageIsAnError) {
  SpecStore S("fp");
  std::string Err;
  EXPECT_TRUE(S.load(tempPath("does_not_exist"), &Err));
  EXPECT_EQ(S.size(), 0u);

  TempFile Bad("bad");
  {
    std::ofstream Out(Bad.Path);
    Out << "this is not json";
  }
  EXPECT_FALSE(S.load(Bad.Path, &Err));
  EXPECT_NE(Err.find(Bad.Path), std::string::npos);
}

TEST(SpecStore, InsertsStopAtByteCap) {
  const std::string MiB(size_t(1) << 20, 'x');
  SpecStore S("fp");
  std::vector<std::pair<std::string, const std::string *>> Held;
  for (size_t I = 0;; ++I) {
    std::string Key = "k" + std::to_string(I);
    if (S.stats().Bytes + Key.size() + MiB.size() > SpecStore::MaxBytes)
      break;
    S.insert(Key, MiB);
    Held.emplace_back(Key, S.peek(Key));
    ASSERT_NE(Held.back().second, nullptr);
  }
  ASSERT_GE(Held.size(), 2u);
  const SpecStoreStats Full = S.stats();
  EXPECT_EQ(Full.Entries, Held.size());
  EXPECT_LE(Full.Bytes, SpecStore::MaxBytes);
  EXPECT_EQ(Full.Refused, 0u);

  // The next insert would cross the cap: refused and counted, and the
  // entries already held stay where they were.
  S.insert("one-more", MiB);
  EXPECT_EQ(S.peek("one-more"), nullptr);
  EXPECT_EQ(S.stats().Refused, 1u);
  EXPECT_EQ(S.stats().Bytes, Full.Bytes);
  EXPECT_EQ(S.stats().Inserts, Held.size());
  for (const auto &[Key, Ptr] : Held) {
    EXPECT_EQ(S.peek(Key), Ptr);
    EXPECT_EQ(*Ptr, MiB);
  }
  // A small entry still fits, and a duplicate key is no refusal.
  S.insert("small", "{}");
  EXPECT_NE(S.peek("small"), nullptr);
  S.insert(Held.front().first, MiB);
  EXPECT_EQ(S.stats().Refused, 1u);

  // A load past the cap keeps what fits and refuses the rest.
  TempFile File("cap");
  const size_t InFile = Held.size() + 4;
  {
    std::ofstream Out(File.Path);
    Out << "{\"version\":1,\"fingerprint\":\"fp\",\"groups\":{";
    for (size_t I = 0; I < InFile; ++I)
      Out << (I ? "," : "") << "\"k" << I << "\":\"" << MiB << "\"";
    Out << "}}\n";
  }
  SpecStore L("fp");
  std::string Err;
  ASSERT_TRUE(L.load(File.Path, &Err)) << Err;
  const SpecStoreStats Loaded = L.stats();
  EXPECT_LE(Loaded.Bytes, SpecStore::MaxBytes);
  EXPECT_GE(Loaded.LoadedGroups, 1u);
  EXPECT_EQ(Loaded.LoadedGroups, Loaded.Entries);
  EXPECT_EQ(Loaded.LoadedGroups + Loaded.Refused, InFile);
  EXPECT_GE(Loaded.Refused, 4u);
}

TEST(SpecStore, ConfigFingerprintTracksSolveKnobs) {
  AnalyzerConfig A, B;
  EXPECT_EQ(SpecStore::configFingerprint(A),
            SpecStore::configFingerprint(B));
  B.Solve.EnableAbduction = false;
  EXPECT_NE(SpecStore::configFingerprint(A),
            SpecStore::configFingerprint(B));
  B = A;
  B.Modular = false;
  EXPECT_NE(SpecStore::configFingerprint(A),
            SpecStore::configFingerprint(B));
  // Conditional-termination mode writes per-scenario conditions into
  // the entries, so the two modes must not share a store file.
  B = A;
  B.Solve.EnableCondTerm = true;
  EXPECT_NE(SpecStore::configFingerprint(A),
            SpecStore::configFingerprint(B));
  // Threads and FuelBudget do not change stored summaries.
  B = A;
  B.Threads = 8;
  B.FuelBudget = 123;
  EXPECT_EQ(SpecStore::configFingerprint(A),
            SpecStore::configFingerprint(B));
}

TEST(SpecStore, FingerprintBumpDiscardsStaleFiles) {
  // Store files written by older-era builds must be wholesale-discarded
  // on load — a clean cold start, never a parse of entries whose shape
  // this build would misread. v2 predates the per-scenario "tc"
  // conditions and the ct= mode flag; v3 predates the per-group "ct"
  // audited-counter record (its entries would warm-serve with the
  // cond-term stats silently reading zero).
  std::string Cur = SpecStore::configFingerprint(AnalyzerConfig());
  ASSERT_EQ(Cur.rfind("v4;", 0), 0u) << Cur;
  // Reconstruct the old spellings of the same knobs: v3 had identical
  // fields under the old prefix; v2 additionally lacked ct=.
  std::string V3 = "v3;" + Cur.substr(3);
  std::string V2 = "v2;" + Cur.substr(3);
  size_t Ct = V2.find(";ct=");
  ASSERT_NE(Ct, std::string::npos);
  V2.erase(Ct);
  for (const std::string &Stale : {V2, V3}) {
    TempFile File("stalefp");
    {
      SpecStore Old(Stale);
      Old.insert("stale-key", "{\"v\":1,\"sc\":[]}");
      std::string Err;
      ASSERT_TRUE(Old.save(File.Path, &Err)) << Err;
    }
    SpecStore New(Cur);
    std::string Err;
    ASSERT_TRUE(New.load(File.Path, &Err)) << Err; // Discard, not error.
    EXPECT_TRUE(New.stats().LoadDiscarded) << Stale;
    EXPECT_EQ(New.size(), 0u);
    EXPECT_EQ(New.peek("stale-key"), nullptr);
  }
}

TEST(SpecStore, OlderLayoutLemmaSectionIsIgnored) {
  // A current-fingerprint file written by a build that still had the
  // unsat-core lemma tier: same layout plus a "solver_lemmas" section.
  // Warm stores must survive the upgrade without a fingerprint bump —
  // groups and sat entries load, the lemma section is dropped, and a
  // re-save no longer carries it.
  std::string Fp = SpecStore::configFingerprint(AnalyzerConfig());
  TempFile File("lemmas");
  {
    std::ofstream Out(File.Path);
    Out << "{\"version\":1,\"fingerprint\":" << json::quoted(Fp)
        << ",\"groups\":{\"key1\":{\"v\":1,\"sc\":[]}}"
        << ",\"solver_sat\":[[\"e0;y*2\",\"F\"],[\"l-1;x*1\",\"T\"]]"
        << ",\"solver_lemmas\":{\"version\":1,\"cores\":"
        << "[[\"l-3;z*1\",\"l5;z*-1\"]]}"
        << ",\"outcomes\":{\"count\":3,\"hash\":\"00000000deadbeef\"}}\n";
  }
  SpecStore S(Fp);
  std::string Err;
  ASSERT_TRUE(S.load(File.Path, &Err)) << Err;
  EXPECT_FALSE(S.stats().LoadDiscarded);
  EXPECT_EQ(S.stats().LoadedGroups, 1u);
  ASSERT_NE(S.peek("key1"), nullptr);
  EXPECT_EQ(*S.peek("key1"), "{\"v\":1,\"sc\":[]}");
  auto Snap = S.satSnapshot();
  ASSERT_EQ(Snap.size(), 2u);
  EXPECT_EQ(Snap[0], (std::pair<std::string, Tri>{"e0;y*2", Tri::False}));
  EXPECT_EQ(Snap[1], (std::pair<std::string, Tri>{"l-1;x*1", Tri::True}));
  uint64_t Count = 0, Hash = 0;
  ASSERT_TRUE(S.outcomesDigest(Count, Hash));
  EXPECT_EQ(Count, 3u);
  EXPECT_EQ(Hash, 0xdeadbeefull);

  ASSERT_TRUE(S.save(File.Path, &Err)) << Err;
  std::ifstream In(File.Path);
  std::stringstream Saved;
  Saved << In.rdbuf();
  EXPECT_EQ(Saved.str().find("solver_lemmas"), std::string::npos);
  EXPECT_NE(Saved.str().find("l-1;x*1"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// The round-trip property (acceptance criterion)
//===----------------------------------------------------------------------===//

TEST(StoreRoundTrip, CorpusReplayIsByteIdenticalWithZeroReRuns) {
  std::vector<BatchItem> Items = corpusBatchItems(12);
  TempFile File("roundtrip");

  BatchOptions Opt;
  Opt.Threads = 2;

  // Storeless reference: the store must never change answers.
  std::string Reference;
  {
    BatchAnalyzer BA(Opt);
    Reference = BA.run(Items).renderOutcomes();
  }

  // Cold run with a store: analyze, then save.
  std::string Cold;
  {
    SpecStore Store(SpecStore::configFingerprint(Opt.Program));
    Opt.Store = &Store;
    BatchAnalyzer BA(Opt);
    BatchResult R = BA.run(Items);
    Cold = R.renderOutcomes();
    // The slice holds twins: each distinct key (one store entry) is
    // inferred once, and every other group replays it in-run.
    EXPECT_EQ(totalGroups(R), 24u);
    EXPECT_EQ(Store.size(), 13u);
    EXPECT_EQ(R.StoreMisses, 13u);
    EXPECT_EQ(R.StoreHits, 11u);
    std::string Err;
    ASSERT_TRUE(Store.save(File.Path, &Err)) << Err;
  }
  EXPECT_EQ(Reference, Cold);

  // "Fresh process": a new store loaded from disk, a new analyzer.
  // Byte-identical output, every group served from the store, zero
  // inference re-runs.
  {
    SpecStore Store(SpecStore::configFingerprint(Opt.Program));
    std::string Err;
    ASSERT_TRUE(Store.load(File.Path, &Err)) << Err;
    Opt.Store = &Store;
    BatchAnalyzer BA(Opt);
    BatchResult R = BA.run(Items);
    EXPECT_EQ(R.renderOutcomes(), Cold);
    EXPECT_EQ(R.StoreMisses, 0u) << "a group re-ran inference on replay";
    EXPECT_EQ(R.StoreHits, totalGroups(R));

    // Thread count stays immaterial on the replay path too.
    Opt.Threads = 1;
    BatchAnalyzer BA1(Opt);
    EXPECT_EQ(BA1.run(Items).renderOutcomes(), Cold);
  }
}

TEST(StoreRoundTrip, EditReRunsOnlyGroupAndTransitiveCallers) {
  // Two programs: the chain (base <- mid <- main) and an unrelated
  // one. Editing base must re-run exactly base, mid, main of the
  // chain program — its transitive callers via the call graph — and
  // nothing of the unrelated program.
  const char *Other = R"(
int spin(int b)
{
  if (b < 0) return 0;
  else return spin(b + 1);
}
int main(int n) { return spin(1); }
)";
  std::vector<BatchItem> Items = {item("chain", ChainSrc),
                                  item("other", Other)};

  BatchOptions Opt;
  SpecStore Store(SpecStore::configFingerprint(Opt.Program));
  Opt.Store = &Store;

  BatchAnalyzer BA(Opt);
  BatchResult Cold = BA.run(Items);
  ASSERT_EQ(Cold.StoreMisses, totalGroups(Cold)); // 3 + 2 groups.
  ASSERT_EQ(totalGroups(Cold), 5u);

  // Unchanged replay: zero re-runs.
  BatchResult Warm = BA.run(Items);
  EXPECT_EQ(Warm.StoreMisses, 0u);
  EXPECT_EQ(Warm.StoreHits, 5u);

  // Edit the BOTTOM of the chain.
  std::string Edited = ChainSrc;
  size_t Pos = Edited.find("n - 1");
  ASSERT_NE(Pos, std::string::npos);
  Edited.replace(Pos, 5, "n - 2");
  Items[0].Source = Edited;

  uint64_t MissBefore = Store.stats().Misses;
  BatchResult Inc = BA.run(Items);
  // The re-run counter: exactly the chain's three groups re-ran.
  EXPECT_EQ(Store.stats().Misses - MissBefore, 3u);
  EXPECT_EQ(Inc.StoreHits, 2u); // Both groups of "other" replayed.
  EXPECT_EQ(Inc.Programs[1].Result.GroupsFromStore, 2u);
  EXPECT_EQ(Inc.Programs[0].Result.GroupsFromStore, 0u);

  // Edit only the TOP: callees stay valid.
  std::string TopEdit = ChainSrc;
  size_t MPos = TopEdit.find("mid(n)");
  ASSERT_NE(MPos, std::string::npos);
  TopEdit.replace(MPos, 6, "mid(n + 1)");
  Items[0].Source = TopEdit;
  MissBefore = Store.stats().Misses;
  BatchResult Inc2 = BA.run(Items);
  EXPECT_EQ(Store.stats().Misses - MissBefore, 1u); // main only.
  EXPECT_EQ(Inc2.Programs[0].Result.GroupsFromStore, 2u);
}

TEST(StoreRoundTrip, SingleProgramAnalyzeUsesStore) {
  AnalyzerConfig Cfg;
  SpecStore Store(SpecStore::configFingerprint(Cfg));
  Cfg.Store = &Store;
  AnalysisResult Cold = analyzeProgram(ChainSrc, Cfg);
  ASSERT_TRUE(Cold.Ok);
  EXPECT_EQ(Cold.GroupsFromStore, 0u);
  AnalysisResult Warm = analyzeProgram(ChainSrc, Cfg);
  EXPECT_EQ(Warm.GroupsFromStore, Warm.GroupCount);
  EXPECT_EQ(Warm.str(), Cold.str());
  EXPECT_EQ(Warm.outcome(), Cold.outcome());
}

TEST(StoreRoundTrip, TermCondSurvivesFreshProcessRehydration) {
  // Conditional-termination mode: the audited per-scenario condition
  // ("termcond" in the rendered summary) must ride the store through
  // a fresh-process reload byte-identically. step-miss is the
  // canonical conditionally-terminating shape (terminates only from
  // even non-negative x), so f's condition is strictly between false
  // and true.
  const char *Src =
      "void f(int x) { if (x == 0) return; else f(x - 2); }\n"
      "void main(int n) { f(n); }\n";
  std::vector<BatchItem> Items = {item("stepmiss", Src)};
  TempFile File("termcond");

  BatchOptions Opt;
  Opt.Program.Solve.EnableCondTerm = true;

  std::string Cold;
  CondTermStats ColdStats;
  {
    SpecStore Store(SpecStore::configFingerprint(Opt.Program));
    Opt.Store = &Store;
    BatchAnalyzer BA(Opt);
    BatchResult R = BA.run(Items);
    Cold = R.renderOutcomes();
    ColdStats = R.CondTerm;
    EXPECT_GT(R.CondTerm.Emitted, 0u);
    EXPECT_EQ(R.CondTerm.Demoted, 0u);
    std::string Err;
    ASSERT_TRUE(Store.save(File.Path, &Err)) << Err;
  }
  EXPECT_NE(Cold.find("termcond"), std::string::npos) << Cold;

  // "Fresh process": a new store loaded from disk, a new analyzer.
  // Zero inference re-runs, and the rehydrated conditions render to
  // the same bytes.
  {
    SpecStore Store(SpecStore::configFingerprint(Opt.Program));
    std::string Err;
    ASSERT_TRUE(Store.load(File.Path, &Err)) << Err;
    Opt.Store = &Store;
    BatchAnalyzer BA(Opt);
    BatchResult R = BA.run(Items);
    EXPECT_EQ(R.renderOutcomes(), Cold);
    EXPECT_EQ(R.StoreMisses, 0u) << "a group re-ran inference on replay";
    EXPECT_EQ(R.StoreHits, totalGroups(R));
    // The Cond column counts from the published summaries, so a warm
    // replay counts the program exactly like the cold run did.
    auto Per = R.perCategory();
    ASSERT_EQ(Per.size(), 1u);
    EXPECT_EQ(Per[0].second.Cond, 1u);
    // The audited counters ride the entries' "ct" records, so the
    // warm replay reports the SAME stats as the cold run — before the
    // record existed, a fully warm run read all zeros here (the
    // cond_term stats hole).
    EXPECT_EQ(R.CondTerm.Emitted, ColdStats.Emitted);
    EXPECT_EQ(R.CondTerm.Sound, ColdStats.Sound);
    EXPECT_EQ(R.CondTerm.Demoted, ColdStats.Demoted);
    EXPECT_EQ(R.CondTerm.NonTrivial, ColdStats.NonTrivial);
    EXPECT_EQ(R.CondTerm.LeavesCertified, ColdStats.LeavesCertified);
  }
}

//===----------------------------------------------------------------------===//
// GlobalSolverCache sat snapshot
//===----------------------------------------------------------------------===//

TEST(SatSnapshot, ExportImportServesWarmStarts) {
  ConstraintConj Conj = {Constraint::make(LinExpr::var(mkVar("snap_x")),
                                          CmpKind::Ge, LinExpr(3))};
  GlobalSolverCache Producer;
  {
    SolverContext Ctx;
    Ctx.attachGlobalTier(&Producer);
    EXPECT_EQ(Ctx.isSatConj(Conj), Tri::True);
    Ctx.promoteTo(Producer);
  }
  std::vector<std::pair<std::string, Tri>> Snap =
      Producer.exportSatSnapshot();
  ASSERT_EQ(Snap.size(), 1u);
  // Name-canonical key: no VarIds, spelling-sorted terms.
  EXPECT_NE(Snap[0].first.find("snap_x"), std::string::npos);
  EXPECT_EQ(Snap[0].second, Tri::True);

  // A fresh tier warm-started from the snapshot answers the query
  // without an Omega run, and the hit is fuel-transparent (counted as
  // a global tier hit).
  GlobalSolverCache Consumer;
  Consumer.importSatSnapshot(Snap);
  EXPECT_EQ(Consumer.stats().SatSnapshotEntries, 1u);
  SolverContext Ctx;
  Ctx.attachGlobalTier(&Consumer);
  EXPECT_EQ(Ctx.isSatConj(Conj), Tri::True);
  SolverStats S = Ctx.stats();
  EXPECT_EQ(S.GlobalSatHits, 1u);
  EXPECT_EQ(S.fuelUsed(), 0u);
  EXPECT_EQ(Consumer.stats().SatSnapshotHits, 1u);

  // Re-export includes unconsumed snapshot entries: a save after a
  // partial warm run never drops still-valid answers.
  GlobalSolverCache Idle;
  Idle.importSatSnapshot(Snap);
  EXPECT_EQ(Idle.exportSatSnapshot(), Snap);
}

TEST(SatSnapshot, CanonKeyIsIdAgnostic) {
  // Same conjunction built from differently ordered interning must
  // canonicalize identically (keys are spelling-sorted).
  ConstraintConj C1 = {
      Constraint::make(LinExpr::var(mkVar("ck_a")) + LinExpr::var(mkVar("ck_b")),
                       CmpKind::Le, LinExpr(4)),
      Constraint::make(LinExpr::var(mkVar("ck_c")), CmpKind::Eq, LinExpr(0))};
  ConstraintConj C2 = {C1[1], C1[0]}; // Permuted conjunction order.
  EXPECT_EQ(GlobalSolverCache::satKeyCanon(internConj(C1)),
            GlobalSolverCache::satKeyCanon(internConj(C2)));
}

TEST(SatSnapshot, BatchByteIdenticalAcrossThreadsAndWarmth) {
  // Whole batches warm-started from exportSatSnapshot: a cold
  // single-thread run is the baseline and produces the snapshot; every
  // thread count, cold and warm, must render the same outcome bytes.
  std::vector<BatchItem> Items = corpusSlice(20);
  std::string Base;
  std::vector<std::pair<std::string, Tri>> Snap;
  {
    BatchOptions Opt;
    Opt.Threads = 1;
    BatchAnalyzer BA(Opt);
    Base = BA.run(Items).renderOutcomes();
    Snap = BA.globalTier()->exportSatSnapshot();
  }
  ASSERT_FALSE(Base.empty());
  ASSERT_FALSE(Snap.empty());

  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    for (bool Warm : {false, true}) {
      if (Threads == 1 && !Warm)
        continue; // The baseline itself.
      BatchOptions Opt;
      Opt.Threads = Threads;
      BatchAnalyzer BA(Opt);
      if (Warm)
        BA.globalTier()->importSatSnapshot(Snap);
      BatchResult R = BA.run(Items);
      EXPECT_EQ(Base, R.renderOutcomes())
          << "threads=" << Threads << " warm=" << Warm;
      EXPECT_EQ(R.Global.SatSnapshotHits > 0, Warm)
          << "threads=" << Threads << " warm=" << Warm;
    }
  }
}

//===----------------------------------------------------------------------===//
// Server persistence
//===----------------------------------------------------------------------===//

TEST(ServerStore, WarmRestartServesFromDiskByteIdentically) {
  TempFile File("server");
  std::string Request = soakRequestJson(1, ChainSrc);

  std::string ColdResponse;
  {
    ServerOptions SO;
    SO.StorePath = File.Path;
    AnalysisServer Server(SO);
    ColdResponse = Server.submitAndWait(Request);
    EXPECT_EQ(Server.stats().StoreHits, 0u);
    // Shutdown persists the store.
    Server.submitAndWait("{\"id\":2,\"verb\":\"shutdown\"}");
  }
  {
    ServerOptions SO;
    SO.StorePath = File.Path;
    AnalysisServer Server(SO);
    std::string WarmResponse = Server.submitAndWait(Request);
    EXPECT_EQ(WarmResponse, ColdResponse);
    ServerStats S = Server.stats();
    EXPECT_GT(S.StoreHits, 0u);
    EXPECT_EQ(S.StoreMisses, 0u);
  }
}

TEST(ServerStore, DefaultStoreInfersEachKeyOnce) {
  // A server with no StorePath still has a spec store. Three
  // respellings of each program share their content keys, so each
  // distinct key is inferred once and every other group replays, while
  // every response stays byte-identical to a fresh store-less run.
  const std::vector<BatchItem> Items = corpusBatchItems(12);
  std::vector<std::string> Sources;
  for (size_t Round = 0; Round < 3; ++Round)
    for (size_t P = 0; P < Items.size(); ++P)
      Sources.push_back(
          soakVariantSource(Items[P].Source, Round * Items.size() + P));
  std::set<std::string> Distinct;
  size_t Groups = 0;
  std::vector<std::string> Expected;
  for (size_t I = 0; I < Sources.size(); ++I) {
    std::vector<std::string> Keys = keysOf(Sources[I]);
    Groups += Keys.size();
    Distinct.insert(Keys.begin(), Keys.end());
    RequestOutcome Fresh =
        runProgramRequest(Sources[I], "main", ServerOptions().Program, nullptr);
    ASSERT_FALSE(Fresh.Failed) << Items[I % Items.size()].Name;
    Expected.push_back("{\"id\":" + std::to_string(I) + "," + Fresh.Body +
                       "}");
  }
  ASSERT_GT(Groups, Distinct.size());

  for (unsigned Workers : {1u, 4u}) {
    ServerOptions SO;
    SO.Workers = Workers;
    AnalysisServer Server(SO);
    std::vector<std::string> Responses(Sources.size());
    std::vector<std::thread> Clients;
    for (unsigned C = 0; C < Workers; ++C)
      Clients.emplace_back([&, C] {
        for (size_t I = C; I < Sources.size(); I += Workers)
          Responses[I] = Server.submitAndWait(soakRequestJson(I, Sources[I]));
      });
    for (std::thread &T : Clients)
      T.join();
    for (size_t I = 0; I < Sources.size(); ++I)
      EXPECT_EQ(Responses[I], Expected[I]) << "workers=" << Workers;

    ServerStats S = Server.stats();
    EXPECT_EQ(S.StoreHits + S.StoreMisses, Groups) << "workers=" << Workers;
    if (Workers == 1) {
      EXPECT_EQ(S.StoreMisses, Distinct.size());
      EXPECT_EQ(S.StoreHits, Groups - Distinct.size());
    } else {
      // Concurrent cold requests for one key may both infer it.
      EXPECT_GE(S.StoreMisses, Distinct.size());
    }
    EXPECT_EQ(S.StoreEntries, Distinct.size()) << "workers=" << Workers;
    EXPECT_EQ(S.StoreRefused, 0u);
  }
}

TEST(ServerStore, CondTermStatsMatchWarmAndCold) {
  // The server-level view of the stats hole: a warm-restarted server
  // answering entirely from the spec store must report the same
  // cond_term counters through its stats verb as the cold server did —
  // the per-group "ct" records fold into ServerStats exactly like
  // freshly audited groups.
  const char *Src = "void f(int x) { if (x == 0) return; else f(x - 2); }\n"
                    "void main(int n) { f(n); }\n";
  TempFile File("serverct");
  std::string Request = soakRequestJson(1, Src);

  ServerOptions SO;
  SO.StorePath = File.Path;
  SO.Program.Solve.EnableCondTerm = true;

  std::string ColdResponse;
  CondTermStats ColdStats;
  {
    AnalysisServer Server(SO);
    ColdResponse = Server.submitAndWait(Request);
    ColdStats = Server.stats().CondTerm;
    EXPECT_GT(ColdStats.Emitted, 0u);
    Server.submitAndWait("{\"id\":2,\"verb\":\"shutdown\"}");
  }
  {
    AnalysisServer Server(SO);
    EXPECT_EQ(Server.submitAndWait(Request), ColdResponse);
    ServerStats S = Server.stats();
    EXPECT_GT(S.StoreHits, 0u);
    EXPECT_EQ(S.StoreMisses, 0u);
    EXPECT_EQ(S.CondTerm.Emitted, ColdStats.Emitted);
    EXPECT_EQ(S.CondTerm.Sound, ColdStats.Sound);
    EXPECT_EQ(S.CondTerm.Demoted, ColdStats.Demoted);
    EXPECT_EQ(S.CondTerm.NonTrivial, ColdStats.NonTrivial);
    EXPECT_EQ(S.CondTerm.LeavesCertified, ColdStats.LeavesCertified);
  }
}

//===----------------------------------------------------------------------===//
// Cooperative budget cancellation
//===----------------------------------------------------------------------===//

TEST(Cancellation, TokenFlipsExactlyPastBudget) {
  CancellationToken T(3);
  T.charge();
  T.charge();
  T.charge();
  EXPECT_FALSE(T.cancelled()); // A budget of 3 allows 3 charges.
  T.charge();
  EXPECT_TRUE(T.cancelled());
  EXPECT_EQ(T.charged(), 4u);
}

TEST(Cancellation, SolverContextChargesAnswersNotTierHits) {
  ConstraintConj Conj = {Constraint::make(LinExpr::var(mkVar("cc_x")),
                                          CmpKind::Ge, LinExpr(1))};
  GlobalSolverCache Tier;
  {
    SolverContext Payer;
    Payer.attachGlobalTier(&Tier);
    (void)Payer.isSatConj(Conj);
    Payer.promoteTo(Tier);
  }
  CancellationToken T(100);
  SolverContext Ctx;
  Ctx.attachGlobalTier(&Tier);
  Ctx.attachCancellation(&T);
  (void)Ctx.isSatConj(Conj); // Tier answers: not charged.
  EXPECT_EQ(T.charged(), 0u);
  (void)Ctx.isSatConj(Conj); // Local cache hit: charged.
  EXPECT_EQ(T.charged(), 1u);
  EXPECT_FALSE(Ctx.cancelled());
}

TEST(Cancellation, SerialBudgetCutoffIsDeterministic) {
  // The exact-cutoff property the token buys over the old
  // start-of-group check: two serial runs under the same budget stop
  // at the same query and produce identical results.
  AnalyzerConfig Cfg;
  Cfg.FuelBudget = 10; // Cuts mid-inference for this program.
  AnalysisResult A = analyzeProgram(ChainSrc, Cfg);
  AnalysisResult B = analyzeProgram(ChainSrc, Cfg);
  ASSERT_TRUE(A.Ok);
  EXPECT_EQ(A.FuelUsed, B.FuelUsed);
  EXPECT_EQ(A.str(), B.str());
  EXPECT_EQ(A.outcome(), B.outcome());
  EXPECT_TRUE(A.OverBudget);
  EXPECT_EQ(A.outcome(), Outcome::Timeout);
  // And the budget was actually exceeded at a query boundary, not
  // merely estimated at a group boundary.
  EXPECT_GT(A.FuelUsed, Cfg.FuelBudget);
}
