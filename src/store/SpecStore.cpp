//===- store/SpecStore.cpp ------------------------------------*- C++ -*-===//

#include "store/SpecStore.h"

#include "api/Analyzer.h"
#include "support/Json.h"
#include "support/Trace.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace tnt;

std::string SpecStore::configFingerprint(const AnalyzerConfig &Config) {
  const SolveOptions &S = Config.Solve;
  std::ostringstream Out;
  // v4: group entries grew the optional "ct" record carrying the
  // producer run's audited cond-term counters — a v3 entry would warm-
  // serve with the counts silently reading zero, the exact stats hole
  // this record closes.
  // v3: group entries grew the optional per-scenario "tc" termination
  // condition and the fingerprint grew the ct= mode flag below —
  // default-mode entries would replay into a --cond-term run with the
  // conditions silently missing (and vice versa), so the modes must
  // not share a store file. (Older builds also wrote a "solver_sat"
  // section and, from v2, a "solver_lemmas" one; current builds ignore
  // both.) Bumping the prefix wholesale-discards files
  // written by older builds via the normal fingerprint-mismatch path —
  // a clean cold start, never a parse of a shape this build does not
  // know.
  Out << "v4;mod=" << (Config.Modular ? 1 : 0) << ";iter=" << S.MaxIter
      << ";abd=" << (S.EnableAbduction ? 1 : 0)
      << ";base=" << (S.EnableBaseCase ? 1 : 0)
      << ";nt=" << (S.EnableNonTermProof ? 1 : 0)
      << ";t=" << (S.EnableTermProof ? 1 : 0) << ";lex=" << S.MaxLex
      << ";vpc=" << S.MaxVarsPerCondition << ";gf=" << S.GroupFuel
      << ";gd=" << S.GroupDeadlineMs
      << ";ct=" << (S.EnableCondTerm ? 1 : 0);
  return Out.str();
}

uint64_t SpecStore::fnv1a(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

const std::string *SpecStore::peek(const std::string &Key) const {
  std::lock_guard<std::mutex> L(Mu);
  auto It = Groups.find(Key);
  return It == Groups.end() ? nullptr : &It->second;
}

void SpecStore::noteHit() {
  std::lock_guard<std::mutex> L(Mu);
  ++Hits;
}

void SpecStore::noteMiss() {
  std::lock_guard<std::mutex> L(Mu);
  ++Misses;
}

bool SpecStore::insertLocked(const std::string &Key, std::string Entry) {
  auto It = Groups.lower_bound(Key);
  if (It != Groups.end() && It->first == Key)
    return false;
  const size_t Size = Key.size() + Entry.size();
  if (Size > MaxBytes - Bytes) {
    ++Refused;
    return false;
  }
  Groups.emplace_hint(It, Key, std::move(Entry));
  Bytes += Size;
  return true;
}

void SpecStore::insert(const std::string &Key, std::string Entry) {
  std::lock_guard<std::mutex> L(Mu);
  if (insertLocked(Key, std::move(Entry)))
    ++Inserts;
}

void SpecStore::setOutcomesDigest(uint64_t Count, uint64_t Hash) {
  std::lock_guard<std::mutex> L(Mu);
  OutcomesCount = Count;
  OutcomesHash = Hash;
  HasOutcomes = true;
}

bool SpecStore::outcomesDigest(uint64_t &Count, uint64_t &Hash) const {
  std::lock_guard<std::mutex> L(Mu);
  if (!HasOutcomes)
    return false;
  Count = OutcomesCount;
  Hash = OutcomesHash;
  return true;
}

SpecStoreStats SpecStore::stats() const {
  std::lock_guard<std::mutex> L(Mu);
  SpecStoreStats S;
  S.Hits = Hits;
  S.Misses = Misses;
  S.Inserts = Inserts;
  S.LoadedGroups = LoadedGroups;
  S.LoadDiscarded = LoadDiscarded;
  S.Entries = Groups.size();
  S.Bytes = Bytes;
  S.Refused = Refused;
  return S;
}

size_t SpecStore::size() const {
  std::lock_guard<std::mutex> L(Mu);
  return Groups.size();
}

bool SpecStore::load(const std::string &Path, std::string *Err) {
  trace::Span LoadSpan("load", "store");
  auto fail = [&](const std::string &Msg) {
    if (Err != nullptr)
      *Err = Msg;
    return false;
  };
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return true; // Missing file: a cold start, not an error.
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Text = Buf.str();
  if (Text.empty())
    return true;

  std::string ParseErr;
  std::optional<json::Value> Doc = json::parse(Text, &ParseErr);
  if (!Doc || !Doc->isObject())
    return fail("store file " + Path + ": " + ParseErr);

  const json::Value *Version = Doc->field("version");
  const json::Value *Fp = Doc->field("fingerprint");
  if (Version == nullptr || json::toInt64(*Version).value_or(0) != 1 ||
      Fp == nullptr || !Fp->isString() || Fp->asString() != Fingerprint) {
    // A stale artifact (older scheme or different analyzer config):
    // start cold rather than serve summaries inferred under other
    // rules.
    std::lock_guard<std::mutex> L(Mu);
    LoadDiscarded = true;
    return true;
  }

  std::lock_guard<std::mutex> L(Mu);
  if (const json::Value *G = Doc->field("groups")) {
    if (!G->isObject())
      return fail("store file " + Path + ": \"groups\" is not an object");
    for (const auto &[Key, Entry] : G->members())
      if (insertLocked(Key, json::write(Entry)))
        ++LoadedGroups;
  }
  if (const json::Value *Oc = Doc->field("outcomes")) {
    const json::Value *Count = Oc->field("count");
    const json::Value *Hash = Oc->field("hash");
    if (Count != nullptr && Hash != nullptr) {
      OutcomesCount =
          static_cast<uint64_t>(json::toInt64(*Count).value_or(0));
      // The 64-bit hash is stored as a hex string (JSON numbers lose
      // precision past 2^53).
      OutcomesHash = 0;
      if (Hash->isString())
        OutcomesHash = std::strtoull(Hash->asString().c_str(), nullptr, 16);
      HasOutcomes = true;
    }
  }
  return true;
}

bool SpecStore::save(const std::string &Path, std::string *Err) const {
  trace::Span SaveSpan("save", "store");
  std::string Out = "{\"version\":1,\"fingerprint\":" +
                    json::quoted(Fingerprint) + ",\"groups\":{";
  {
    std::lock_guard<std::mutex> L(Mu);
    bool First = true;
    for (const auto &[Key, Entry] : Groups) {
      if (!First)
        Out += ',';
      First = false;
      Out += json::quoted(Key) + ":" + Entry;
    }
    Out += "}";
    if (HasOutcomes) {
      char Hex[32];
      std::snprintf(Hex, sizeof(Hex), "%016llx",
                    static_cast<unsigned long long>(OutcomesHash));
      Out += ",\"outcomes\":{\"count\":" + std::to_string(OutcomesCount) +
             ",\"hash\":\"" + Hex + "\"}";
    }
  }
  Out += "}\n";

  auto fail = [&](const std::string &Msg) {
    if (Err != nullptr)
      *Err = Msg;
    return false;
  };
  // Atomic publish: write a sibling temp file, then rename over the
  // target, so a concurrent reader sees the old store or the new one,
  // never a torn one.
  std::string Tmp = Path + ".tmp";
  {
    std::ofstream OutF(Tmp, std::ios::binary | std::ios::trunc);
    if (!OutF)
      return fail("cannot write " + Tmp);
    OutF << Out;
    OutF.flush();
    if (!OutF)
      return fail("short write to " + Tmp);
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Tmp.c_str());
    return fail("cannot rename " + Tmp + " to " + Path);
  }
  return true;
}
