//===- solver/GlobalCache.cpp ---------------------------------*- C++ -*-===//

#include "solver/GlobalCache.h"

#include <algorithm>
#include <unordered_set>

using namespace tnt;

namespace {

std::atomic<size_t> LiveTiers{0};

/// The per-constraint piece of satKeyCanon: relation, constant, then
/// the terms sorted by variable SPELLING.
std::string constraintCanon(const Constraint &C) {
  std::string P;
  switch (C.rel()) {
  case RelKind::Eq:
    P = "e";
    break;
  case RelKind::Le:
    P = "l";
    break;
  case RelKind::Ne:
    P = "n";
    break;
  }
  P += std::to_string(C.expr().constant());
  std::vector<std::string> Terms;
  for (const auto &[V, Coeff] : C.expr().coeffs())
    Terms.push_back(varName(V) + "*" + std::to_string(Coeff));
  std::sort(Terms.begin(), Terms.end());
  for (const std::string &T : Terms) {
    P += ';';
    P += T;
  }
  return P;
}

} // namespace

GlobalSolverCache::GlobalSolverCache(size_t SatCapacity, size_t DnfCapacity)
    : SatCap(SatCapacity), DnfCap(DnfCapacity) {
  LiveTiers.fetch_add(1, std::memory_order_relaxed);
}

GlobalSolverCache::~GlobalSolverCache() {
  LiveTiers.fetch_sub(1, std::memory_order_relaxed);
}

size_t GlobalSolverCache::liveCount() {
  return LiveTiers.load(std::memory_order_relaxed);
}

std::optional<Tri> GlobalSolverCache::lookupSat(const InternedConj &Key) {
  SatLookupsN.fetch_add(1, std::memory_order_relaxed);
  std::shared_lock<std::shared_mutex> L(Mu);
  auto It = Sat.find(Key);
  if (It != Sat.end()) {
    SatHitsN.fetch_add(1, std::memory_order_relaxed);
    return It->second;
  }
  It = SatPrev.find(Key);
  if (It != SatPrev.end()) {
    SatHitsN.fetch_add(1, std::memory_order_relaxed);
    SatPrevHitsN.fetch_add(1, std::memory_order_relaxed);
    return It->second;
  }
  // The persistent snapshot is keyed by name-canonical form.
  // Canonicalization runs only on a resident miss and only when a
  // snapshot was imported, so its cost rides on queries that would
  // otherwise pay for a computation.
  if (Snapshot.empty())
    return std::nullopt;
  auto SIt = Snapshot.find(satKeyCanon(Key));
  if (SIt == Snapshot.end())
    return std::nullopt;
  SatHitsN.fetch_add(1, std::memory_order_relaxed);
  SatSnapshotHitsN.fetch_add(1, std::memory_order_relaxed);
  return SIt->second;
}

std::string GlobalSolverCache::satKeyCanon(const InternedConj &Key) {
  std::vector<std::string> Parts;
  Parts.reserve(Key.size());
  for (const Constraint *C : Key)
    Parts.push_back(constraintCanon(*C));
  std::sort(Parts.begin(), Parts.end());
  std::string Out;
  for (const std::string &P : Parts) {
    if (!Out.empty())
      Out += '&';
    Out += P;
  }
  return Out;
}

void GlobalSolverCache::importSatSnapshot(
    const std::vector<std::pair<std::string, Tri>> &Entries) {
  std::unique_lock<std::shared_mutex> L(Mu);
  Snapshot.clear();
  Snapshot.reserve(Entries.size());
  for (const auto &[Key, Val] : Entries)
    Snapshot.emplace(Key, Val);
}

std::vector<std::pair<std::string, Tri>>
GlobalSolverCache::exportSatSnapshot() const {
  // Resident entries first (both generations), then unconsumed
  // warm-start leftovers — a save after a partial warm run keeps
  // still-valid answers — but BOUNDED: without a cap, repeated
  // import -> serve -> export cycles would accumulate every canon key
  // ever seen, reinstating the unbounded retention the generation
  // rotation exists to prevent. Two generations' worth (2 * SatCap)
  // is the tier's own retention bound; leftovers only fill whatever
  // room the residents leave, dropped in sorted-key order for
  // deterministic files.
  std::vector<std::pair<std::string, Tri>> Resident, Leftover;
  {
    std::shared_lock<std::shared_mutex> L(Mu);
    std::unordered_set<std::string> Seen;
    const SatMap *Gens[] = {&Sat, &SatPrev};
    const CanonMap *Canons[] = {&SatCanon, &SatCanonPrev};
    for (int I = 0; I < 2; ++I)
      for (const auto &[Key, Val] : *Gens[I]) {
        // Use the canon captured at merge time: the producing VarPool
        // session (which owns the key's spellings) may be long dead by
        // save time. Recomputing here is only safe — and only needed —
        // for entries merged outside any session (batch runs).
        auto CIt = Canons[I]->find(Key);
        std::string Canon =
            CIt != Canons[I]->end() ? CIt->second : satKeyCanon(Key);
        if (Seen.insert(Canon).second)
          Resident.emplace_back(std::move(Canon), Val);
      }
    for (const auto &[Canon, Val] : Snapshot)
      if (Seen.insert(Canon).second)
        Leftover.emplace_back(Canon, Val);
  }
  const size_t Cap = 2 * SatCap;
  std::sort(Leftover.begin(), Leftover.end());
  if (Resident.size() < Cap) {
    size_t Room = Cap - Resident.size();
    if (Leftover.size() > Room)
      Leftover.resize(Room);
    Resident.insert(Resident.end(), Leftover.begin(), Leftover.end());
  }
  if (Resident.size() > Cap)
    Resident.resize(Cap); // Unreachable at sane caps; belt and braces.
  std::sort(Resident.begin(), Resident.end());
  return Resident;
}

std::shared_ptr<const DnfPayload>
GlobalSolverCache::lookupDnf(const FormulaNode *Key) {
  DnfLookupsN.fetch_add(1, std::memory_order_relaxed);
  std::shared_lock<std::shared_mutex> L(Mu);
  auto It = Dnf.find(Key);
  if (It != Dnf.end()) {
    DnfHitsN.fetch_add(1, std::memory_order_relaxed);
    return It->second;
  }
  It = DnfPrev.find(Key);
  if (It != DnfPrev.end()) {
    DnfHitsN.fetch_add(1, std::memory_order_relaxed);
    DnfPrevHitsN.fetch_add(1, std::memory_order_relaxed);
    return It->second;
  }
  return nullptr;
}

void GlobalSolverCache::mergeSat(
    const std::vector<std::pair<InternedConj, Tri>> &Entries) {
  if (SatCap == 0 || Entries.empty())
    return;
  std::unique_lock<std::shared_mutex> L(Mu);
  // At most ONE rotation per merge: the caller offers entries
  // most-recently-used first, so rotating again mid-merge would push
  // this context's hottest entries into the discarded generation and
  // retain its coldest tail — the opposite of the retention the merge
  // order exists to provide. Instead, once a merge has rotated and
  // refilled the current generation, its remaining (coldest) entries
  // are simply not admitted this time.
  bool Rotated = false;
  for (const auto &[Key, Val] : Entries) {
    if (Sat.count(Key) != 0)
      continue; // First writer wins within the current generation.
    if (Sat.size() >= SatCap) {
      if (Rotated)
        break;
      // Rotate: the current generation becomes the previous one (whose
      // old contents die) and inserts continue fresh. An entry still in
      // demand comes back via the next end-of-program merge of whoever
      // hits it in SatPrev.
      SatPrev = std::move(Sat);
      Sat = SatMap();
      SatCanonPrev = std::move(SatCanon);
      SatCanon = CanonMap();
      Rotated = true;
      SatRotationsN.fetch_add(1, std::memory_order_relaxed);
    }
    Sat.emplace(Key, Val);
    // Capture the name-canonical form now, while the merging thread's
    // VarPool session (if any) can still resolve the key's spellings;
    // exportSatSnapshot may run long after that session is recycled.
    SatCanon.emplace(Key, satKeyCanon(Key));
    SatInsertsN.fetch_add(1, std::memory_order_relaxed);
  }
}

void GlobalSolverCache::mergeDnf(
    const std::vector<std::pair<const FormulaNode *,
                                std::shared_ptr<const DnfPayload>>> &Entries) {
  if (DnfCap == 0 || Entries.empty())
    return;
  std::unique_lock<std::shared_mutex> L(Mu);
  bool Rotated = false; // One rotation per merge; see mergeSat.
  for (const auto &[Key, Payload] : Entries) {
    if (Dnf.count(Key) != 0)
      continue;
    if (Dnf.size() >= DnfCap) {
      if (Rotated)
        break;
      DnfPrev = std::move(Dnf);
      Dnf = DnfMap();
      Rotated = true;
      DnfRotationsN.fetch_add(1, std::memory_order_relaxed);
    }
    Dnf.emplace(Key, Payload);
    DnfInsertsN.fetch_add(1, std::memory_order_relaxed);
  }
}

void GlobalSolverCache::collectRoots(EpochRoots &Out) const {
  std::shared_lock<std::shared_mutex> L(Mu);
  // Constraints are heavily shared across sat keys (and keys across
  // generations), so dedup here: appending raw would hand the
  // reclaimer one entry per (key, constraint) pair — a transient
  // allocation spike in the millions at default capacities — only for
  // it to dedup into a set anyway.
  std::unordered_set<const Constraint *> SeenC;
  for (const SatMap *M : {&Sat, &SatPrev})
    for (const auto &[Key, Val] : *M)
      for (const Constraint *P : Key)
        if (SeenC.insert(P).second)
          Out.Constraints.push_back(P);
  std::unordered_set<const FormulaNode *> SeenF;
  for (const DnfMap *M : {&Dnf, &DnfPrev})
    for (const auto &[Key, Payload] : *M)
      if (SeenF.insert(Key).second)
        Out.Formulas.push_back(Key);
}

GlobalCacheStats GlobalSolverCache::stats() const {
  GlobalCacheStats S;
  S.SatLookups = SatLookupsN.load(std::memory_order_relaxed);
  S.SatHits = SatHitsN.load(std::memory_order_relaxed);
  S.DnfLookups = DnfLookupsN.load(std::memory_order_relaxed);
  S.DnfHits = DnfHitsN.load(std::memory_order_relaxed);
  S.SatPrevHits = SatPrevHitsN.load(std::memory_order_relaxed);
  S.DnfPrevHits = DnfPrevHitsN.load(std::memory_order_relaxed);
  S.SatInserts = SatInsertsN.load(std::memory_order_relaxed);
  S.DnfInserts = DnfInsertsN.load(std::memory_order_relaxed);
  S.SatRotations = SatRotationsN.load(std::memory_order_relaxed);
  S.DnfRotations = DnfRotationsN.load(std::memory_order_relaxed);
  S.SatSnapshotHits = SatSnapshotHitsN.load(std::memory_order_relaxed);
  std::shared_lock<std::shared_mutex> L(Mu);
  S.SatEntries = Sat.size();
  S.DnfEntries = Dnf.size();
  S.SatPrevEntries = SatPrev.size();
  S.DnfPrevEntries = DnfPrev.size();
  S.SatSnapshotEntries = Snapshot.size();
  return S;
}

size_t GlobalSolverCache::satSize() const {
  std::shared_lock<std::shared_mutex> L(Mu);
  size_t N = Sat.size();
  for (const auto &[Key, Val] : SatPrev)
    if (Sat.count(Key) == 0)
      ++N;
  return N;
}

size_t GlobalSolverCache::dnfSize() const {
  std::shared_lock<std::shared_mutex> L(Mu);
  size_t N = Dnf.size();
  for (const auto &[Key, Payload] : DnfPrev)
    if (Dnf.count(Key) == 0)
      ++N;
  return N;
}
