//===- arith/Var.cpp ------------------------------------------*- C++ -*-===//

#include "arith/Var.h"

#include <cassert>

using namespace tnt;

thread_local VarPool::Scope *VarPool::ActiveScope = nullptr;
thread_local VarPool::Session *VarPool::ActiveSession = nullptr;

VarPool::Scope::Scope(uint32_t Block) : Prev(ActiveScope), Block(Block) {
  ActiveScope = this;
}

VarPool::Scope::~Scope() { ActiveScope = Prev; }

VarPool::SessionScope::SessionScope(Session &S) : Prev(ActiveSession) {
  ActiveSession = &S;
}

VarPool::SessionScope::~SessionScope() { ActiveSession = Prev; }

size_t VarPool::Session::size() const {
  std::lock_guard<std::mutex> L(Mu);
  return Names.size();
}

uint64_t VarPool::Session::fallbacks() const {
  std::lock_guard<std::mutex> L(Mu);
  return Fallbacks;
}

VarPool &VarPool::get() {
  static VarPool Pool;
  return Pool;
}

VarId VarPool::allocate(const std::string &Name) {
  VarId Id;
  if (ActiveScope != nullptr && ActiveScope->Block < BlockLimit) {
    uint32_t &Next = BlockNext[ActiveScope->Block];
    if (Next < BlockSize) {
      Id = blockStart(ActiveScope->Block) + Next++;
    } else {
      // Block exhausted: fall back to the global region (sound, loses
      // byte-determinism for this pathological analysis only).
      Id = NextGlobal++;
      ++ScopedFallbacks;
    }
  } else {
    Id = NextGlobal++;
    if (ActiveScope != nullptr)
      ++ScopedFallbacks; // Block number past the limit: same fallback.
  }
  assert(NextGlobal < BlockBase && "global variable region exhausted");
  Names.emplace(Id, Name);
  Index.emplace(Name, Id);
  return Id;
}

VarId VarPool::sessionAllocate(Session &S, const std::string &Name) {
  // Mirrors allocate(), but every counter is the session's own: the
  // i-th block-B allocation of ANY session is blockStart(B) + i, and
  // even the overflow region restarts at zero per lease — ids are a
  // pure function of the request, not of pool history.
  VarId Id;
  bool Fallback = false;
  if (ActiveScope != nullptr) {
    uint32_t Limit;
    {
      std::lock_guard<std::mutex> L(Mu);
      Limit = BlockLimit;
    }
    if (ActiveScope->Block < Limit) {
      uint32_t &Next = S.BlockNext[ActiveScope->Block];
      if (Next < BlockSize) {
        Id = blockStart(ActiveScope->Block) + Next++;
      } else {
        Id = S.NextGlobal++;
        Fallback = true;
      }
    } else {
      Id = S.NextGlobal++;
      Fallback = true;
    }
  } else {
    Id = S.NextGlobal++;
  }
  if (Fallback) {
    ++S.Fallbacks;
    std::lock_guard<std::mutex> L(Mu);
    ++ScopedFallbacks;
  }
  assert(S.NextGlobal < BlockBase && "session variable region exhausted");
  S.Names.emplace(Id, Name);
  S.Index.emplace(Name, Id);
  return Id;
}

uint32_t VarPool::blockLimit() const {
  std::lock_guard<std::mutex> L(Mu);
  return BlockLimit;
}

void VarPool::setBlockLimitForTest(uint32_t Limit) {
  std::lock_guard<std::mutex> L(Mu);
  BlockLimit = Limit == 0 || Limit > MaxBlocks ? MaxBlocks : Limit;
}

uint64_t VarPool::scopedFallbacks() const {
  std::lock_guard<std::mutex> L(Mu);
  return ScopedFallbacks;
}

VarId VarPool::intern(const std::string &Name) {
  if (Session *S = ActiveSession) {
    std::lock_guard<std::mutex> L(S->Mu);
    auto It = S->Index.find(Name);
    if (It != S->Index.end())
      return It->second;
    // No fallthrough to the shared index: the session is a VIRGIN pool
    // view, so a spelling the shared pool happens to know still gets a
    // session-positional id — exactly what a fresh process would do.
    return sessionAllocate(*S, Name);
  }
  std::lock_guard<std::mutex> L(Mu);
  auto It = Index.find(Name);
  if (It != Index.end())
    return It->second;
  return allocate(Name);
}

VarId VarPool::fresh(const std::string &Base) {
  if (Session *S = ActiveSession) {
    std::lock_guard<std::mutex> L(S->Mu);
    if (ActiveScope != nullptr) {
      std::string Name = Base + "!b" + std::to_string(ActiveScope->Block) +
                         "!" + std::to_string(ActiveScope->FreshCounter++);
      auto It = S->Index.find(Name);
      if (It != S->Index.end())
        return It->second;
      return sessionAllocate(*S, Name);
    }
    for (;;) {
      std::string Candidate =
          Base + "!" + std::to_string(S->FreshCounter++);
      if (S->Index.find(Candidate) == S->Index.end())
        return sessionAllocate(*S, Candidate);
    }
  }
  std::lock_guard<std::mutex> L(Mu);
  if (ActiveScope != nullptr) {
    // Deterministic per-scope spelling. The '!' separator cannot appear
    // in parsed identifiers and the block tag separates concurrent
    // scopes, so the name cannot collide within the current analysis;
    // a hit from a previous run reuses its id, which is exactly what
    // keeps repeated analyses byte-identical.
    std::string Name = Base + "!b" + std::to_string(ActiveScope->Block) +
                       "!" + std::to_string(ActiveScope->FreshCounter++);
    auto It = Index.find(Name);
    if (It != Index.end())
      return It->second;
    return allocate(Name);
  }
  for (;;) {
    std::string Candidate = Base + "!" + std::to_string(FreshCounter++);
    if (Index.find(Candidate) == Index.end())
      return allocate(Candidate);
  }
}

VarPool::FreshMark VarPool::freshMark() const {
  if (ActiveScope == nullptr)
    return {};
  Session *S = ActiveSession;
  std::lock_guard<std::mutex> L(S != nullptr ? S->Mu : Mu);
  const std::map<uint32_t, uint32_t> &Next =
      S != nullptr ? S->BlockNext : BlockNext;
  auto It = Next.find(ActiveScope->Block);
  return {ActiveScope->FreshCounter, It == Next.end() ? 0 : It->second};
}

void VarPool::rewindFresh(const FreshMark &M) {
  if (ActiveScope == nullptr)
    return;
  ActiveScope->FreshCounter = M.Counter;
  Session *S = ActiveSession;
  std::lock_guard<std::mutex> L(S != nullptr ? S->Mu : Mu);
  std::map<VarId, std::string> &Ns = S != nullptr ? S->Names : Names;
  std::map<std::string, VarId> &Ix = S != nullptr ? S->Index : Index;
  uint32_t &Next =
      (S != nullptr ? S->BlockNext : BlockNext)[ActiveScope->Block];
  // The block is the scope's alone, so this thread allocated every id
  // past the mark.
  VarId Start = blockStart(ActiveScope->Block);
  for (auto It = Ns.lower_bound(Start + M.Next);
       It != Ns.end() && It->first < Start + Next;) {
    Ix.erase(It->second);
    It = Ns.erase(It);
  }
  Next = M.Next;
}

const std::string &VarPool::name(VarId Id) const {
  if (Session *S = ActiveSession) {
    std::lock_guard<std::mutex> L(S->Mu);
    auto It = S->Names.find(Id);
    if (It != S->Names.end())
      return It->second;
    // Not a session id: fall through to the shared table (permanent
    // variables interned before any session existed).
  }
  std::lock_guard<std::mutex> L(Mu);
  auto It = Names.find(Id);
  assert(It != Names.end() && "unknown VarId");
  return It->second;
}

size_t VarPool::size() const {
  std::lock_guard<std::mutex> L(Mu);
  return Names.size();
}

VarId tnt::mkVar(const std::string &Name) {
  return VarPool::get().intern(Name);
}

VarId tnt::freshVar(const std::string &Base) {
  return VarPool::get().fresh(Base);
}

const std::string &tnt::varName(VarId Id) { return VarPool::get().name(Id); }
