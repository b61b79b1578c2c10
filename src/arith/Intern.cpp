//===- arith/Intern.cpp ---------------------------------------*- C++ -*-===//

#include "arith/Intern.h"

#include <algorithm>
#include <unordered_set>

using namespace tnt;

namespace {

/// Approximate payload bytes of one interned node: the node itself, its
/// bookkeeping (arena unique_ptr + bucket-chain pointer + heap header),
/// and the dynamic payload. Map nodes are costed at a flat 48 bytes
/// (key + value + three pointers + color on a typical libstdc++ node).
/// Deterministic — a function of the value's shape only — so it can
/// serve as the soak tests' RSS proxy.
constexpr size_t SlotOverhead = 3 * sizeof(void *);
constexpr size_t MapNodeBytes = 48;

size_t approxBytes(const FormulaNode &N) {
  return sizeof(FormulaNode) + N.Children.size() * sizeof(Formula) +
         N.Bound.size() * sizeof(VarId) +
         N.Atom.expr().coeffs().size() * MapNodeBytes + SlotOverhead;
}

} // namespace

ArithIntern &ArithIntern::global() {
  static ArithIntern I;
  return I;
}

const FormulaNode *ArithIntern::formula(const FormulaNode &N) {
  std::lock_guard<std::mutex> L(Mu);
  std::vector<const FormulaNode *> &Chain = Buckets[N.hashValue()];
  for (const FormulaNode *P : Chain)
    if (*P == N)
      return P;
  const FormulaNode *P;
  if (EpochsOn) {
    Mortal.push_back(std::make_unique<FormulaNode>(N));
    P = Mortal.back().get();
  } else {
    Permanent.push_back(N);
    P = &Permanent.back();
  }
  Chain.push_back(P);
  Bytes += approxBytes(*P);
  return P;
}

size_t ArithIntern::formulaCount() const {
  std::lock_guard<std::mutex> L(Mu);
  return Permanent.size() + Mortal.size();
}

void ArithIntern::beginEpochs() {
  // Pin the constant singletons BEFORE flipping the mode: Formula::top
  // and Formula::bottom cache interned nodes in function-local statics,
  // and interning them now (outside the lock — they intern through this
  // table) lands them in the permanent generation.
  (void)Formula::top();
  (void)Formula::bottom();
  std::lock_guard<std::mutex> L(Mu);
  if (EpochsOn)
    return;
  EpochsOn = true;
  Gen = 1;
}

bool ArithIntern::epochsEnabled() const {
  std::lock_guard<std::mutex> L(Mu);
  return EpochsOn;
}

uint32_t ArithIntern::generation() const {
  std::lock_guard<std::mutex> L(Mu);
  return Gen;
}

ReclaimStats ArithIntern::reclaim() {
  std::lock_guard<std::mutex> L(Mu);
  ReclaimStats S;
  if (!EpochsOn)
    return S;
  S.Generation = Gen;
  S.BytesBefore = Bytes;
  // Empty the mortal arena and scrub its nodes out of the bucket chains.
  std::unordered_set<const FormulaNode *> Dying;
  for (const std::unique_ptr<FormulaNode> &N : Mortal) {
    Dying.insert(N.get());
    Bytes -= approxBytes(*N);
  }
  S.FormulasDropped = Dying.size();
  Mortal.clear();
  if (!Dying.empty()) {
    for (auto It = Buckets.begin(); It != Buckets.end();) {
      std::vector<const FormulaNode *> &Chain = It->second;
      Chain.erase(std::remove_if(Chain.begin(), Chain.end(),
                                 [&](const FormulaNode *P) {
                                   return Dying.count(P) != 0;
                                 }),
                  Chain.end());
      if (Chain.empty())
        It = Buckets.erase(It);
      else
        ++It;
    }
  }
  S.BytesAfter = Bytes;
  ++Gen;
  return S;
}

size_t ArithIntern::arenaBytes() const {
  std::lock_guard<std::mutex> L(Mu);
  return Bytes;
}

size_t ArithIntern::mortalCount() const {
  std::lock_guard<std::mutex> L(Mu);
  return Mortal.size();
}
