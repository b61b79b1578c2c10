//===- arith/Intern.cpp ---------------------------------------*- C++ -*-===//

#include "arith/Intern.h"

#include <algorithm>
#include <unordered_set>

using namespace tnt;

namespace {

/// Approximate payload bytes of one interned entry: the entry itself,
/// its bookkeeping (arena unique_ptr + bucket-chain pointer + heap
/// header), and the dynamic payload. Map nodes are costed at a flat 48
/// bytes (key + value + three pointers + color on a typical libstdc++
/// node). Deterministic — a function of the value's shape only — so it
/// can serve as the soak tests' RSS proxy.
constexpr size_t SlotOverhead = 3 * sizeof(void *);
constexpr size_t MapNodeBytes = 48;

size_t approxBytes(const LinExpr &E) {
  return sizeof(LinExpr) + E.coeffs().size() * MapNodeBytes + SlotOverhead;
}

size_t approxBytes(const Constraint &C) {
  return sizeof(Constraint) + C.expr().coeffs().size() * MapNodeBytes +
         SlotOverhead;
}

size_t approxBytes(const FormulaNode &N) {
  return sizeof(FormulaNode) + N.Children.size() * sizeof(Formula) +
         N.Bound.size() * sizeof(VarId) +
         N.Atom.expr().coeffs().size() * MapNodeBytes + SlotOverhead;
}

} // namespace

template <typename T>
const T *ArithIntern::Table<T>::intern(const T &V, bool Epochal) {
  size_t H = V.hashValue();
  std::vector<const T *> &Chain = Buckets[H];
  for (const T *P : Chain)
    if (*P == V)
      return P;
  const T *P;
  if (Epochal) {
    Mortal.push_back(std::make_unique<T>(V));
    P = Mortal.back().get();
  } else {
    Permanent.push_back(V);
    P = &Permanent.back();
  }
  Chain.push_back(P);
  Bytes += approxBytes(*P);
  return P;
}

namespace {

/// Empties a table's mortal arena and scrubs its entries out of the
/// bucket chains.
template <typename Tbl> void sweepTable(Tbl &T, size_t &DroppedN) {
  std::unordered_set<const void *> Dying;
  for (auto &S : T.Mortal) {
    Dying.insert(S.get());
    T.Bytes -= approxBytes(*S);
  }
  DroppedN += Dying.size();
  T.Mortal.clear();
  if (Dying.empty())
    return;
  for (auto It = T.Buckets.begin(); It != T.Buckets.end();) {
    auto &Chain = It->second;
    Chain.erase(std::remove_if(
                    Chain.begin(), Chain.end(),
                    [&](const void *P) { return Dying.count(P) != 0; }),
                Chain.end());
    if (Chain.empty())
      It = T.Buckets.erase(It);
    else
      ++It;
  }
}

} // namespace

ArithIntern &ArithIntern::global() {
  static ArithIntern I;
  return I;
}

const LinExpr *ArithIntern::expr(const LinExpr &E) {
  std::lock_guard<std::mutex> L(Mu);
  return Exprs.intern(E, EpochsOn);
}

const Constraint *ArithIntern::constraint(const Constraint &C) {
  std::lock_guard<std::mutex> L(Mu);
  return Constraints.intern(C, EpochsOn);
}

void ArithIntern::constraints(const ConstraintConj &Conj,
                              std::vector<const Constraint *> &Out) {
  std::lock_guard<std::mutex> L(Mu);
  for (const Constraint &C : Conj)
    Out.push_back(Constraints.intern(C, EpochsOn));
}

const FormulaNode *ArithIntern::formula(const FormulaNode &N) {
  std::lock_guard<std::mutex> L(Mu);
  return Formulas.intern(N, EpochsOn);
}

size_t ArithIntern::formulaCount() const {
  std::lock_guard<std::mutex> L(Mu);
  return Formulas.size();
}

size_t ArithIntern::exprCount() const {
  std::lock_guard<std::mutex> L(Mu);
  return Exprs.size();
}

size_t ArithIntern::constraintCount() const {
  std::lock_guard<std::mutex> L(Mu);
  return Constraints.size();
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
  S.BytesBefore = Exprs.Bytes + Constraints.Bytes + Formulas.Bytes;
  sweepTable(Exprs, S.ExprsDropped);
  sweepTable(Constraints, S.ConstraintsDropped);
  sweepTable(Formulas, S.FormulasDropped);

  S.BytesAfter = Exprs.Bytes + Constraints.Bytes + Formulas.Bytes;
  ++Gen;
  return S;
}

size_t ArithIntern::arenaBytes() const {
  std::lock_guard<std::mutex> L(Mu);
  return Exprs.Bytes + Constraints.Bytes + Formulas.Bytes;
}

size_t ArithIntern::mortalCount() const {
  std::lock_guard<std::mutex> L(Mu);
  return Exprs.Mortal.size() + Constraints.Mortal.size() +
         Formulas.Mortal.size();
}

InternedConj tnt::internConj(const ConstraintConj &Conj) {
  InternedConj Out;
  Out.reserve(Conj.size());
  ArithIntern::global().constraints(Conj, Out);
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}
