//===- arith/LinExpr.cpp --------------------------------------*- C++ -*-===//

#include "arith/LinExpr.h"

#include "support/Rational.h"

#include <cassert>

using namespace tnt;

LinExpr LinExpr::var(VarId V, int64_t Coeff) {
  LinExpr E;
  if (Coeff != 0)
    E.Coeffs[V] = Coeff;
  return E;
}

int64_t LinExpr::coeff(VarId V) const {
  auto It = Coeffs.find(V);
  return It == Coeffs.end() ? 0 : It->second;
}

LinExpr LinExpr::operator+(const LinExpr &O) const {
  LinExpr R = *this;
  R.Const += O.Const;
  for (const auto &[V, C] : O.Coeffs) {
    int64_t &Slot = R.Coeffs[V];
    Slot += C;
    if (Slot == 0)
      R.Coeffs.erase(V);
  }
  return R;
}

LinExpr LinExpr::operator-(const LinExpr &O) const { return *this + (-O); }

LinExpr LinExpr::operator-() const {
  LinExpr R;
  R.Const = -Const;
  for (const auto &[V, C] : Coeffs)
    R.Coeffs[V] = -C;
  return R;
}

LinExpr LinExpr::operator*(int64_t K) const {
  LinExpr R;
  if (K == 0)
    return R;
  R.Const = Const * K;
  for (const auto &[V, C] : Coeffs)
    R.Coeffs[V] = C * K;
  return R;
}

bool LinExpr::operator<(const LinExpr &O) const {
  if (Const != O.Const)
    return Const < O.Const;
  return Coeffs < O.Coeffs;
}

LinExpr LinExpr::substitute(VarId V, const LinExpr &Repl) const {
  auto It = Coeffs.find(V);
  if (It == Coeffs.end())
    return *this;
  int64_t C = It->second;
  LinExpr R = *this;
  R.Coeffs.erase(V);
  return R + Repl * C;
}

LinExpr LinExpr::rename(const std::map<VarId, VarId> &Renaming) const {
  LinExpr R;
  R.Const = Const;
  for (const auto &[V, C] : Coeffs) {
    auto It = Renaming.find(V);
    VarId NV = It == Renaming.end() ? V : It->second;
    int64_t &Slot = R.Coeffs[NV];
    Slot += C;
    if (Slot == 0)
      R.Coeffs.erase(NV);
  }
  return R;
}

void LinExpr::collectVars(std::set<VarId> &Out) const {
  for (const auto &[V, C] : Coeffs) {
    (void)C;
    Out.insert(V);
  }
}

int64_t LinExpr::coeffGcd() const {
  int64_t G = 0;
  for (const auto &[V, C] : Coeffs) {
    (void)V;
    G = gcd64(G, C);
  }
  return G;
}

int64_t LinExpr::eval(const std::map<VarId, int64_t> &Assign) const {
  // Each product fits in 127 bits. A running sum that would leave 128
  // bits is pinned at a bound far beyond int64 in its direction.
  const __int128 Pin = static_cast<__int128>(1) << 126;
  __int128 Sum = Const;
  for (const auto &[V, C] : Coeffs) {
    auto It = Assign.find(V);
    int64_t Val = It == Assign.end() ? 0 : It->second;
    __int128 Term = static_cast<__int128>(C) * Val;
    if (__builtin_add_overflow(Sum, Term, &Sum))
      Sum = Term < 0 ? -Pin : Pin;
  }
  if (Sum > INT64_MAX)
    return INT64_MAX;
  if (Sum < INT64_MIN)
    return INT64_MIN;
  return static_cast<int64_t>(Sum);
}

LinExpr tnt::substParallelExpr(const LinExpr &E,
                               const std::vector<VarId> &Params,
                               const std::vector<LinExpr> &Args) {
  assert(Params.size() == Args.size() && "parallel substitution arity");
  LinExpr Out(E.constant());
  for (const auto &[V, C] : E.coeffs()) {
    size_t J = 0;
    for (; J < Params.size(); ++J)
      if (Params[J] == V)
        break;
    if (J < Params.size())
      Out = Out + Args[J] * C;
    else
      Out = Out + LinExpr::var(V, C);
  }
  return Out;
}

size_t LinExpr::hashValue() const {
  // FNV-1a style mixing over the sorted sparse form; deterministic
  // within a process (depends only on VarIds and coefficients).
  uint64_t H = 1469598103934665603ull;
  auto mix = [&H](uint64_t V) {
    H ^= V;
    H *= 1099511628211ull;
  };
  mix(static_cast<uint64_t>(Const));
  for (const auto &[V, C] : Coeffs) {
    mix(V);
    mix(static_cast<uint64_t>(C));
  }
  return static_cast<size_t>(H);
}

std::string LinExpr::str() const {
  if (Coeffs.empty())
    return std::to_string(Const);
  std::string Out;
  bool First = true;
  for (const auto &[V, C] : Coeffs) {
    assert(C != 0 && "sparse invariant violated");
    if (First) {
      if (C == -1)
        Out += "-";
      else if (C != 1)
        Out += std::to_string(C) + "*";
    } else if (C > 0) {
      Out += " + ";
      if (C != 1)
        Out += std::to_string(C) + "*";
    } else {
      Out += " - ";
      if (C != -1)
        Out += std::to_string(-C) + "*";
    }
    Out += varName(V);
    First = false;
  }
  if (Const > 0)
    Out += " + " + std::to_string(Const);
  else if (Const < 0)
    Out += " - " + std::to_string(-Const);
  return Out;
}
