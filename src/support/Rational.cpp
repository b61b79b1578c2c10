//===- support/Rational.cpp -----------------------------------*- C++ -*-===//

#include "support/Rational.h"

#include <utility>

using namespace tnt;

namespace {

thread_local bool Overflowed = false;

uint64_t absU(int64_t V) {
  return V < 0 ? 0 - static_cast<uint64_t>(V) : static_cast<uint64_t>(V);
}

bool fitsI64(__int128 V) { return V >= INT64_MIN && V <= INT64_MAX; }

/// Binary (Stein) gcd; gcdU(0, 0) == 0.
uint64_t gcdU(uint64_t A, uint64_t B) {
  if (A == 0)
    return B;
  if (B == 0)
    return A;
  int Shift = __builtin_ctzll(A | B);
  A >>= __builtin_ctzll(A);
  do {
    B >>= __builtin_ctzll(B);
    if (A > B)
      std::swap(A, B);
    B -= A;
  } while (B != 0);
  return A << Shift;
}

} // namespace

OverflowScope::OverflowScope() : Outer(Overflowed) { Overflowed = false; }

OverflowScope::~OverflowScope() { Overflowed = Overflowed || Outer; }

bool OverflowScope::overflowed() const { return Overflowed; }

int64_t tnt::gcd64(int64_t A, int64_t B) {
  uint64_t G = gcdU(absU(A), absU(B));
  if (G > INT64_MAX) {
    Overflowed = true;
    return 1;
  }
  return static_cast<int64_t>(G);
}

int64_t tnt::lcm64(int64_t A, int64_t B) {
  if (A == 0 || B == 0)
    return 0;
  uint64_t UA = absU(A), UB = absU(B), L;
  if (__builtin_mul_overflow(UA / gcdU(UA, UB), UB, &L) || L > INT64_MAX) {
    Overflowed = true;
    return 0;
  }
  return static_cast<int64_t>(L);
}

int64_t tnt::floorDiv(int64_t A, int64_t B) {
  assert(B != 0 && "division by zero");
  if (A == INT64_MIN && B == -1) {
    Overflowed = true;
    return 0;
  }
  int64_t Q = A / B;
  if ((A % B != 0) && ((A < 0) != (B < 0)))
    --Q;
  return Q;
}

int64_t tnt::ceilDiv(int64_t A, int64_t B) {
  assert(B != 0 && "division by zero");
  if (A == INT64_MIN && B == -1) {
    Overflowed = true;
    return 0;
  }
  int64_t Q = A / B;
  if ((A % B != 0) && ((A < 0) == (B < 0)))
    ++Q;
  return Q;
}

int64_t tnt::floorMod(int64_t A, int64_t B) {
  assert(B > 0 && "floorMod needs a positive modulus");
  int64_t R = A - floorDiv(A, B) * B;
  assert(R >= 0 && "floorMod must be non-negative");
  return R;
}

int64_t tnt::hatMod(int64_t A, int64_t B) {
  assert(B > 0 && "hatMod needs a positive modulus");
  int64_t R = floorMod(A, B);
  // Shift into (-B/2, B/2]. The Omega test's equality elimination relies
  // on |hatMod(A,B)| <= B/2 to shrink coefficients geometrically.
  if (2 * R > B)
    R -= B;
  return R;
}

Rational::Rational(int64_t N, int64_t D) : Num(0), Den(1) {
  if (D == 0) {
    Overflowed = true;
    return;
  }
  // Reduce the magnitudes first, then apply the sign: -INT64_MIN is not
  // an int64, but its magnitude is a uint64.
  uint64_t UN = absU(N), UD = absU(D);
  uint64_t G = gcdU(UN, UD);
  UN /= G;
  UD /= G;
  bool Neg = (N < 0) != (D < 0);
  if (UD > INT64_MAX || UN > (Neg ? absU(INT64_MIN) : uint64_t(INT64_MAX))) {
    Overflowed = true;
    return;
  }
  Num = Neg ? static_cast<int64_t>(0 - UN) : static_cast<int64_t>(UN);
  Den = static_cast<int64_t>(UD);
}

Rational Rational::add(const Rational &O, bool Negate) const {
  // Knuth, TAOCP 4.5.1: with g = gcd(b, d) and t = a*(d/g) + c*(b/g),
  // a/b + c/d = (t/g2) / ((b/g) * (d/g2)) in lowest terms, where
  // g2 = gcd(t, g). Both gcds run on 64-bit words; t is at most 127 bits.
  __int128 C = Negate ? -static_cast<__int128>(O.Num) : O.Num;
  int64_t G = static_cast<int64_t>(gcdU(Den, O.Den));
  __int128 T = static_cast<__int128>(Num) * (O.Den / G) + C * (Den / G);
  if (T == 0)
    return Rational();
  int64_t G2 = 1;
  if (G != 1) {
    uint64_t TModG = fitsI64(T) ? absU(static_cast<int64_t>(T)) % G
                                : static_cast<uint64_t>((T < 0 ? -T : T) % G);
    G2 = static_cast<int64_t>(gcdU(TModG, G));
  }
  if (G2 != 1)
    T = fitsI64(T) ? static_cast<int64_t>(T) / G2 : T / G2;
  int64_t D;
  if (!fitsI64(T) || __builtin_mul_overflow(Den / G, O.Den / G2, &D)) {
    Overflowed = true;
    return Rational();
  }
  return canonical(static_cast<int64_t>(T), D);
}

Rational Rational::mul(const Rational &O) const {
  if (Num == 0 || O.Num == 0)
    return Rational();
  // Cross-reduce. With both operands in lowest terms the cross-reduced
  // product is in lowest terms too, so it needs no further gcd.
  int64_t G1 = static_cast<int64_t>(gcdU(absU(Num), O.Den));
  int64_t G2 = static_cast<int64_t>(gcdU(absU(O.Num), Den));
  int64_t N, D;
  if (__builtin_mul_overflow(Num / G1, O.Num / G2, &N) ||
      __builtin_mul_overflow(Den / G2, O.Den / G1, &D)) {
    Overflowed = true;
    return Rational();
  }
  return canonical(N, D);
}

Rational Rational::operator/(const Rational &O) const {
  // Multiply by the reciprocal, moving its sign to the numerator. The
  // reciprocal of INT64_MIN/d would need the denominator 2^63, so that
  // divisor raises the flag like a zero one.
  if (O.Num == 0 || O.Num == INT64_MIN) {
    Overflowed = true;
    return Rational();
  }
  return *this * (O.Num > 0 ? canonical(O.Den, O.Num)
                            : canonical(-O.Den, -O.Num));
}

Rational Rational::operator-() const {
  if (Num == INT64_MIN) {
    Overflowed = true;
    return Rational();
  }
  return canonical(-Num, Den);
}

bool Rational::operator<(const Rational &O) const {
  if (Den == O.Den)
    return Num < O.Num;
  return static_cast<__int128>(Num) * O.Den <
         static_cast<__int128>(O.Num) * Den;
}

bool Rational::operator<=(const Rational &O) const {
  if (Den == O.Den)
    return Num <= O.Num;
  return static_cast<__int128>(Num) * O.Den <=
         static_cast<__int128>(O.Num) * Den;
}

int64_t Rational::floor() const { return floorDiv(Num, Den); }

int64_t Rational::ceil() const { return ceilDiv(Num, Den); }

std::string Rational::str() const {
  if (Den == 1)
    return std::to_string(Num);
  return std::to_string(Num) + "/" + std::to_string(Den);
}
