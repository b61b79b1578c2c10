//===- support/Rational.h - Exact rational arithmetic ----------*- C++ -*-===//
//
// Part of the hiptntpp project: a reproduction of "Termination and
// Non-Termination Specification Inference" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact rational numbers over 64-bit numerator/denominator, and the
/// thread's overflow flag that all exact int64 arithmetic here shares.
/// `Rational` is the input and output type of the Farkas encoding and the
/// simplex LP, not the LP's inner loop: the tableau is fraction-free
/// int64 (simplex/Simplex.cpp). Overflow is a value, not a crash and not
/// a truncation: see OverflowScope.
///
//===----------------------------------------------------------------------===//

#ifndef TNT_SUPPORT_RATIONAL_H
#define TNT_SUPPORT_RATIONAL_H

#include <cassert>
#include <cstdint>
#include <string>

namespace tnt {

/// An exact rational number kept in lowest terms with a positive
/// denominator. Every result is exact: an operation whose exact result
/// does not fit in 64 bits raises this thread's overflow flag (see
/// OverflowScope) and returns 0, as does a division by zero or by a
/// number with numerator INT64_MIN (its reciprocal does not fit). This
/// holds in every build type.
class Rational {
public:
  Rational() : Num(0), Den(1) {}
  Rational(int64_t N) : Num(N), Den(1) {}
  Rational(int64_t N, int64_t D);

  int64_t num() const { return Num; }
  int64_t den() const { return Den; }

  bool isZero() const { return Num == 0; }
  bool isNeg() const { return Num < 0; }
  bool isPos() const { return Num > 0; }
  bool isInt() const { return Den == 1; }

  /// Returns the integer value; only valid when isInt().
  int64_t asInt() const {
    assert(Den == 1 && "asInt on non-integer rational");
    return Num;
  }

  // Integer operands take the overflow-checked machine operation; the
  // rest, and integer overflow, go to the general out-of-line routine.
  Rational operator+(const Rational &O) const {
    int64_t N;
    if (Den == 1 && O.Den == 1 && !__builtin_add_overflow(Num, O.Num, &N))
      return Rational(N);
    return add(O, /*Negate=*/false);
  }
  Rational operator-(const Rational &O) const {
    int64_t N;
    if (Den == 1 && O.Den == 1 && !__builtin_sub_overflow(Num, O.Num, &N))
      return Rational(N);
    return add(O, /*Negate=*/true);
  }
  Rational operator*(const Rational &O) const {
    int64_t N;
    if (Den == 1 && O.Den == 1 && !__builtin_mul_overflow(Num, O.Num, &N))
      return Rational(N);
    return mul(O);
  }
  Rational operator/(const Rational &O) const;
  Rational operator-() const;

  Rational &operator+=(const Rational &O) { return *this = *this + O; }
  Rational &operator-=(const Rational &O) { return *this = *this - O; }
  Rational &operator*=(const Rational &O) { return *this = *this * O; }
  Rational &operator/=(const Rational &O) { return *this = *this / O; }

  bool operator==(const Rational &O) const {
    return Num == O.Num && Den == O.Den;
  }
  bool operator!=(const Rational &O) const { return !(*this == O); }
  bool operator<(const Rational &O) const;
  bool operator<=(const Rational &O) const;
  bool operator>(const Rational &O) const { return O < *this; }
  bool operator>=(const Rational &O) const { return O <= *this; }

  /// Largest integer <= this.
  int64_t floor() const;
  /// Smallest integer >= this.
  int64_t ceil() const;

  std::string str() const;

private:
  /// Adopts N/D as is; the caller guarantees lowest terms and D > 0.
  static Rational canonical(int64_t N, int64_t D) {
    Rational R;
    R.Num = N;
    R.Den = D;
    return R;
  }
  Rational add(const Rational &O, bool Negate) const;
  Rational mul(const Rational &O) const;

  int64_t Num;
  int64_t Den;
};

/// The overflow flag of this thread's 64-bit exact arithmetic, in the
/// manner of the floating-point environment's sticky FE_OVERFLOW: an
/// operation that cannot return its exact result raises the flag and
/// returns a documented placeholder instead. A scope clears the flag for
/// its extent and merges it back into the enclosing scope's on exit, so
/// scopes nest and a caller asks only about its own operations.
class OverflowScope {
public:
  OverflowScope();
  ~OverflowScope();
  OverflowScope(const OverflowScope &) = delete;
  OverflowScope &operator=(const OverflowScope &) = delete;

  /// True iff an operation on this thread overflowed since the scope
  /// was entered.
  bool overflowed() const;

private:
  bool Outer;
};

/// Raises this thread's overflow flag. For exact int64 arithmetic done
/// outside Rational, such as the simplex tableau's checked steps, whose
/// result does not fit.
void raiseOverflow();

/// Greatest common divisor of the absolute values; gcd(0,0) == 0. The
/// one result int64 cannot hold, 2^63, raises the overflow flag and
/// returns 1 (a common divisor, so a caller that divides stays exact).
int64_t gcd64(int64_t A, int64_t B);
/// Least common multiple of the absolute values; lcm(0, x) == 0. A
/// result beyond int64 raises the overflow flag and returns 0.
int64_t lcm64(int64_t A, int64_t B);

/// Euclidean floor division (rounds toward negative infinity). The one
/// quotient int64 cannot hold, INT64_MIN / -1, raises the overflow flag
/// and returns 0; so does ceilDiv.
int64_t floorDiv(int64_t A, int64_t B);
/// Euclidean ceiling division (rounds toward positive infinity).
int64_t ceilDiv(int64_t A, int64_t B);
/// Non-negative remainder of A modulo B (B > 0).
int64_t floorMod(int64_t A, int64_t B);

/// The symmetric ("hat") modulo of the Omega test: a value congruent to
/// A mod B in the interval (-B/2, B/2].
int64_t hatMod(int64_t A, int64_t B);

} // namespace tnt

#endif // TNT_SUPPORT_RATIONAL_H
