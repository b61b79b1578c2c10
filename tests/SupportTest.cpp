//===- tests/SupportTest.cpp - support layer unit tests --------*- C++ -*-===//

#include "support/Diagnostics.h"
#include "support/ExtNat.h"
#include "support/Json.h"
#include "support/Rational.h"

#include <gtest/gtest.h>

#include <random>

using namespace tnt;

//===----------------------------------------------------------------------===//
// Integer helpers
//===----------------------------------------------------------------------===//

TEST(Gcd, Basics) {
  EXPECT_EQ(gcd64(12, 18), 6);
  EXPECT_EQ(gcd64(-12, 18), 6);
  EXPECT_EQ(gcd64(12, -18), 6);
  EXPECT_EQ(gcd64(0, 5), 5);
  EXPECT_EQ(gcd64(5, 0), 5);
  EXPECT_EQ(gcd64(0, 0), 0);
  EXPECT_EQ(gcd64(7, 13), 1);
}

TEST(Lcm, Basics) {
  EXPECT_EQ(lcm64(4, 6), 12);
  EXPECT_EQ(lcm64(-4, 6), 12);
  EXPECT_EQ(lcm64(0, 6), 0);
  EXPECT_EQ(lcm64(7, 13), 91);
}

TEST(FloorDiv, RoundsTowardNegInfinity) {
  EXPECT_EQ(floorDiv(7, 2), 3);
  EXPECT_EQ(floorDiv(-7, 2), -4);
  EXPECT_EQ(floorDiv(7, -2), -4);
  EXPECT_EQ(floorDiv(-7, -2), 3);
  EXPECT_EQ(floorDiv(6, 3), 2);
  EXPECT_EQ(floorDiv(-6, 3), -2);
}

TEST(CeilDiv, RoundsTowardPosInfinity) {
  EXPECT_EQ(ceilDiv(7, 2), 4);
  EXPECT_EQ(ceilDiv(-7, 2), -3);
  EXPECT_EQ(ceilDiv(7, -2), -3);
  EXPECT_EQ(ceilDiv(-7, -2), 4);
}

TEST(FloorMod, NonNegative) {
  EXPECT_EQ(floorMod(7, 3), 1);
  EXPECT_EQ(floorMod(-7, 3), 2);
  EXPECT_EQ(floorMod(6, 3), 0);
  EXPECT_EQ(floorMod(-6, 3), 0);
}

TEST(HatMod, SymmetricInterval) {
  // hatMod(a, b) is congruent to a mod b and lies in (-b/2, b/2].
  for (int64_t A = -20; A <= 20; ++A) {
    for (int64_t B = 2; B <= 9; ++B) {
      int64_t H = hatMod(A, B);
      EXPECT_EQ(floorMod(H - A, B), 0) << A << " mod " << B;
      EXPECT_GT(2 * H, -B) << A << " mod " << B;
      EXPECT_LE(2 * H, B) << A << " mod " << B;
    }
  }
}

TEST(HatMod, UnitCoefficientProperty) {
  // For |a| = m-1: hatMod(a, m) == -sign(a); the modulus trick of the
  // Omega test relies on this.
  for (int64_t M = 3; M <= 12; ++M) {
    EXPECT_EQ(hatMod(M - 1, M), -1);
    EXPECT_EQ(hatMod(-(M - 1), M), 1);
  }
}

//===----------------------------------------------------------------------===//
// Rational
//===----------------------------------------------------------------------===//

TEST(Rational, NormalizationAndSign) {
  Rational R(6, -4);
  EXPECT_EQ(R.num(), -3);
  EXPECT_EQ(R.den(), 2);
  EXPECT_TRUE(R.isNeg());
  EXPECT_EQ(Rational(0, 7), Rational(0));
}

TEST(Rational, Arithmetic) {
  Rational Half(1, 2), Third(1, 3);
  EXPECT_EQ(Half + Third, Rational(5, 6));
  EXPECT_EQ(Half - Third, Rational(1, 6));
  EXPECT_EQ(Half * Third, Rational(1, 6));
  EXPECT_EQ(Half / Third, Rational(3, 2));
  EXPECT_EQ(-Half, Rational(-1, 2));
}

TEST(Rational, Comparisons) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LE(Rational(2, 4), Rational(1, 2));
  EXPECT_GT(Rational(-1, 3), Rational(-1, 2));
  EXPECT_TRUE(Rational(3, 6) == Rational(1, 2));
}

TEST(Rational, FloorCeil) {
  EXPECT_EQ(Rational(7, 2).floor(), 3);
  EXPECT_EQ(Rational(7, 2).ceil(), 4);
  EXPECT_EQ(Rational(-7, 2).floor(), -4);
  EXPECT_EQ(Rational(-7, 2).ceil(), -3);
  EXPECT_EQ(Rational(4).floor(), 4);
  EXPECT_EQ(Rational(4).ceil(), 4);
}

TEST(Rational, Str) {
  EXPECT_EQ(Rational(3).str(), "3");
  EXPECT_EQ(Rational(-3, 2).str(), "-3/2");
}

//===----------------------------------------------------------------------===//
// Overflow at the int64 edges: exact when the result fits, flagged when not
//===----------------------------------------------------------------------===//

namespace {

/// Runs \p Op in a fresh scope; true iff it raised the overflow flag and
/// returned the placeholder 0.
template <typename F> bool overflows(F Op) {
  OverflowScope S;
  Rational R = Op();
  return S.overflowed() && R.isZero();
}

} // namespace

TEST(Gcd, Int64Edges) {
  OverflowScope S;
  EXPECT_EQ(gcd64(INT64_MIN, 6), 2);
  EXPECT_EQ(gcd64(6, INT64_MIN), 2);
  EXPECT_EQ(gcd64(INT64_MIN, INT64_MAX), 1);
  EXPECT_EQ(gcd64(INT64_MAX, 0), INT64_MAX);
  EXPECT_EQ(gcd64(INT64_MIN + 1, 0), INT64_MAX);
  EXPECT_FALSE(S.overflowed());
  // 2^63 is the one gcd int64 cannot hold: flagged, and 1 (a common
  // divisor) comes back.
  EXPECT_EQ(gcd64(INT64_MIN, 0), 1);
  EXPECT_TRUE(S.overflowed());
}

TEST(Lcm, Int64Edges) {
  {
    OverflowScope S;
    EXPECT_EQ(lcm64(INT64_MAX, 1), INT64_MAX);
    EXPECT_EQ(lcm64(INT64_MIN + 1, -1), INT64_MAX);
    EXPECT_EQ(lcm64(int64_t(1) << 62, int64_t(1) << 61), int64_t(1) << 62);
    EXPECT_FALSE(S.overflowed());
  }
  for (auto [A, B] : {std::pair<int64_t, int64_t>{INT64_MAX, 2},
                      {INT64_MIN, 1},
                      {INT64_MIN, INT64_MIN},
                      {(int64_t(1) << 62) + 1, 3}}) {
    OverflowScope S;
    EXPECT_EQ(lcm64(A, B), 0) << A << " " << B;
    EXPECT_TRUE(S.overflowed()) << A << " " << B;
  }
}

TEST(FloorDiv, Int64Edges) {
  {
    OverflowScope S;
    EXPECT_EQ(floorDiv(INT64_MIN, 1), INT64_MIN);
    EXPECT_EQ(floorDiv(INT64_MIN, 2), INT64_MIN / 2);
    EXPECT_EQ(floorDiv(INT64_MIN, INT64_MIN), 1);
    EXPECT_EQ(floorDiv(INT64_MIN + 1, -1), INT64_MAX);
    EXPECT_EQ(floorDiv(INT64_MAX, -1), -INT64_MAX);
    EXPECT_EQ(floorDiv(INT64_MAX, INT64_MIN), -1);
    EXPECT_EQ(floorDiv(-1, INT64_MIN), 0);
    EXPECT_FALSE(S.overflowed());
  }
  // -INT64_MIN is the one quotient int64 cannot hold: flagged, and the
  // placeholder 0 comes back instead of a SIGFPE.
  OverflowScope S;
  EXPECT_EQ(floorDiv(INT64_MIN, -1), 0);
  EXPECT_TRUE(S.overflowed());
}

TEST(CeilDiv, Int64Edges) {
  {
    OverflowScope S;
    EXPECT_EQ(ceilDiv(INT64_MIN, 1), INT64_MIN);
    EXPECT_EQ(ceilDiv(INT64_MIN, INT64_MIN), 1);
    EXPECT_EQ(ceilDiv(INT64_MIN + 1, -1), INT64_MAX);
    EXPECT_EQ(ceilDiv(INT64_MAX, 2), INT64_MAX / 2 + 1);
    EXPECT_EQ(ceilDiv(INT64_MAX, INT64_MIN), 0);
    EXPECT_EQ(ceilDiv(-1, INT64_MIN), 1);
    EXPECT_FALSE(S.overflowed());
  }
  OverflowScope S;
  EXPECT_EQ(ceilDiv(INT64_MIN, -1), 0);
  EXPECT_TRUE(S.overflowed());
}

TEST(Rational, Int64EdgesExact) {
  OverflowScope S;
  const int64_t P62 = int64_t(1) << 62;
  EXPECT_EQ(Rational(INT64_MIN, 2), Rational(-P62));
  EXPECT_EQ(Rational(INT64_MIN, INT64_MIN), Rational(1));
  EXPECT_EQ(Rational(2, INT64_MIN), Rational(-1, P62));
  EXPECT_EQ(Rational(INT64_MIN).num(), INT64_MIN);
  EXPECT_EQ(Rational(INT64_MAX) + Rational(INT64_MIN), Rational(-1));
  EXPECT_EQ(Rational(INT64_MIN) + Rational(INT64_MAX), Rational(-1));
  EXPECT_EQ(Rational(-1) - Rational(INT64_MAX), Rational(INT64_MIN));
  EXPECT_EQ(Rational(INT64_MAX, 2) * Rational(2), Rational(INT64_MAX));
  EXPECT_EQ(Rational(INT64_MAX - 1, INT64_MAX) + Rational(1, INT64_MAX),
            Rational(1));
  EXPECT_EQ(Rational(INT64_MIN) / Rational(INT64_MAX),
            Rational(INT64_MIN, INT64_MAX));
  EXPECT_EQ(Rational(INT64_MIN) / Rational(-2), Rational(P62));
  EXPECT_LT(Rational(INT64_MIN), Rational(INT64_MIN + 1));
  EXPECT_LT(Rational(INT64_MAX - 1, INT64_MAX), Rational(1));
  EXPECT_FALSE(S.overflowed());
}

TEST(Rational, Int64EdgesOverflow) {
  EXPECT_TRUE(overflows([] { return -Rational(INT64_MIN); }));
  EXPECT_TRUE(overflows([] { return Rational(INT64_MIN, -1); }));
  EXPECT_TRUE(overflows([] { return Rational(1, INT64_MIN); }));
  EXPECT_TRUE(overflows([] { return Rational(INT64_MAX) + Rational(1); }));
  EXPECT_TRUE(overflows([] { return Rational(INT64_MIN) - Rational(1); }));
  EXPECT_TRUE(overflows([] { return Rational(0) - Rational(INT64_MIN); }));
  EXPECT_TRUE(overflows([] { return Rational(INT64_MAX) * Rational(2); }));
  EXPECT_TRUE(overflows([] { return Rational(INT64_MIN) * Rational(-1); }));
  EXPECT_TRUE(overflows(
      [] { return Rational(1, INT64_MAX) + Rational(1, INT64_MAX - 1); }));
  EXPECT_TRUE(overflows([] { return Rational(1, 3) * Rational(1, INT64_MAX); }));
  EXPECT_TRUE(overflows([] { return Rational(INT64_MAX) / Rational(1, 2); }));
  // Division multiplies by the reciprocal, which INT64_MIN/d lacks.
  EXPECT_TRUE(overflows([] { return Rational(2) / Rational(INT64_MIN); }));
  EXPECT_TRUE(overflows([] { return Rational(1) / Rational(0); }));
  EXPECT_TRUE(overflows([] { return Rational(1, 0); }));
}

TEST(Rational, OverflowScopesNest) {
  {
    OverflowScope Outer;
    {
      OverflowScope Inner;
      EXPECT_TRUE((Rational(INT64_MAX) + Rational(1)).isZero());
      EXPECT_TRUE(Inner.overflowed());
    }
    // An inner overflow is the outer scope's overflow too...
    EXPECT_TRUE(Outer.overflowed());
    // ...but a scope entered afterwards starts clean.
    OverflowScope Later;
    EXPECT_FALSE(Later.overflowed());
  }
  OverflowScope Fresh;
  EXPECT_FALSE(Fresh.overflowed());
}

namespace {

/// N/D (D > 0) reduced with a 128-bit Euclid loop: the reference the
/// 64-bit fast paths must agree with. False when the reduced fraction
/// does not fit in 64 bits.
bool reduceWide(__int128 N, __int128 D, Rational &Out) {
  if (D < 0) {
    N = -N;
    D = -D;
  }
  __int128 A = N < 0 ? -N : N, B = D;
  while (B != 0) {
    __int128 T = A % B;
    A = B;
    B = T;
  }
  N /= A;
  D /= A;
  if (N < INT64_MIN || N > INT64_MAX || D > INT64_MAX)
    return false;
  Out = Rational(static_cast<int64_t>(N), static_cast<int64_t>(D));
  return true;
}

} // namespace

TEST(Rational, MatchesWideReference) {
  std::mt19937_64 Rng(2015);
  // Magnitudes of every bit length, so both the integer fast paths and
  // the general ones run, near and across the 64-bit edge.
  auto Draw = [&Rng](bool Positive) {
    int Bits = std::uniform_int_distribution<int>(0, 63)(Rng);
    int64_t V = static_cast<int64_t>(Bits == 0 ? 0 : Rng() >> (64 - Bits));
    if (!Positive)
      return (Rng() & 1) ? (V == INT64_MAX ? INT64_MIN : -V) : V;
    return V == 0 ? int64_t(1) : V;
  };
  unsigned Exact = 0, Flagged = 0;
  for (int Round = 0; Round < 20000; ++Round) {
    Rational X(Draw(false), (Round % 3) ? Draw(true) : 1);
    Rational Y(Draw(false), (Round % 5) ? Draw(true) : 1);
    __int128 XN = X.num(), XD = X.den(), YN = Y.num(), YD = Y.den();
    struct Case {
      const char *Op;
      Rational Got;
      bool GotOverflow;
      __int128 N, D;
      bool MustOverflow;
    };
    std::vector<Case> Cases;
    auto Run = [&](const char *Op, auto F, __int128 N, __int128 D,
                   bool MustOverflow) {
      OverflowScope S;
      Rational R = F();
      Cases.push_back({Op, R, S.overflowed(), N, D, MustOverflow});
    };
    Run("+", [&] { return X + Y; }, XN * YD + YN * XD, XD * YD, false);
    Run("-", [&] { return X - Y; }, XN * YD - YN * XD, XD * YD, false);
    Run("*", [&] { return X * Y; }, XN * YN, XD * YD, false);
    if (!Y.isZero())
      Run("/", [&] { return X / Y; }, XN * YD, XD * YN, YN == INT64_MIN);
    for (const Case &C : Cases) {
      Rational Want;
      bool Fits = reduceWide(C.N, C.D, Want) && !C.MustOverflow;
      ASSERT_EQ(C.GotOverflow, !Fits)
          << X.str() << " " << C.Op << " " << Y.str();
      if (Fits)
        ASSERT_EQ(C.Got, Want) << X.str() << " " << C.Op << " " << Y.str();
      else
        ASSERT_TRUE(C.Got.isZero());
      ++(Fits ? Exact : Flagged);
    }
  }
  EXPECT_GT(Exact, 20000u);
  EXPECT_GT(Flagged, 5000u);
}

//===----------------------------------------------------------------------===//
// ExtNat: the N-infinity domain of Section 3
//===----------------------------------------------------------------------===//

TEST(ExtNat, Ordering) {
  ExtNat Zero(0), Five(5), Inf = ExtNat::infinity();
  EXPECT_LT(Zero, Five);
  EXPECT_LT(Five, Inf);
  EXPECT_FALSE(Inf < Inf);
  EXPECT_LE(Inf, Inf);
  EXPECT_TRUE(Inf == ExtNat::infinity());
}

TEST(ExtNat, Addition) {
  EXPECT_EQ(ExtNat(2) + ExtNat(3), ExtNat(5));
  EXPECT_TRUE((ExtNat(2) + ExtNat::infinity()).isInf());
  EXPECT_TRUE((ExtNat::infinity() + ExtNat::infinity()).isInf());
}

TEST(ExtNat, SubLowerPaperIdentities) {
  // L1 -L L2 == min{ r | r + L2 >= L1 }: never negative, inf -L inf == 0.
  EXPECT_EQ(ExtNat(5).subLower(ExtNat(3)), ExtNat(2));
  EXPECT_EQ(ExtNat(3).subLower(ExtNat(5)), ExtNat(0));
  EXPECT_EQ(ExtNat::infinity().subLower(ExtNat::infinity()), ExtNat(0));
  EXPECT_TRUE(ExtNat::infinity().subLower(ExtNat(7)).isInf());
  EXPECT_EQ(ExtNat(7).subLower(ExtNat::infinity()), ExtNat(0));
}

TEST(ExtNat, SubUpperPaperIdentities) {
  // U1 -U U2 == max{ r | r + U2 <= U1 }, defined iff U1 >= U2;
  // inf -U inf == inf.
  EXPECT_EQ(ExtNat(5).subUpper(ExtNat(3)), ExtNat(2));
  EXPECT_TRUE(ExtNat::infinity().subUpper(ExtNat::infinity()).isInf());
  EXPECT_TRUE(ExtNat::infinity().subUpper(ExtNat(3)).isInf());
  EXPECT_EQ(ExtNat(3).subUpper(ExtNat(3)), ExtNat(0));
}

TEST(ExtNat, SubLowerIsMinimalResidue) {
  // Exhaustively verify the defining property on a finite window.
  for (int64_t L1 = 0; L1 <= 10; ++L1)
    for (int64_t L2 = 0; L2 <= 10; ++L2) {
      ExtNat R = ExtNat(L1).subLower(ExtNat(L2));
      ASSERT_FALSE(R.isInf());
      // r + L2 >= L1 holds.
      EXPECT_GE(R.finite() + L2, L1);
      // Minimality: r-1 violates it (when r > 0).
      if (R.finite() > 0) {
        EXPECT_LT(R.finite() - 1 + L2, L1);
      }
    }
}

TEST(ExtNat, Str) {
  EXPECT_EQ(ExtNat(3).str(), "3");
  EXPECT_EQ(ExtNat::infinity().str(), "inf");
}

//===----------------------------------------------------------------------===//
// JSON edge cases (the server protocol and the spec store file format
// both ride on this parser/writer).
//===----------------------------------------------------------------------===//

TEST(Json, EscapeSequencesDecodeAndReEncode) {
  std::optional<json::Value> V =
      json::parse(R"("a\"b\\c\/d\b\f\n\r\teA")");
  ASSERT_TRUE(V && V->isString());
  EXPECT_EQ(V->asString(), "a\"b\\c/d\b\f\n\r\teA");

  // The escaper round-trips through the parser, including control
  // characters and DEL.
  std::string Nasty = "quote\" back\\ nl\n tab\t bell\x07 del\x7f end";
  std::optional<json::Value> Back = json::parse(json::quoted(Nasty));
  ASSERT_TRUE(Back && Back->isString());
  EXPECT_EQ(Back->asString(), Nasty);

  // Raw control characters inside string literals are rejected.
  EXPECT_FALSE(json::parse("\"raw\ncontrol\""));
  EXPECT_FALSE(json::parse(R"("bad \q escape")"));
  EXPECT_FALSE(json::parse(R"("truncated \u00)"));
}

TEST(Json, SurrogatePairsAndLoneSurrogates) {
  // U+1F600 as a surrogate pair decodes to 4-byte UTF-8.
  std::optional<json::Value> V = json::parse(R"("😀")");
  ASSERT_TRUE(V && V->isString());
  EXPECT_EQ(V->asString(), "\xF0\x9F\x98\x80");

  // A lone high surrogate, and a high surrogate followed by a non-low
  // escape, decode to U+FFFD — never to invalid UTF-8.
  std::optional<json::Value> Lone = json::parse(R"("\ud83dX")");
  ASSERT_TRUE(Lone && Lone->isString());
  EXPECT_EQ(Lone->asString(), "\xEF\xBF\xBDX");
  std::optional<json::Value> HighThenBmp = json::parse(R"("\ud83dA")");
  ASSERT_TRUE(HighThenBmp && HighThenBmp->isString());
  EXPECT_EQ(HighThenBmp->asString(), "\xEF\xBF\xBD""A");
  // An unpaired LOW surrogate alone is also replaced.
  std::optional<json::Value> Low = json::parse(R"("\ude00")");
  ASSERT_TRUE(Low && Low->isString());
  EXPECT_EQ(Low->asString(), "\xEF\xBF\xBD");
}

TEST(Json, DeepNestingIsBoundedNotCrashing) {
  auto nested = [](unsigned Depth) {
    std::string S(Depth, '[');
    S += "1";
    S.append(Depth, ']');
    return S;
  };
  // Comfortably inside the bound.
  std::optional<json::Value> Ok = json::parse(nested(100));
  ASSERT_TRUE(Ok.has_value());
  const json::Value *Cur = &*Ok;
  for (unsigned I = 0; I < 100; ++I) {
    ASSERT_TRUE(Cur->isArray());
    ASSERT_EQ(Cur->elements().size(), 1u);
    Cur = &Cur->elements()[0];
  }
  EXPECT_TRUE(Cur->isNumber());

  // Past the recursion bound: a clean error, not a stack overflow.
  std::string Err;
  EXPECT_FALSE(json::parse(nested(5000), &Err));
  EXPECT_NE(Err.find("nesting too deep"), std::string::npos);

  // Deep OBJECT nesting hits the same bound.
  std::string Obj;
  for (unsigned I = 0; I < 200; ++I)
    Obj += "{\"k\":";
  Obj += "null";
  Obj.append(200, '}');
  EXPECT_FALSE(json::parse(Obj));
}

TEST(Json, NumberIdRoundTripping) {
  // The raw lexeme survives parse -> write for every shape, so echoed
  // ids and 64-bit store numbers never get reformatted through a
  // double.
  for (const char *Lexeme :
       {"17", "-0", "9223372036854775807", "-9223372036854775808",
        "3.5", "-2.5e3", "1e-7", "0.0001"}) {
    std::optional<json::Value> V = json::parse(Lexeme);
    ASSERT_TRUE(V && V->isNumber()) << Lexeme;
    EXPECT_EQ(V->rawNumber(), Lexeme);
    EXPECT_EQ(json::write(*V), Lexeme);
  }

  // toInt64: exact for the full int64 range, refuses fractions,
  // exponents and out-of-range values instead of rounding.
  auto i64 = [](const char *Lexeme) {
    return json::toInt64(*json::parse(Lexeme));
  };
  EXPECT_EQ(i64("9223372036854775807").value_or(0), INT64_MAX);
  EXPECT_EQ(i64("-9223372036854775808").value_or(0), INT64_MIN);
  EXPECT_EQ(i64("0").value_or(1), 0);
  EXPECT_FALSE(i64("1.5").has_value());
  EXPECT_FALSE(i64("1e3").has_value());
  EXPECT_FALSE(i64("9223372036854775808").has_value()); // INT64_MAX + 1.
  EXPECT_FALSE(json::toInt64(*json::parse("\"17\"")).has_value());

  // Malformed numbers are rejected up front (the lexeme is echoed
  // verbatim into responses, so leniency would corrupt output).
  for (const char *Bad : {"01", "1.", ".5", "1e", "+1", "--1"})
    EXPECT_FALSE(json::parse(Bad).has_value()) << Bad;
}

TEST(Json, WriteRoundTripsDocuments) {
  const char *Doc =
      R"({"a":[1,2.5,"x\n",true,null],"b":{"nested":[[]],"n":-42},"c":""})";
  std::optional<json::Value> V = json::parse(Doc);
  ASSERT_TRUE(V.has_value());
  // Member and element order are preserved; compact output re-parses
  // to the same rendering (fixpoint).
  std::string W = json::write(*V);
  EXPECT_EQ(W, Doc);
  std::optional<json::Value> V2 = json::parse(W);
  ASSERT_TRUE(V2.has_value());
  EXPECT_EQ(json::write(*V2), W);
}

//===----------------------------------------------------------------------===//
// Diagnostics
//===----------------------------------------------------------------------===//

TEST(Diagnostics, FormattingAndDefaults) {
  DiagnosticEngine DE;
  EXPECT_EQ(DE.minSeverity(), DiagKind::Note); // Default keeps everything.
  DE.error({3, 7}, "bad thing");
  DE.warning({1, 1}, "odd thing");
  DE.note({}, "context");
  EXPECT_TRUE(DE.hasErrors());
  EXPECT_EQ(DE.errorCount(), 1u);
  ASSERT_EQ(DE.all().size(), 3u);
  EXPECT_EQ(DE.all()[0].str(), "3:7: error: bad thing");
  EXPECT_EQ(DE.all()[1].str(), "1:1: warning: odd thing");
  EXPECT_EQ(DE.all()[2].str(), "<unknown>: note: context");
  EXPECT_EQ(DE.str(), "3:7: error: bad thing\n"
                      "1:1: warning: odd thing\n"
                      "<unknown>: note: context\n");
}

TEST(Diagnostics, MinSeverityFiltersCollectionButNotErrorCount) {
  DiagnosticEngine DE;
  DE.setMinSeverity(DiagKind::Warning);
  DE.note({1, 1}, "dropped");
  DE.warning({2, 2}, "kept");
  DE.error({3, 3}, "kept too");
  ASSERT_EQ(DE.all().size(), 2u);
  EXPECT_EQ(DE.all()[0].Kind, DiagKind::Warning);
  EXPECT_EQ(DE.all()[1].Kind, DiagKind::Error);
  EXPECT_EQ(DE.str(), "2:2: warning: kept\n3:3: error: kept too\n");

  // Errors-only mode: warnings and notes vanish from the rendering...
  DiagnosticEngine Strict;
  Strict.setMinSeverity(DiagKind::Error);
  Strict.warning({1, 1}, "gone");
  Strict.note({1, 2}, "gone");
  EXPECT_TRUE(Strict.all().empty());
  EXPECT_FALSE(Strict.hasErrors());
  // ...but the failure indicator can never be filtered away.
  Strict.error({9, 9}, "still fatal");
  EXPECT_TRUE(Strict.hasErrors());
  EXPECT_EQ(Strict.errorCount(), 1u);
  ASSERT_EQ(Strict.all().size(), 1u);
}

TEST(Diagnostics, SinkSeesFilteredStreamAtEmissionTime) {
  DiagnosticEngine DE;
  std::vector<std::string> Streamed;
  DE.setSink([&Streamed](const Diagnostic &D) {
    Streamed.push_back(D.str());
  });
  DE.setMinSeverity(DiagKind::Warning);
  DE.error({1, 1}, "first");
  DE.note({2, 2}, "never sunk"); // Below the filter: sink not called.
  DE.warning({3, 3}, "second");
  ASSERT_EQ(Streamed.size(), 2u);
  EXPECT_EQ(Streamed[0], "1:1: error: first");
  EXPECT_EQ(Streamed[1], "3:3: warning: second");
  // The engine still collected its own copies (sink is a tee, not a
  // redirect)...
  EXPECT_EQ(DE.all().size(), 2u);
  // ...and an empty function restores collect-only mode.
  DE.setSink({});
  DE.warning({4, 4}, "quiet");
  EXPECT_EQ(Streamed.size(), 2u);
  EXPECT_EQ(DE.all().size(), 3u);
}
