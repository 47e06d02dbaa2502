// The dimensional-type and trust-boundary layer's own test suite.
//
// Three layers of proof:
//   1. compile-time: static_asserts pin the algebra that must exist, and
//      expression-SFINAE probes pin the *absence* of the operators that
//      must not (SimSeconds + WallSeconds, Bytes + Bits, implicit double
//      conversions) — if someone adds a laundering overload, this file
//      stops compiling or the probes flip to true and the asserts fire;
//   2. runtime identities: the cross-dimension operators compute the same
//      numbers the raw-double formulas did;
//   3. Untrusted<T>: the validating release path, TaintError rejection,
//      and move-only consumption semantics.
#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "fftgrad/util/taint.h"
#include "fftgrad/util/units.h"

namespace fftgrad::util {
namespace {

// ---------------------------------------------------------------------------
// Expression-SFINAE probes: valid<OpProbe, A, B> is true iff the operator
// expression compiles for the pair. Used to assert both presence and
// absence of algebra.

template <typename A, typename B, typename = void>
struct CanAdd : std::false_type {};
template <typename A, typename B>
struct CanAdd<A, B, std::void_t<decltype(std::declval<A>() + std::declval<B>())>>
    : std::true_type {};

template <typename A, typename B, typename = void>
struct CanDivide : std::false_type {};
template <typename A, typename B>
struct CanDivide<A, B, std::void_t<decltype(std::declval<A>() / std::declval<B>())>>
    : std::true_type {};

template <typename A, typename B, typename = void>
struct CanMultiply : std::false_type {};
template <typename A, typename B>
struct CanMultiply<A, B, std::void_t<decltype(std::declval<A>() * std::declval<B>())>>
    : std::true_type {};

template <typename A, typename B, typename = void>
struct CanCompare : std::false_type {};
template <typename A, typename B>
struct CanCompare<A, B, std::void_t<decltype(std::declval<A>() < std::declval<B>())>>
    : std::true_type {};

// --- the algebra that must exist -------------------------------------------
static_assert(CanAdd<SimSeconds, SimSeconds>::value);
static_assert(CanAdd<Bytes, Bytes>::value);
static_assert(CanDivide<Bytes, BytesPerSecond>::value);
static_assert(std::is_same_v<decltype(Bytes(1.0) / BytesPerSecond(1.0)), SimSeconds>);
static_assert(std::is_same_v<decltype(Bytes(1.0) / SimSeconds(1.0)), BytesPerSecond>);
static_assert(std::is_same_v<decltype(BytesPerSecond(1.0) * SimSeconds(1.0)), Bytes>);
static_assert(std::is_same_v<decltype(Bytes(1.0) / Ratio(1.0)), Bytes>);
// Same-unit division is a dimensionless double.
static_assert(std::is_same_v<decltype(SimSeconds(1.0) / SimSeconds(1.0)), double>);
static_assert(std::is_same_v<decltype(Bytes(1.0) / Bytes(1.0)), double>);
// Scalar scaling keeps the unit.
static_assert(std::is_same_v<decltype(2.0 * SimSeconds(1.0)), SimSeconds>);
static_assert(std::is_same_v<decltype(SimSeconds(1.0) / 2.0), SimSeconds>);

// --- the algebra that must NOT exist ----------------------------------------
// Wall and simulated seconds never mix implicitly.
static_assert(!CanAdd<SimSeconds, WallSeconds>::value);
static_assert(!CanAdd<WallSeconds, SimSeconds>::value);
static_assert(!CanCompare<SimSeconds, WallSeconds>::value);
// Bits and Bytes only convert through bits_of/bytes_of (the factor-8 home).
static_assert(!CanAdd<Bytes, Bits>::value);
// No unit mixes with a bare double additively, and no implicit conversions.
static_assert(!CanAdd<SimSeconds, double>::value);
static_assert(!CanAdd<double, Bytes>::value);
static_assert(!std::is_convertible_v<double, SimSeconds>);  // explicit ctor
static_assert(!std::is_convertible_v<SimSeconds, double>);  // to_double() only
static_assert(!std::is_convertible_v<SimSeconds, WallSeconds>);
// Dimensionally meaningless products/quotients don't exist.
static_assert(!CanMultiply<Bytes, Bytes>::value);
static_assert(!CanDivide<SimSeconds, Bytes>::value);
static_assert(!CanDivide<Ratio, Bytes>::value);

// --- zero-overhead representation -------------------------------------------
static_assert(sizeof(SimSeconds) == sizeof(double));
static_assert(std::is_trivially_copyable_v<Bytes>);
static_assert(std::is_trivially_copyable_v<SimSeconds>);

// --- the whole algebra is constexpr -----------------------------------------
static_assert((Bytes(8e9) / BytesPerSecond(1e9)).to_double() == 8.0);
static_assert(ratio_of(Bytes(100.0), Bytes(25.0)) == Ratio(4.0));
static_assert(bits_of(Bytes(2.0)) == Bits(16.0));
static_assert(bytes_of(Bits(16.0)) == Bytes(2.0));

TEST(Units, TransferTimeMatchesRawFormula) {
  const Bytes message{2.5e8};
  const BytesPerSecond link{10.0 * 1e9 / 8.0};  // 10 Gbps
  EXPECT_DOUBLE_EQ((message / link).to_double(), 2.5e8 / (10.0 * 1e9 / 8.0));
}

TEST(Units, RoundTripThroughThroughput) {
  const Bytes message{1e6};
  const SimSeconds elapsed{0.25};
  const BytesPerSecond rate = message / elapsed;
  EXPECT_EQ(rate * elapsed, message);
  EXPECT_EQ(elapsed * rate, message);
}

TEST(Units, CompressionShrinksByRatio) {
  const Bytes raw{8e6};
  const Ratio k{4.0};
  EXPECT_EQ(raw / k, Bytes(2e6));
  EXPECT_DOUBLE_EQ(ratio_of(raw, raw / k).to_double(), 4.0);
}

TEST(Units, BitByteFactorLivesInOnePlace) {
  EXPECT_EQ(bits_of(bytes_of(Bits(12.0))), Bits(12.0));
  EXPECT_EQ(bytes_for(elements(1000), sizeof(float)), Bytes(4000.0));
  EXPECT_EQ(byte_count(4096), Bytes(4096.0));
}

TEST(Units, AccumulationAndScaling) {
  SimSeconds total{};
  for (int i = 1; i <= 4; ++i) total += SimSeconds(0.5) * static_cast<double>(i);
  EXPECT_DOUBLE_EQ(total.to_double(), 0.5 + 1.0 + 1.5 + 2.0);
  total /= 5.0;
  EXPECT_DOUBLE_EQ(total.to_double(), 1.0);
  EXPECT_EQ(-SimSeconds(2.0), SimSeconds(-2.0));
}

TEST(Units, ComparisonsAreOrdered) {
  EXPECT_LT(SimSeconds(1.0), SimSeconds(2.0));
  EXPECT_GE(Bytes(5.0), Bytes(5.0));
  EXPECT_NE(Ratio(2.0), Ratio(3.0));
}

// ---------------------------------------------------------------------------
// Untrusted<T>.

TEST(Taint, ReleaseRunsValidatorAndYields) {
  Untrusted<std::vector<int>> wire = untrusted(std::vector<int>{1, 2, 3});
  const std::vector<int> value =
      std::move(wire).release([](const std::vector<int>& v) { return v.size() == 3; },
                              "fixture vector");
  EXPECT_EQ(value, (std::vector<int>{1, 2, 3}));
}

TEST(Taint, RejectionThrowsTaintErrorNamingTheValue) {
  try {
    (void)untrusted(std::size_t{7}).release([](std::size_t n) { return n < 5; },
                                            "element count");
    FAIL() << "validator rejection must throw";
  } catch (const TaintError& e) {
    EXPECT_NE(std::string(e.what()).find("element count"), std::string::npos);
  }
}

TEST(Taint, TaintErrorIsARuntimeError) {
  // The fuzzers count decoder rejections via catch(std::runtime_error&);
  // receiver-side rejections must land in the same bucket.
  EXPECT_THROW(
      (void)untrusted(1).release([](int) { return false; }), std::runtime_error);
}

TEST(Taint, ValidatorMayThrowItsOwnException) {
  EXPECT_THROW((void)untrusted(1).release(
                   [](int) -> bool { throw std::invalid_argument("custom"); }),
               std::invalid_argument);
}

TEST(Taint, ReleaseWorksDirectlyOnDecoderReturnValue) {
  // The idiomatic call shape: decoder returns a prvalue Untrusted<T>, the
  // caller chains .release(...) with no std::move.
  const auto decode = [] { return untrusted(std::string("payload")); };
  EXPECT_EQ(decode().release([](const std::string& s) { return !s.empty(); }), "payload");
}

TEST(Taint, MoveOnlySingleConsumption) {
  static_assert(!std::is_copy_constructible_v<Untrusted<int>>);
  static_assert(!std::is_copy_assignable_v<Untrusted<int>>);
  static_assert(std::is_move_constructible_v<Untrusted<int>>);
  // release() is rvalue-qualified: it does not compile on an lvalue.
  static_assert(!std::is_invocable_v<decltype(&Untrusted<int>::template release<bool (*)(int)>),
                                     Untrusted<int>&, bool (*)(int), const char*>);
  Untrusted<int> a = untrusted(41);
  Untrusted<int> b = std::move(a);
  EXPECT_EQ(std::move(b).release([](int v) { return v == 41; }), 41);
}

}  // namespace
}  // namespace fftgrad::util
