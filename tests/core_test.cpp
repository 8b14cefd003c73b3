// Unit tests for the core substrate: checks, RNG, tensor, half, table.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/check.h"
#include "core/half.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/table.h"
#include "core/tensor.h"
#include "isa_builds.h"

namespace hitopk {
namespace {

// ---------------------------------------------------------------- check
TEST(Check, PassingConditionDoesNotThrow) {
  EXPECT_NO_THROW(HITOPK_CHECK(1 + 1 == 2));
}

TEST(Check, FailingConditionThrowsCheckError) {
  EXPECT_THROW(HITOPK_CHECK(false) << "context", CheckError);
}

TEST(Check, MessageContainsConditionAndContext) {
  try {
    int k = 7;
    HITOPK_CHECK(k < 5) << "k was" << k;
    FAIL() << "expected throw";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("k < 5"), std::string::npos);
    EXPECT_NE(what.find("k was 7"), std::string::npos);
  }
}

TEST(Check, ComparisonMacros) {
  EXPECT_NO_THROW(HITOPK_CHECK_EQ(3, 3));
  EXPECT_NO_THROW(HITOPK_CHECK_LT(2, 3));
  EXPECT_THROW(HITOPK_CHECK_GT(2, 3), CheckError);
  EXPECT_THROW(HITOPK_CHECK_NE(5, 5), CheckError);
}

// ---------------------------------------------------------------- rng
TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIndexInRange) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform_index(17), 17u);
  }
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(17);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(19);
  const int n = 100000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(23);
  Rng child = parent.fork();
  // The child stream must not replay the parent stream.
  Rng parent_copy(23);
  (void)parent_copy.next_u64();  // same advance as fork consumed
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (child.next_u64() == parent_copy.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, UniformIndexZeroThrows) {
  Rng rng(31);
  EXPECT_THROW(rng.uniform_index(0), CheckError);
}

// ---------------------------------------------------------------- tensor
TEST(Tensor, DefaultIsEmpty) {
  Tensor t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
}

TEST(Tensor, OneDimensionalConstruction) {
  Tensor t(5);
  EXPECT_EQ(t.size(), 5u);
  EXPECT_EQ(t.rows(), 5u);
  EXPECT_EQ(t.cols(), 1u);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, TwoDimensionalAccess) {
  Tensor t(2, 3);
  t.at(1, 2) = 42.0f;
  EXPECT_EQ(t.at(1, 2), 42.0f);
  EXPECT_EQ(t[5], 42.0f);  // row-major
  EXPECT_THROW(t.at(2, 0), CheckError);
}

TEST(Tensor, FromValues) {
  Tensor t = Tensor::from({1.0f, -2.0f, 3.0f});
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t[1], -2.0f);
}

TEST(Tensor, From2dShapeMismatchThrows) {
  EXPECT_THROW(Tensor::from(2, 2, {1.0f, 2.0f, 3.0f}), CheckError);
}

TEST(Tensor, ElementwiseArithmetic) {
  Tensor a = Tensor::from({1.0f, 2.0f, 3.0f});
  Tensor b = Tensor::from({10.0f, 20.0f, 30.0f});
  a += b;
  EXPECT_EQ(a[2], 33.0f);
  a -= b;
  EXPECT_EQ(a[2], 3.0f);
  a *= 2.0f;
  EXPECT_EQ(a[0], 2.0f);
}

TEST(Tensor, MismatchedAddThrows) {
  Tensor a(3), b(4);
  EXPECT_THROW(a += b, CheckError);
}

TEST(Tensor, Reductions) {
  Tensor t = Tensor::from({3.0f, -4.0f});
  EXPECT_FLOAT_EQ(t.sum(), -1.0f);
  EXPECT_FLOAT_EQ(t.l2_norm(), 5.0f);
  EXPECT_FLOAT_EQ(t.abs_mean(), 3.5f);
  EXPECT_FLOAT_EQ(t.abs_max(), 4.0f);
}

TEST(Tensor, CountAbsGe) {
  Tensor t = Tensor::from({0.5f, -1.5f, 2.5f, -0.1f});
  EXPECT_EQ(t.count_abs_ge(1.0f), 2u);
  EXPECT_EQ(t.count_abs_ge(0.0f), 4u);
  EXPECT_EQ(t.count_abs_ge(3.0f), 0u);
}

TEST(Tensor, SliceViewsShareStorage) {
  Tensor t(10);
  auto view = t.slice(2, 3);
  view[0] = 9.0f;
  EXPECT_EQ(t[2], 9.0f);
  EXPECT_THROW(t.slice(8, 3), CheckError);
}

TEST(Tensor, FillRandomRespectsBounds) {
  Rng rng(37);
  Tensor t(1000);
  t.fill_uniform(rng, -2.0f, 2.0f);
  for (size_t i = 0; i < t.size(); ++i) {
    EXPECT_GE(t[i], -2.0f);
    EXPECT_LT(t[i], 2.0f);
  }
}

TEST(TensorOps, AddIntoAndZero) {
  Tensor a = Tensor::from({1.0f, 2.0f});
  Tensor b = Tensor::from({3.0f, 4.0f});
  tensor_ops::add_into(a.span(), b.span());
  EXPECT_EQ(a[1], 6.0f);
  tensor_ops::zero(a.span());
  EXPECT_EQ(a[0], 0.0f);
}

// ---------------------------------------------------------------- half
TEST(Half, ExactSmallValuesRoundTrip) {
  for (float v : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, 1024.0f, -0.25f}) {
    EXPECT_EQ(half_to_float(float_to_half(v)), v) << v;
  }
}

TEST(Half, RoundingErrorBounded) {
  Rng rng(41);
  for (int i = 0; i < 10000; ++i) {
    const float v = static_cast<float>(rng.uniform(-100.0, 100.0));
    const float r = half_to_float(float_to_half(v));
    // FP16 has 11 significand bits: relative error <= 2^-11.
    EXPECT_NEAR(r, v, std::fabs(v) * 0x1.0p-10 + 1e-7f) << v;
  }
}

TEST(Half, OverflowToInfinity) {
  const Half h = float_to_half(1e6f);
  EXPECT_TRUE(std::isinf(half_to_float(h)));
  const Half hneg = float_to_half(-1e6f);
  EXPECT_TRUE(std::isinf(half_to_float(hneg)));
  EXPECT_LT(half_to_float(hneg), 0.0f);
}

TEST(Half, NanPreserved) {
  const Half h = float_to_half(std::numeric_limits<float>::quiet_NaN());
  EXPECT_TRUE(std::isnan(half_to_float(h)));
}

TEST(Half, SubnormalRange) {
  // Smallest positive normal half is 2^-14; below that we get subnormals.
  const float tiny = 0x1.0p-20f;
  const float r = half_to_float(float_to_half(tiny));
  EXPECT_NEAR(r, tiny, tiny * 0.05f);
}

TEST(Half, UnderflowToZero) {
  EXPECT_EQ(half_to_float(float_to_half(1e-30f)), 0.0f);
}

TEST(Half, RoundToNearestEvenTies) {
  // Half spacing in [1, 2) is 2^-10; a float exactly halfway between two
  // representable halves must round to the even mantissa.
  EXPECT_EQ(half_to_float(float_to_half(1.0f + 0x1.0p-11f)), 1.0f);
  EXPECT_EQ(half_to_float(float_to_half(1.0f + 3 * 0x1.0p-11f)),
            1.0f + 0x1.0p-9f);
  // Not-quite-halfway rounds to nearest, not to even.
  EXPECT_EQ(half_to_float(float_to_half(1.0f + 0x1.8p-11f)),
            1.0f + 0x1.0p-10f);
}

TEST(Half, DenormalTiesAndBoundaries) {
  // Smallest positive subnormal half is 2^-24.  Exactly half of it ties to
  // even (zero); anything above the tie rounds up to 2^-24.
  EXPECT_EQ(half_to_float(float_to_half(0x1.0p-24f)), 0x1.0p-24f);
  EXPECT_EQ(half_to_float(float_to_half(0x1.0p-25f)), 0.0f);
  EXPECT_EQ(half_to_float(float_to_half(0x1.8p-25f)), 0x1.0p-24f);
  // The sign of an underflowed zero survives.
  EXPECT_TRUE(std::signbit(half_to_float(float_to_half(-0x1.0p-25f))));
  // Largest subnormal and smallest normal half round trip exactly.
  EXPECT_EQ(half_to_float(float_to_half(0x1.ff8p-15f)), 0x1.ff8p-15f);
  EXPECT_EQ(half_to_float(float_to_half(0x1.0p-14f)), 0x1.0p-14f);
}

TEST(Half, OverflowBoundaryTies) {
  // 65504 is the largest finite half; 65520 is exactly halfway to the next
  // grid point (65536, not representable) and ties upward to infinity.
  EXPECT_EQ(half_to_float(float_to_half(65504.0f)), 65504.0f);
  EXPECT_TRUE(std::isinf(half_to_float(float_to_half(65520.0f))));
  EXPECT_EQ(half_to_float(float_to_half(65519.0f)), 65504.0f);
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(half_to_float(float_to_half(inf)), inf);
  EXPECT_EQ(half_to_float(float_to_half(-inf)), -inf);
}

TEST(Half, RoundTripIsIdempotent) {
  Rng rng(47);
  std::vector<float> v(100);
  for (auto& x : v) x = static_cast<float>(rng.normal(0.0, 1.0));
  fp16_round_trip(v);
  auto once = v;
  fp16_round_trip(v);
  EXPECT_EQ(v, once);
}

// ----------------------------------------------------------- fp16 codec
// Every build of the bulk codec (core/isa.h: the baseline lane function over
// four floats, and the F16C build with its NaN-block and short-tail
// fallback) must be bitwise identical to the scalar oracle
// half_to_float(float_to_half(x)) on every float pattern, NaN payloads
// included.  Each test runs once per build; a build the host cannot run
// skips itself.

uint32_t scalar_round_trip(uint32_t bits) {
  return std::bit_cast<uint32_t>(
      half_to_float(float_to_half(std::bit_cast<float>(bits))));
}

float scalar_round_trip(float value) {
  return std::bit_cast<float>(scalar_round_trip(std::bit_cast<uint32_t>(value)));
}

class Fp16Codec : public IsaBuildTest {
 protected:
  const detail::Fp16Kernels& kernels() const {
    return detail::fp16_kernels(GetParam());
  }
};

struct SweepResult {
  uint64_t mismatches = 0;
  uint32_t first_input = 0, first_got = 0, first_want = 0;
};

// Round-trips patterns pattern(0..count-1) in bulk and compares every lane
// with the oracle.  The buffer is per thread, so blocks reuse its pages.
template <typename Pattern>
SweepResult sweep(const detail::Fp16Kernels& kernels, size_t count,
                  Pattern pattern) {
  thread_local std::vector<float> values;
  values.resize(count);
  for (size_t i = 0; i < count; ++i) {
    values[i] = std::bit_cast<float>(pattern(i));
  }
  kernels.round_trip(values);
  SweepResult result;
  for (size_t i = 0; i < count; ++i) {
    const uint32_t got = std::bit_cast<uint32_t>(values[i]);
    const uint32_t want = scalar_round_trip(pattern(i));
    if (got == want) continue;
    if (result.mismatches++ == 0) {
      result.first_input = pattern(i);
      result.first_got = got;
      result.first_want = want;
    }
  }
  return result;
}

TEST_P(Fp16Codec, BulkMatchesScalarPairOnEveryPattern) {
  // Default: every high 16 bits (so every sign, exponent and the top 7
  // mantissa bits: all zero, subnormal, NaN and Inf classes) times 64 low
  // halves.  The low halves put each tie-critical low-13-bit pattern under
  // all 8 settings of mantissa bits 13..15, which hold the RNE parity bit
  // and, for inputs below 2^-14, the subnormal tie; 16 seeded random low
  // halves fill the rest.  HITOPK_FP16_EXHAUSTIVE=1 sweeps all 2^32.
  const char* env = std::getenv("HITOPK_FP16_EXHAUSTIVE");
  const bool exhaustive = env != nullptr && std::string(env) == "1";

  std::vector<uint32_t> lows;
  for (uint32_t high_bits = 0; high_bits < 8; ++high_bits) {
    for (uint32_t low13 : {0x0u, 0x1u, 0xfffu, 0x1000u, 0x1001u, 0x1fffu}) {
      lows.push_back(high_bits << 13 | low13);
    }
  }
  Rng rng(20260807);
  while (lows.size() < 64) lows.push_back(rng.next_u64() & 0xffffu);

  // Exhaustive blocks hold 2^20 consecutive patterns; default blocks hold
  // 256 high halves x 64 low halves.
  const detail::Fp16Kernels& codec = kernels();
  const size_t blocks = exhaustive ? size_t{1} << 12 : size_t{1} << 8;
  std::vector<SweepResult> results(blocks);
  parallel_for(0, blocks, [&](size_t block) {
    const auto b = static_cast<uint32_t>(block);
    if (exhaustive) {
      results[block] = sweep(codec, size_t{1} << 20, [b](size_t i) {
        return b << 20 | static_cast<uint32_t>(i);
      });
    } else {
      results[block] = sweep(codec, 256 * lows.size(), [b, &lows](size_t i) {
        const auto high = static_cast<uint32_t>(i / lows.size());
        return (b << 8 | high) << 16 | lows[i % lows.size()];
      });
    }
  });

  uint64_t mismatches = 0;
  for (const SweepResult& r : results) {
    if (r.mismatches > 0 && mismatches == 0) {
      ADD_FAILURE() << std::hex << "input 0x" << r.first_input << ": bulk 0x"
                    << r.first_got << ", scalar pair 0x" << r.first_want;
    }
    mismatches += r.mismatches;
  }
  EXPECT_EQ(mismatches, 0u)
      << (exhaustive ? "all 2^32 patterns" : "2^22 patterns");
}

TEST_P(Fp16Codec, EveryTailLengthAndOffset) {
  // Spans of 0..33 floats at offsets 0..7 run the four- and eight-lane
  // blocks, the short tails, or all of them, from unaligned starts, and
  // cross both edges of an eight-lane block.  The inputs cycle through
  // every class; the NaN classes sit at 11, 12 and 18 (mod 21), so some
  // eight-lane blocks hold a NaN and some do not.  Floats outside the span
  // must stay untouched.
  const uint32_t classes[] = {
      0x00000000u, 0x80000000u, 0x3f801000u, 0x3f803000u, 0x33000000u,
      0xb3800001u, 0x38800000u, 0x387fffffu, 0x477fefffu, 0x477ff000u,
      0x7f800000u, 0xff800001u, 0x7fc00000u, 0x00000001u, 0x3dcccccdu,
      0xc2f6e979u, 0x47800000u, 0x387fe000u, 0x7f802000u, 0x3a000000u,
      0x0000ffffu};
  constexpr size_t kMaxOffset = 7, kMaxLength = 33;
  std::vector<uint32_t> inputs(kMaxOffset + kMaxLength + 1);
  for (size_t i = 0; i < inputs.size(); ++i) {
    inputs[i] = classes[i % std::size(classes)];
  }
  for (size_t offset = 0; offset <= kMaxOffset; ++offset) {
    for (size_t length = 0; length <= kMaxLength; ++length) {
      std::vector<float> values(inputs.size());
      for (size_t i = 0; i < values.size(); ++i) {
        values[i] = std::bit_cast<float>(inputs[i]);
      }
      kernels().round_trip(std::span<float>(values).subspan(offset, length));
      for (size_t i = 0; i < values.size(); ++i) {
        const bool inside = i >= offset && i < offset + length;
        const uint32_t want =
            inside ? scalar_round_trip(inputs[i]) : inputs[i];
        EXPECT_EQ(std::bit_cast<uint32_t>(values[i]), want)
            << "offset " << offset << " length " << length << " index " << i;
      }
    }
  }
}

TEST_P(Fp16Codec, FusedKernelsMatchScalarPair) {
  // 8-float blocks of (acc, src) pairs, then a tail of 5:
  //   block 0: finite values only (the F16C path for every kernel);
  //   block 1: acc + src overflows the half range (65504 + 16 = 65520, the
  //            tie that rounds to Inf) and float range (3e38 + 3e38) with
  //            finite inputs: no NaN anywhere, so the F16C path;
  //   block 2: inf + -inf, a NaN sum of non-NaN inputs (sum_round's
  //            fallback; round_copy and round_add take the F16C path);
  //   block 3: NaN sources, quiet and signalling, with payload bits that
  //            survive the narrowing (the fallback of every kernel; only
  //            round_copy can show it, as the sums quiet every NaN);
  //   blocks 4-5 and the tail: N(0, 1e-3) with subnormal halves.
  // acc holds no NaN, so no sum has two NaN operands and every result has
  // one defined bit pattern.
  const float inf = std::numeric_limits<float>::infinity();
  const float qnan = std::bit_cast<float>(0x7fc00001u);
  const float snan = std::bit_cast<float>(0xff902001u);
  std::vector<float> acc = {1.0f,     -2.5f,  0.1f,   3e-5f,
                            -7e-6f,   1e4f,   -1e-8f, 0.0f,
                            65504.0f, 3e38f,  -65504.0f, 65000.0f,
                            1.0f,     -3e38f, 2.0f,   65504.0f,
                            inf,      -inf,   inf,    1.0f,
                            -inf,     0.5f,   inf,    -1.0f,
                            1.0f,     inf,    -2.0f,  0.25f,
                            -inf,     0.0f,   3.0f,   -0.0f};
  std::vector<float> src = {0.5f,     1e-3f,  -0.2f,  6e-8f,
                            2e-7f,    -3.0f,  1e-8f,  -0.0f,
                            16.0f,    3e38f,  -16.0f, 520.0f,
                            65519.0f, -3e38f, -1.0f,  15.0f,
                            -inf,     inf,    1.0f,   inf,
                            2.0f,     -inf,   -inf,   0.0f,
                            qnan,     snan,   1.0f,   -qnan,
                            2.0f,     snan,   qnan,   -snan};
  Rng rng(20260807);
  while (acc.size() < 6 * 8 + 5) {
    acc.push_back(static_cast<float>(rng.normal(0.0, 1e-3)));
    src.push_back(static_cast<float>(rng.normal(0.0, 1e-3)));
  }
  const size_t n = acc.size();
  std::vector<float> want_copy(n), want_add(n), want_sum(n);
  for (size_t i = 0; i < n; ++i) {
    want_copy[i] = scalar_round_trip(src[i]);
    want_add[i] = acc[i] + scalar_round_trip(src[i]);
    want_sum[i] = scalar_round_trip(acc[i] + src[i]);
  }
  std::vector<float> copy(n, 7.0f), add = acc, sum = acc;
  kernels().round_copy(copy, src);
  kernels().round_add(add, src);
  kernels().sum_round(sum, src);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(std::bit_cast<uint32_t>(copy[i]),
              std::bit_cast<uint32_t>(want_copy[i]))
        << "round_copy index " << i;
    EXPECT_EQ(std::bit_cast<uint32_t>(add[i]),
              std::bit_cast<uint32_t>(want_add[i]))
        << "round_add index " << i;
    EXPECT_EQ(std::bit_cast<uint32_t>(sum[i]),
              std::bit_cast<uint32_t>(want_sum[i]))
        << "sum_round index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Builds, Fp16Codec, ::testing::ValuesIn(isa::kBuilds),
                         ::testing::PrintToStringParamName());

// ---------------------------------------------------------------- table
TEST(TablePrinter, AlignedOutput) {
  TablePrinter table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22222"});
  std::ostringstream os;
  table.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22222"), std::string::npos);
  EXPECT_NE(s.find("|---"), std::string::npos);
}

TEST(TablePrinter, CellCountMismatchThrows) {
  TablePrinter table({"a", "b"});
  EXPECT_THROW(table.add_row({"only one"}), CheckError);
}

TEST(TablePrinter, Formatting) {
  EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::fmt_int(42), "42");
  EXPECT_EQ(TablePrinter::fmt_percent(0.905, 1), "90.5%");
}

}  // namespace
}  // namespace hitopk
