#include "core/half.h"

#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "core/check.h"

namespace hitopk {

Half float_to_half(float value) {
  const uint32_t f = std::bit_cast<uint32_t>(value);
  const uint32_t sign = (f >> 16) & 0x8000u;
  const int32_t exponent = static_cast<int32_t>((f >> 23) & 0xffu) - 127;
  uint32_t mantissa = f & 0x7fffffu;

  if (exponent == 128) {  // Inf or NaN
    // Preserve the top payload bits (including the quiet bit) so every
    // 16-bit NaN pattern survives a half -> float -> half round trip.  Only
    // when the narrowed payload would be all-zero — which would turn the
    // NaN into an infinity — substitute the quiet bit.
    uint16_t payload = static_cast<uint16_t>(mantissa >> 13);
    if (mantissa != 0 && payload == 0) payload = 0x0200u;
    return Half{static_cast<uint16_t>(sign | 0x7c00u | payload)};
  }
  if (exponent > 15) {  // Overflow -> infinity
    return Half{static_cast<uint16_t>(sign | 0x7c00u)};
  }
  if (exponent >= -14) {  // Normal range
    // Round-to-nearest-even on the 13 discarded mantissa bits.
    uint32_t half_exp = static_cast<uint32_t>(exponent + 15);
    uint32_t rounded = (half_exp << 10) | (mantissa >> 13);
    const uint32_t remainder = mantissa & 0x1fffu;
    if (remainder > 0x1000u || (remainder == 0x1000u && (rounded & 1u))) {
      ++rounded;  // May carry into the exponent; that is correct rounding.
    }
    return Half{static_cast<uint16_t>(sign | rounded)};
  }
  if (exponent >= -25) {  // Subnormal half
    mantissa |= 0x800000u;  // Make the implicit bit explicit.
    const int shift = -exponent - 14 + 13;
    uint32_t rounded = mantissa >> shift;
    const uint32_t remainder = mantissa & ((1u << shift) - 1u);
    const uint32_t halfway = 1u << (shift - 1);
    if (remainder > halfway || (remainder == halfway && (rounded & 1u))) {
      ++rounded;
    }
    return Half{static_cast<uint16_t>(sign | rounded)};
  }
  return Half{static_cast<uint16_t>(sign)};  // Underflow -> signed zero
}

float half_to_float(Half h) {
  const uint32_t sign = (static_cast<uint32_t>(h.bits) & 0x8000u) << 16;
  const uint32_t exponent = (h.bits >> 10) & 0x1fu;
  uint32_t mantissa = h.bits & 0x3ffu;

  uint32_t f;
  if (exponent == 0) {
    if (mantissa == 0) {
      f = sign;  // Zero
    } else {
      // Subnormal: normalize by shifting the mantissa up.
      int e = -1;
      do {
        ++e;
        mantissa <<= 1;
      } while ((mantissa & 0x400u) == 0);
      mantissa &= 0x3ffu;
      f = sign | static_cast<uint32_t>(127 - 15 - e) << 23 | (mantissa << 13);
    }
  } else if (exponent == 0x1f) {
    f = sign | 0x7f800000u | (mantissa << 13);  // Inf / NaN
  } else {
    f = sign | ((exponent - 15 + 127) << 23) | (mantissa << 13);
  }
  return std::bit_cast<float>(f);
}

namespace {

// Four float lanes as raw bits.  GCC/Clang vector extensions lower this to
// baseline SSE2 on x86-64 (plain GCC -O2 does not vectorize the equivalent
// scalar loop).  The lane function below is the baseline build of the codec
// and the avx2 build's path for NaN blocks and short tails.
using Bits4 = uint32_t __attribute__((vector_size(16)));
using Float4 = float __attribute__((vector_size(16)));

// Per lane: mask ? a : b, where mask lanes are all-ones or all-zeros.
Bits4 select(Bits4 mask, Bits4 a, Bits4 b) { return (mask & a) | (~mask & b); }

// half_to_float(float_to_half(x)) for four lanes, without branches: every
// input class is computed, then the lane's class selects its result.
// Inlined into every bulk kernel so the loop keeps its constants in
// registers.
[[gnu::always_inline]] inline Bits4 fp16_lane(Bits4 bits) {
  const Bits4 sign = bits & 0x80000000u;
  const Bits4 mag = bits ^ sign;

  // Normal half range and overflow (|x| >= 2^-14): round the low 13
  // mantissa bits to nearest-even in the float encoding itself (add 0xfff
  // plus the tie bit, truncate).  A mantissa carry bumps the exponent —
  // that is the correct rounding — and a result of 2^16 or more (65520,
  // the tie above 65504, rounds there) becomes infinity.
  const Bits4 rounded = (mag + 0xfffu + ((mag >> 13) & 1u)) & ~0x1fffu;
  const Bits4 overflow = Bits4(rounded >= 0x47800000u);
  const Bits4 normal = (overflow & 0x7f800000u) | (~overflow & rounded);

  // Subnormal half range (|x| < 2^-14): the float ulp of 0.5 is 2^-24, the
  // half subnormal spacing, so adding and removing 0.5 rounds to that grid
  // with round-to-nearest-even — exact ties go to the even multiple.  This
  // relies on IEEE float arithmetic (no -ffast-math reassociation).
  const Float4 shifted = std::bit_cast<Float4>(mag) + 0.5f;
  const Bits4 subnormal = std::bit_cast<Bits4>(shifted - 0.5f);

  // Inf and NaN: keep the top 10 payload bits; a NaN whose narrowed payload
  // would be zero (and so read as infinity) gets the quiet bit instead.
  const Bits4 narrowed = mag & ~0x1fffu;
  const Bits4 special =
      narrowed | (Bits4((narrowed == 0x7f800000u) & (mag != 0x7f800000u)) &
                  0x00400000u);

  const Bits4 result =
      select(Bits4(mag < 0x38800000u), subnormal,
             select(Bits4(mag >= 0x7f800000u), special, normal));
  return result | sign;
}

// Streams `n` floats four lanes at a time: kernel(i, lanes) maps the lanes
// starting at element i of the first operand to their result.  The tail runs
// the same kernel on zero-padded lanes and stores only the live ones.
template <class Kernel>
[[gnu::always_inline]] inline void for_each_lanes(float* out, size_t n,
                                                  Kernel kernel) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const Bits4 lanes = kernel(i, size_t{4});
    std::memcpy(out + i, &lanes, sizeof(lanes));
  }
  if (i < n) {
    const Bits4 lanes = kernel(i, n - i);
    std::memcpy(out + i, &lanes, (n - i) * sizeof(float));
  }
}

// Loads `live` floats from p (the rest zero) as raw bits.
[[gnu::always_inline]] inline Bits4 load(const float* p, size_t live) {
  Bits4 lanes{};
  std::memcpy(&lanes, p, live * sizeof(float));
  return lanes;
}

// The baseline build: the lane function over every float of the span.

void round_trip_lanes(std::span<float> values) {
  float* p = values.data();
  for_each_lanes(p, values.size(), [p](size_t i, size_t live) {
    return fp16_lane(load(p + i, live));
  });
}

void round_copy_lanes(std::span<float> dst, std::span<const float> src) {
  const float* s = src.data();
  for_each_lanes(dst.data(), dst.size(), [s](size_t i, size_t live) {
    return fp16_lane(load(s + i, live));
  });
}

void round_add_lanes(std::span<float> dst, std::span<const float> src) {
  float* d = dst.data();
  const float* s = src.data();
  for_each_lanes(d, dst.size(), [d, s](size_t i, size_t live) {
    const Float4 sum = std::bit_cast<Float4>(load(d + i, live)) +
                       std::bit_cast<Float4>(fp16_lane(load(s + i, live)));
    return std::bit_cast<Bits4>(sum);
  });
}

void sum_round_lanes(std::span<float> acc, std::span<const float> src) {
  float* a = acc.data();
  const float* s = src.data();
  for_each_lanes(a, acc.size(), [a, s](size_t i, size_t live) {
    const Float4 sum = std::bit_cast<Float4>(load(a + i, live)) +
                       std::bit_cast<Float4>(load(s + i, live));
    return fp16_lane(std::bit_cast<Bits4>(sum));
  });
}

constexpr detail::Fp16Kernels kBaselineKernels = {
    round_trip_lanes, round_copy_lanes, round_add_lanes, sum_round_lanes};

#if defined(__x86_64__)
// The avx2 build: the hardware narrows (vcvtps2ph, round to nearest even)
// and widens (vcvtph2ps) eight floats at a time.  On every non-NaN float
// that is the lane function's result; on a NaN it is not, because the
// hardware quiets a signalling NaN.  So an 8-float block with a NaN lane,
// and the tail of fewer than 8, run the lane function: every result keeps
// the baseline's bits.  AVX2 and F16C only, never FMA.  The loops are
// written out, because a lambda does not inherit the target attribute.
#define HITOPK_F16C __attribute__((target("avx2,f16c")))

[[gnu::always_inline]] HITOPK_F16C inline bool any_nan(__m256 v) {
  return _mm256_movemask_ps(_mm256_cmp_ps(v, v, _CMP_UNORD_Q)) != 0;
}

[[gnu::always_inline]] HITOPK_F16C inline __m256 f16c_round(__m256 v) {
  return _mm256_cvtph_ps(_mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT));
}

HITOPK_F16C void round_trip_f16c(std::span<float> values) {
  float* p = values.data();
  const size_t n = values.size();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(p + i);
    if (any_nan(v)) {
      round_trip_lanes(values.subspan(i, 8));
    } else {
      _mm256_storeu_ps(p + i, f16c_round(v));
    }
  }
  round_trip_lanes(values.subspan(i));
}

HITOPK_F16C void round_copy_f16c(std::span<float> dst,
                                 std::span<const float> src) {
  float* d = dst.data();
  const float* s = src.data();
  const size_t n = dst.size();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(s + i);
    if (any_nan(v)) {
      round_copy_lanes(dst.subspan(i, 8), src.subspan(i, 8));
    } else {
      _mm256_storeu_ps(d + i, f16c_round(v));
    }
  }
  round_copy_lanes(dst.subspan(i), src.subspan(i));
}

HITOPK_F16C void round_add_f16c(std::span<float> dst,
                                std::span<const float> src) {
  float* d = dst.data();
  const float* s = src.data();
  const size_t n = dst.size();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(s + i);
    if (any_nan(v)) {
      round_add_lanes(dst.subspan(i, 8), src.subspan(i, 8));
    } else {
      _mm256_storeu_ps(d + i,
                       _mm256_add_ps(_mm256_loadu_ps(d + i), f16c_round(v)));
    }
  }
  round_add_lanes(dst.subspan(i), src.subspan(i));
}

HITOPK_F16C void sum_round_f16c(std::span<float> acc,
                                std::span<const float> src) {
  float* a = acc.data();
  const float* s = src.data();
  const size_t n = acc.size();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 sum =
        _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(s + i));
    if (any_nan(sum)) {
      sum_round_lanes(acc.subspan(i, 8), src.subspan(i, 8));
    } else {
      _mm256_storeu_ps(a + i, f16c_round(sum));
    }
  }
  sum_round_lanes(acc.subspan(i), src.subspan(i));
}

#undef HITOPK_F16C

constexpr detail::Fp16Kernels kF16cKernels = {
    round_trip_f16c, round_copy_f16c, round_add_f16c, sum_round_f16c};
#endif

const detail::Fp16Kernels& host_kernels() {
  static const detail::Fp16Kernels& kernels =
      detail::fp16_kernels(isa::host_build());
  return kernels;
}

}  // namespace

namespace detail {

const Fp16Kernels& fp16_kernels(isa::Build build) {
  HITOPK_CHECK(isa::build_supported(build))
      << "fp16 codec build unsupported on host";
#if defined(__x86_64__)
  if (build == isa::Build::kAvx2) return kF16cKernels;
#endif
  return kBaselineKernels;
}

}  // namespace detail

void fp16_round_trip(std::span<float> values) {
  host_kernels().round_trip(values);
}

void fp16_round_copy(std::span<float> dst, std::span<const float> src) {
  host_kernels().round_copy(dst, src);
}

void fp16_round_add(std::span<float> dst, std::span<const float> src) {
  host_kernels().round_add(dst, src);
}

void fp16_sum_round(std::span<float> acc, std::span<const float> src) {
  host_kernels().sum_round(acc, src);
}

}  // namespace hitopk
