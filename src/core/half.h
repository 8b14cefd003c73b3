// IEEE-754 binary16 (FP16) conversion.
//
// Figure 7 of the paper measures collectives on FP16 payloads; V100 tensor
// cores also train in mixed precision.  The simulator moves real bytes, so
// FP16 payloads need a real conversion: round-to-nearest-even float -> half
// and exact half -> float, handling subnormals, infinities, and NaN.
#pragma once

#include <cstdint>
#include <span>

#include "core/isa.h"

namespace hitopk {

// Opaque 16-bit storage type for a half-precision value.
struct Half {
  uint16_t bits = 0;
};

// Converts with round-to-nearest-even, clamping overflow to infinity.
Half float_to_half(float value);

// Exact widening conversion.
float half_to_float(Half h);

// Simulates a round trip through FP16 in place, as mixed-precision
// communication does: bitwise identical to half_to_float(float_to_half(v))
// for every element, NaN payloads included.  Two builds (core/isa.h) give
// the same bits, and the host's build is picked once per process:
//   - baseline: one branch-free lane function over four floats handles
//     every input class (normal, overflow, subnormal, zero, Inf, NaN);
//   - avx2: the F16C conversions (vcvtps2ph with round-to-nearest-even,
//     then vcvtph2ps) eight floats at a time.  They equal the lane function
//     on every non-NaN float but quiet a signalling NaN, so an 8-float block
//     holding a NaN, and a tail shorter than 8, run the lane function.
// The equivalence is checked for each build over all 2^32 float patterns by
// core_test Fp16Codec.BulkMatchesScalarPairOnEveryPattern.
void fp16_round_trip(std::span<float> values);

// Fused variants with the same two builds, for the quantized reduces
// (rt = the fp16 round trip above).  Each takes one pass and is bitwise
// identical to its unfused sequence; dst/acc and src have equal sizes.
//   fp16_round_copy:  dst = rt(src)        (copy, then fp16_round_trip)
//   fp16_round_add:   dst += rt(src)       (round a copy, then add it)
//   fp16_sum_round:   acc = rt(acc + src)  (add, then fp16_round_trip)
// The avx2 build tests src for NaN, except in fp16_sum_round, which tests
// the sum: acc + src is NaN for inf + -inf too.
void fp16_round_copy(std::span<float> dst, std::span<const float> src);
void fp16_round_add(std::span<float> dst, std::span<const float> src);
void fp16_sum_round(std::span<float> acc, std::span<const float> src);

namespace detail {

// The four bulk kernels of one build.  The entry points above run the
// host's build; core_test and bench_micro_compress run each build through
// fp16_kernels().
struct Fp16Kernels {
  void (*round_trip)(std::span<float> values);
  void (*round_copy)(std::span<float> dst, std::span<const float> src);
  void (*round_add)(std::span<float> dst, std::span<const float> src);
  void (*sum_round)(std::span<float> acc, std::span<const float> src);
};

// The kernels of `build`; a CheckError if the host cannot run it.
const Fp16Kernels& fp16_kernels(isa::Build build);

}  // namespace detail
}  // namespace hitopk
