// IEEE-754 binary16 (FP16) conversion.
//
// Figure 7 of the paper measures collectives on FP16 payloads; V100 tensor
// cores also train in mixed precision.  The simulator moves real bytes, so
// FP16 payloads need a real conversion: round-to-nearest-even float -> half
// and exact half -> float, handling subnormals, infinities, and NaN.
#pragma once

#include <cstdint>
#include <span>

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
// for every element.  One branch-free lane function handles every input
// class (normal, overflow, subnormal, zero, Inf, NaN); the equivalence is
// checked over all 2^32 float patterns by
// core_test Fp16Codec.BulkMatchesScalarPairOnEveryPattern.
void fp16_round_trip(std::span<float> values);

// Fused variants over the same lane function, for the quantized reduces
// (rt = the fp16 round trip above).  Each takes one pass and is bitwise
// identical to its unfused sequence; dst/acc and src have equal sizes.
//   fp16_round_copy:  dst = rt(src)        (copy, then fp16_round_trip)
//   fp16_round_add:   dst += rt(src)       (round a copy, then add it)
//   fp16_sum_round:   acc = rt(acc + src)  (add, then fp16_round_trip)
void fp16_round_copy(std::span<float> dst, std::span<const float> src);
void fp16_round_add(std::span<float> dst, std::span<const float> src);
void fp16_sum_round(std::span<float> acc, std::span<const float> src);

}  // namespace hitopk
