#include "compress/wire_codec.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/check.h"
#include "core/half.h"
#include "core/parallel.h"
#include "core/tensor.h"

namespace hitopk::compress {

const char* wire_dtype_name(WireDtype dtype) {
  switch (dtype) {
    case WireDtype::kFp16: return "fp16";
    case WireDtype::kInt8: return "int8";
    case WireDtype::kFp32: default: return "fp32";
  }
}

namespace {

// Largest finite |x| in one chunk; NaN compares false, so it never becomes
// the max, and Inf is rejected explicitly.
float chunk_maxabs(std::span<const float> values) {
  float maxabs = 0.0f;
  for (float v : values) {
    const float a = std::fabs(v);
    if (std::isfinite(a) && a > maxabs) maxabs = a;
  }
  return maxabs;
}

// The max of the per-chunk maxima: max is exact and order-free, so this
// equals the serial scan at every pool width.
float finite_maxabs(std::span<const float> values) {
  const size_t chunks = parallel_chunk_count(values.size());
  if (chunks <= 1) return chunk_maxabs(values);
  std::vector<float> maxima(chunks, 0.0f);
  parallel_chunks(values.size(), [&](size_t lo, size_t hi) {
    maxima[lo / kParallelChunk] = chunk_maxabs(values.subspan(lo, hi - lo));
  });
  return *std::max_element(maxima.begin(), maxima.end());
}

// Runs a two-operand fp16 kernel on every chunk of (dst, src) over the pool.
template <class Kernel>
void fp16_chunked(std::span<float> dst, std::span<const float> src,
                  Kernel kernel) {
  parallel_chunks(dst.size(), [&](size_t lo, size_t hi) {
    kernel(dst.subspan(lo, hi - lo), src.subspan(lo, hi - lo));
  });
}

// Calls store(i, rt(src[i])) for every i at the int8 scale of src, chunk by
// chunk over the pool.  An all-zero / all-non-finite shard (scale 0) and
// Inf/NaN values pass through unchanged.
template <class Store>
void int8_apply(std::span<const float> src, Store store) {
  const float scale = int8_wire_scale(src);
  const float inv = scale == 0.0f ? 0.0f : 1.0f / scale;  // exact: 2^k
  parallel_chunks(src.size(), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const float v = src[i];
      if (scale == 0.0f || !std::isfinite(v)) {
        store(i, v);
        continue;
      }
      // TF-style round-half-away-from-zero, saturating to the int8 range.
      const long q = std::clamp(std::lround(v * inv), -127l, 127l);
      store(i, static_cast<float>(q) * scale);
    }
  });
}

}  // namespace

float int8_wire_scale(std::span<const float> values) {
  const float maxabs = finite_maxabs(values);
  if (maxabs == 0.0f) return 0.0f;
  int e = 0;
  std::frexp(maxabs, &e);         // maxabs = m * 2^e, m in [0.5, 1)
  return std::ldexp(1.0f, e - 7);  // quantized magnitudes land in [64, 127]
}

void wire_round_trip(WireDtype dtype, std::span<float> values) {
  switch (dtype) {
    case WireDtype::kFp32: return;
    case WireDtype::kFp16:
      parallel_chunks(values.size(), [&](size_t lo, size_t hi) {
        fp16_round_trip(values.subspan(lo, hi - lo));
      });
      return;
    case WireDtype::kInt8:
      int8_apply(values, [&](size_t i, float q) { values[i] = q; });
      return;
  }
}

void wire_round_copy(WireDtype dtype, std::span<float> dst,
                     std::span<const float> src) {
  HITOPK_CHECK_EQ(dst.size(), src.size());
  switch (dtype) {
    case WireDtype::kFp32:
      std::copy(src.begin(), src.end(), dst.begin());
      return;
    case WireDtype::kFp16: fp16_chunked(dst, src, fp16_round_copy); return;
    case WireDtype::kInt8:
      int8_apply(src, [&](size_t i, float q) { dst[i] = q; });
      return;
  }
}

void wire_round_add(WireDtype dtype, std::span<float> dst,
                    std::span<const float> src) {
  HITOPK_CHECK_EQ(dst.size(), src.size());
  switch (dtype) {
    case WireDtype::kFp32: tensor_ops::add_into(dst, src); return;
    case WireDtype::kFp16: fp16_chunked(dst, src, fp16_round_add); return;
    case WireDtype::kInt8:
      int8_apply(src, [&](size_t i, float q) { dst[i] += q; });
      return;
  }
}

void wire_sum_round(WireDtype dtype, std::span<float> acc,
                    std::span<const float> src) {
  HITOPK_CHECK_EQ(acc.size(), src.size());
  switch (dtype) {
    case WireDtype::kFp32: tensor_ops::add_into(acc, src); return;
    case WireDtype::kFp16: fp16_chunked(acc, src, fp16_sum_round); return;
    case WireDtype::kInt8:
      tensor_ops::add_into(acc, src);
      wire_round_trip(dtype, acc);
      return;
  }
}

}  // namespace hitopk::compress
