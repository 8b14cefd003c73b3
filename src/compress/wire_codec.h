// Typed transfer payloads: the wire dtype of a scheduled transfer.
//
// The paper's premise is that 25 Gbps cloud interconnects — not compute —
// bound scaling, so communication volume is the highest-leverage axis.  A
// schedule buffer therefore carries a *wire dtype*: the representation its
// bytes travel in.  fp32 is the identity; fp16 halves the bytes through the
// core/half round trip; int8 quarters them through a per-shard power-of-two
// linear quantizer with TF-style round-half-away-from-zero (see TensorFlow's
// quantization_utils for the rounding/range idiom).
//
// The codec contract (docs/INTERNALS.md "Typed transfer payloads"):
//   encode(decode(x)) == decode(x)  — the round trip is *idempotent*, so a
//   value that has already crossed one hop re-encodes bitwise-identically on
//   the next hop.  This is what makes a resolved multi-hop schedule (copy
//   straight from the owner) equal forwarding the chunk hop by hop, and what
//   keeps every replica of an allgathered chunk identical.
//
// For int8 the scale is a power of two derived from the shard's max
// magnitude: frexp(maxabs) = m * 2^e with m in [0.5, 1), scale = 2^(e-7),
// so quantized magnitudes land in [64, 127] and re-deriving the scale from
// the decoded values yields the same exponent — idempotence by construction.
// Each int8 shard ships one 4-byte scale record on the wire
// (wire_scale_bytes); fp16 needs none.  Non-finite values pass through
// unchanged (quantizing an Inf/NaN shard would be garbage either way), and
// an all-zero shard is left untouched.
#pragma once

#include <cstddef>
#include <span>

namespace hitopk::compress {

enum class WireDtype : unsigned char {
  kFp32 = 0,  // identity: 4 bytes/element, no codec
  kFp16 = 1,  // core/half round-to-nearest-even: 2 bytes/element
  kInt8 = 2,  // power-of-two linear quantizer: 1 byte/element + 4-byte scale
};

const char* wire_dtype_name(WireDtype dtype);

// Bytes per element as transferred on the wire.
inline size_t wire_elem_bytes(WireDtype dtype) {
  switch (dtype) {
    case WireDtype::kFp16: return 2;
    case WireDtype::kInt8: return 1;
    case WireDtype::kFp32: default: return 4;
  }
}

// Per-shard scale-record overhead (int8 ships one fp32 scale per transfer).
inline size_t wire_scale_bytes(WireDtype dtype) {
  return dtype == WireDtype::kInt8 ? 4 : 0;
}

// Total wire bytes for a `count`-element shard: payload + scale record.
inline size_t wire_payload_bytes(WireDtype dtype, size_t count) {
  return count * wire_elem_bytes(dtype) + wire_scale_bytes(dtype);
}

// The power-of-two scale the int8 codec would use for this shard: 2^(e-7)
// where frexp(max |x| over finite values) has exponent e.  Returns 0 when
// the shard has no finite non-zero value (the codec then passes the shard
// through unchanged).
float int8_wire_scale(std::span<const float> values);

// Simulates one shard crossing the wire at `dtype`, in place:
//   kFp32 — no-op;
//   kFp16 — core/half fp16_round_trip (RNE, subnormals, NaN/Inf preserved);
//   kInt8 — q = clamp(round-half-away(x / scale), -127, 127), x = q * scale,
//           non-finite values untouched.
// Idempotent for every dtype: a second call is bitwise a no-op.
//
// The shard is split into core/parallel.h's fixed chunks on the pool: fp16
// is elementwise, and int8 takes the max of the per-chunk maxima (exact and
// order-free) as its scale, so the result is bitwise independent of the
// pool width.
void wire_round_trip(WireDtype dtype, std::span<float> values);

// The quantized reduce kernels: one fused pass each where the codec allows,
// bitwise identical to the unfused sequence (rt = wire_round_trip at
// `dtype`; dst/acc and src have equal sizes and do not overlap).
//   wire_round_copy:  dst = rt(src)        (copy, then round dst)
//   wire_round_add:   dst += rt(src)       (round a copy of src, add it)
//   wire_sum_round:   acc = rt(acc + src)  (add, then round acc)
// int8's scale for rt(src) comes from src, so copy and add scan src once
// for its max and then quantize in one pass; wire_sum_round's scale needs
// the whole partial sum, so at int8 it adds and then rounds in two passes.
// Split over the pool like wire_round_trip; kFp32 is the plain copy/add.
void wire_round_copy(WireDtype dtype, std::span<float> dst,
                     std::span<const float> src);
void wire_round_add(WireDtype dtype, std::span<float> dst,
                    std::span<const float> src);
void wire_sum_round(WireDtype dtype, std::span<float> acc,
                    std::span<const float> src);

}  // namespace hitopk::compress
