// Shared magnitude-histogram threshold selection.
//
// Every top-k flavour in this library ultimately needs the same primitive:
// "where does the k-th largest |x(i)| sit?".  The generic answer
// (std::nth_element over d elements) is a cache-hostile partial sort that
// dominated the TopK-SGD iteration; this module answers it with one split
// into two blocked data reads, shared by every entry point below:
//
//   read 1 — a parallel counting pass over *log-spaced* buckets read
//     straight off the magnitude bits ((bits & 0x7FFFFFFF) >> 22: exponent
//     plus top mantissa bit) and a suffix scan to the bucket holding the
//     k-th magnitude.  IEEE-754 magnitude bits order like magnitudes, so
//     the map is monotone and needs no statistics pass, no width
//     arithmetic, and no degenerate-range fallbacks;
//   read 2 — a gather of the indices above that bucket (certain winners)
//     and of the bucket's occupants as packed magnitude/index keys.  On
//     x86-64 it compares 16 magnitudes at a time (SSE2) and walks only the
//     set bits of the compare mask; elsewhere it tests each element.
//
// MSTopK under error feedback runs a primed read 1
// (bracket_kth_magnitude_primed): the counting pass also adds the
// residual into the shard, so compensation costs no pass of its own.
//
// exact_topk() / exact_topk_threshold() resolve the boundary exactly with
// nth_element over just those keys, on the same comparator the reference
// uses.  Elements in higher buckets have strictly larger magnitudes than
// every boundary-bucket element, so the selected set — indices AND values —
// is bit-identical to the nth_element reference for every input bit
// pattern.  bracket_kth_magnitude() refines the keys' bits instead, for
// MSTopK's bracket search.
//
// select_topk_nth() / topk_threshold_nth() are that packed-key nth_element
// reference, at every size (exact_topk itself takes it below
// kHistogramMinSize); tests/threshold_select_test.cpp pins the two paths
// bit-identical across adversarial distributions, and bench_micro_compress
// times one against the other.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "compress/sparse_tensor.h"

namespace hitopk::compress {

// Bucket count shared by every histogram user (MSTopK brackets + exact
// selection): 512 buckets bracket a threshold as tightly as 9 binary-search
// counting passes (2^9 = 512) while reading the data once.
inline constexpr int kThresholdBuckets = 512;

// Below this size the histogram's fixed two-pass cost loses to a direct
// nth_element; both paths return bit-identical results, so the cutoff is
// purely a performance heuristic.
inline constexpr size_t kHistogramMinSize = 2048;

// Exact magnitude brackets around the k-th largest |x(i)| from the same two
// data reads as exact selection — the machinery MSTopK's bracket search
// runs on: read 1 locates the half-octave bucket holding the k-th
// magnitude, read 2 emits the indices above it and the bucket's packed
// keys, and a 512-way sub-histogram of those keys' bits (mantissa bits
// 13..21, O(bucket) work — no third read) refines the bracket to 2^13 ulps
// of the k-th magnitude, tighter than a (max-mean)/512 linear bucket for
// anything Gaussian-shaped.
//
// Because every boundary is an exact float bit pattern (not float
// arithmetic on mean/max), the counts are exact by construction: no
// statistics pass and no verification recount — the same read structure as
// exact selection.  Conventions match MsTopKStats: thres1 is the tightest
// boundary selecting k1 <= k elements (0 when no representable boundary
// does — ties at the top of the float range); thres2 the loosest boundary
// selecting k2 > k (0 when the bracket reaches the bottom of the float
// range, or when thres1 already selects exactly k and no band is needed).
//
// When `certain` / `band` are non-null they are overwritten with the
// selection sets of the brackets: `certain` holds the k1 indices with
// |x(i)| >= thres1 (every one belongs to the true top-k), `band` the
// k2 - k1 indices with thres2 <= |x(i)| < thres1 in ascending index order
// (what MSTopK draws its random run from).  With k == 0 or k >= x.size()
// there is no bracket; both sets come back empty.  Inputs containing any
// non-finite magnitude (inf or NaN) set finite = false and return no
// bracket either — thresholds cannot discriminate above an infinity, and
// the legacy searches' mean/max statistics are equally poisoned there;
// callers fall back (MSTopK keeps its legacy first-k fallback).
struct MagnitudeBrackets {
  float thres1 = 0.0f;
  float thres2 = 0.0f;
  size_t k1 = 0;
  size_t k2 = 0;
  bool finite = true;
};

MagnitudeBrackets bracket_kth_magnitude(std::span<const float> x, size_t k,
                                        std::vector<uint32_t>* certain = nullptr,
                                        std::vector<uint32_t>* band = nullptr);

// bracket_kth_magnitude() of the error-feedback-compensated x, with the
// compensation folded into read 1: as each element is counted, x[i] and
// residual[i] both become x[i] + residual[i] — the float add of
// ErrorFeedback::apply_priming, so the brackets and both buffers hold the
// same bits as apply_priming followed by bracket_kth_magnitude.  Requires
// 0 < k < x.size(): with nothing to bracket there is no read to fold the
// add into, and the caller (MsTopK::compress) primes those cases itself.
// Every return primes the whole of x exactly once; a non-finite input
// returns finite = false after read 1, which has primed it.  x and residual
// must be the same size and must not overlap.
MagnitudeBrackets bracket_kth_magnitude_primed(
    std::span<float> x, std::span<float> residual, size_t k,
    std::vector<uint32_t>* certain = nullptr,
    std::vector<uint32_t>* band = nullptr);

// Exact top-k (the nn.topk baseline of Fig. 6): exactly min(k, x.size())
// elements with the largest |x(i)|, ties broken by lower index; indices
// sorted ascending, values gathered from x.
SparseTensor exact_topk(std::span<const float> x, size_t k);

// The k-th largest |x(i)| (the exact threshold `thres` of Eq. 2); 0 when
// k == 0 or x is empty.
float exact_topk_threshold(std::span<const float> x, size_t k);

// The packed-key std::nth_element reference for the two functions above:
// bit-identical results for every input bit pattern, at nth_element speed.
SparseTensor select_topk_nth(std::span<const float> x, size_t k);
float topk_threshold_nth(std::span<const float> x, size_t k);

}  // namespace hitopk::compress
