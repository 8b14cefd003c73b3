#include "compress/threshold_select.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/check.h"
#include "core/parallel.h"
#include "core/workspace.h"

namespace hitopk::compress {
namespace {

constexpr size_t kBuckets = static_cast<size_t>(kThresholdBuckets);

// Packed selection key: magnitude bits in the high word (IEEE-754
// non-negative floats order like their bit patterns), inverted index in the
// low word, so plain integer std::greater orders "larger magnitude first,
// ties broken by lower index".  Shared by the reference path and the
// histogram repair pass — using the identical comparator is what makes the
// two algorithms bit-identical.
static_assert(sizeof(size_t) == 8, "packed top-k keys need 64 bits");

inline uint32_t magnitude_bits(float v) {
  return std::bit_cast<uint32_t>(v) & 0x7FFFFFFFu;
}

inline size_t pack_key(uint32_t bits, size_t i) {
  return (static_cast<size_t>(bits) << 32) | (~static_cast<uint32_t>(i));
}

inline uint32_t key_bits(size_t key) {
  return static_cast<uint32_t>(key >> 32);
}

inline uint32_t key_index(size_t key) { return ~static_cast<uint32_t>(key); }

// Log-spaced bucket of |v|: exponent byte plus top mantissa bit, in
// [0, kBuckets - 1].  Monotone nondecreasing in |v| because non-negative
// IEEE-754 floats order like their bit patterns and shifting preserves
// order.  Handles denormals, zeros, and infinities uniformly — no
// statistics pass or width arithmetic required.
inline uint32_t magnitude_bits_bucket(float v) {
  return magnitude_bits(v) >> 22;
}

// One worker's counting pass over [p, p + n): a vectorizable arithmetic
// block turns magnitudes into buckets (no per-element boundary comparisons
// or branches), then a scalar block scatters them into four interleaved
// sub-histograms so consecutive same-bucket hits don't serialize on one
// counter.  hist must have 4 * kBuckets zeroed entries.
void count_into(const float* p, size_t n, size_t* hist) {
  constexpr size_t kBlock = 1024;
  size_t* h0 = hist;
  size_t* h1 = h0 + kBuckets;
  size_t* h2 = h1 + kBuckets;
  size_t* h3 = h2 + kBuckets;
  uint32_t idx[kBlock];
  auto index_block = [&](const float* q, size_t count) {
    for (size_t j = 0; j < count; ++j) idx[j] = magnitude_bits_bucket(q[j]);
  };
  auto scatter_block = [&](size_t count) {
    size_t j = 0;
    for (; j + 4 <= count; j += 4) {
      ++h0[idx[j]];
      ++h1[idx[j + 1]];
      ++h2[idx[j + 2]];
      ++h3[idx[j + 3]];
    }
    for (; j < count; ++j) ++h0[idx[j]];
  };
  // Full blocks get a compile-time trip count so the bucket arithmetic
  // vectorizes even under -O2's conservative cost model; the remainder goes
  // through the same lambdas with a runtime count.
  const size_t full_end = n - n % kBlock;
  for (size_t base = 0; base < full_end; base += kBlock) {
    index_block(p + base, kBlock);
    scatter_block(kBlock);
  }
  index_block(p + full_end, n - full_end);
  scatter_block(n - full_end);
}

// Counting core: partitions x into per-worker chunks when the pool and the
// input are both large enough to amortize the extra sub-histogram merges,
// and merges into counts[kBuckets].  Bucket counts are integers, so any
// partitioning merges to the identical histogram.
void histogram_count(std::span<const float> x, std::span<size_t> counts) {
  HITOPK_CHECK_EQ(counts.size(), kBuckets);
  const size_t d = x.size();
  constexpr size_t kMinChunk = 1 << 16;
  const size_t max_chunks = std::max<size_t>(1, d / kMinChunk);
  const size_t chunks = std::min<size_t>(
      static_cast<size_t>(std::max(1, parallel_threads())), max_chunks);

  Scratch<size_t> hist_buf(chunks * 4 * kBuckets, /*zeroed=*/true);
  size_t* slabs = hist_buf.data();
  if (chunks == 1) {
    count_into(x.data(), d, slabs);
  } else {
    parallel_for(0, chunks, [&](size_t c) {
      const size_t begin = d * c / chunks;
      const size_t end = d * (c + 1) / chunks;
      count_into(x.data() + begin, end - begin, slabs + c * 4 * kBuckets);
    });
  }
  for (size_t c = 0; c < chunks; ++c) {
    const size_t* slab = slabs + c * 4 * kBuckets;
    for (size_t s = 0; s < kBuckets; ++s) {
      counts[s] += slab[s] + slab[kBuckets + s] + slab[2 * kBuckets + s] +
                   slab[3 * kBuckets + s];
    }
  }
}

// The two data reads every selection here runs on.
//
// Read 1 counts x into the half-octave buckets and scans down to the
// bucket holding the k-th magnitude; `above` elements sit in higher buckets
// (< k of them, each with strictly larger magnitude than every boundary-
// bucket element, by monotonicity of the bucket map).  Read 2 writes the
// indices above the boundary bucket to `above_idx` (ascending) and the
// bucket's occupants to `keys` as packed keys (ascending index order).
// Sizes are known exactly from the histogram, so neither output
// reallocates while being filled.  Two-phase like the counting read: a
// constant-trip block extracts magnitude bits (vectorizable), then a scalar
// block compares them against the bucket's bit bounds — almost always
// "below, skip" for sparse selections.
//
// Requires 0 < k <= x.size().  With `finite_only`, an input holding an inf
// or NaN (bits >= 0x7F800000 land in buckets 510/511) stops after read 1
// with finite = false and nothing gathered.
struct Split {
  uint32_t bucket = 0;
  size_t above = 0;
  bool finite = true;
};

Split split_at_kth(std::span<const float> x, size_t k,
                   std::vector<uint32_t>& above_idx, std::vector<size_t>& keys,
                   bool finite_only = false) {
  Scratch<size_t> counts(kBuckets, /*zeroed=*/true);
  histogram_count(x, counts.span());
  Split split;
  if (finite_only && counts[510] + counts[511] > 0) {
    split.finite = false;
    return split;
  }
  for (int b = kThresholdBuckets - 1;; --b) {
    HITOPK_CHECK_GE(b, 0) << "histogram lost elements";  // all d >= k counted
    const size_t c = counts[static_cast<size_t>(b)];
    if (split.above + c >= k) {
      split.bucket = static_cast<uint32_t>(b);
      break;
    }
    split.above += c;
  }

  above_idx.resize(split.above);
  keys.resize(counts[split.bucket]);
  uint32_t* above_out = above_idx.data();
  size_t* keys_out = keys.data();
  size_t n_above = 0;
  size_t n_keys = 0;
  // First magnitude-bit pattern inside / above the boundary bucket.  For
  // bucket 511 `above_bits` wraps to 0x80000000, which no magnitude
  // reaches — exactly "nothing is above the top bucket".
  const uint32_t lower_bits = split.bucket << 22;
  const uint32_t above_bits = (split.bucket + 1) << 22;
  constexpr size_t kBlock = 1024;
  uint32_t mag[kBlock];
  const float* p = x.data();
  auto bits_block = [&](size_t base, size_t count) {
    for (size_t j = 0; j < count; ++j) mag[j] = magnitude_bits(p[base + j]);
  };
  auto gather_block = [&](size_t base, size_t count) {
    for (size_t j = 0; j < count; ++j) {
      const uint32_t m = mag[j];
      if (m < lower_bits) continue;  // common case first
      const size_t i = base + j;
      if (m >= above_bits) {
        above_out[n_above++] = static_cast<uint32_t>(i);
      } else {
        keys_out[n_keys++] = pack_key(m, i);
      }
    }
  };
  const size_t d = x.size();
  const size_t full_end = d - d % kBlock;
  for (size_t base = 0; base < full_end; base += kBlock) {
    bits_block(base, kBlock);
    gather_block(base, kBlock);
  }
  bits_block(full_end, d - full_end);
  gather_block(full_end, d - full_end);
  HITOPK_CHECK_EQ(n_above, split.above);
  HITOPK_CHECK_EQ(n_keys, keys.size());
  return split;
}

}  // namespace

MagnitudeBrackets bracket_kth_magnitude(std::span<const float> x, size_t k,
                                        std::vector<uint32_t>* certain,
                                        std::vector<uint32_t>* band) {
  MagnitudeBrackets out;
  const size_t d = x.size();
  out.k2 = d;
  if (certain != nullptr) certain->clear();
  if (band != nullptr) band->clear();
  if (d == 0 || k == 0 || k >= d) return out;  // no bracket to find

  // Elements above the boundary bucket are certain winners; the bucket's
  // occupants are candidates carrying their magnitude bits.  Non-finite
  // magnitudes: no representable threshold can discriminate above an
  // infinity, and a NaN poisons every magnitude comparison — report "no
  // bracket" so the caller can fall back, exactly like the legacy searches
  // whose mean/max statistics a non-finite input poisons.
  Scratch<uint32_t> own_certain(0);
  std::vector<uint32_t>& sure = certain != nullptr ? *certain
                                                   : own_certain.vec();
  Scratch<size_t> keys(0);
  const Split split = split_at_kth(x, k, sure, keys.vec(),
                                   /*finite_only=*/true);
  if (!split.finite) {
    out.finite = false;
    return out;
  }
  const uint32_t bucket = split.bucket;

  // Exact 512-way refinement on the candidates' mantissa bits 13..21 —
  // O(bucket occupancy), no further pass over x.
  Scratch<size_t> fine(kBuckets, /*zeroed=*/true);
  for (const size_t key : keys.vec()) {
    ++fine[(key_bits(key) >> 13) & (kBuckets - 1)];
  }
  size_t above = split.above;
  uint32_t sub = 0;
  for (int b = kThresholdBuckets - 1; b >= 0; --b) {
    const size_t c = fine[static_cast<size_t>(b)];
    if (above + c >= k) {
      sub = static_cast<uint32_t>(b);
      break;
    }
    above += c;
    HITOPK_CHECK_GT(b, 0) << "refinement histogram lost elements";
  }

  // Bracket boundaries as exact bit patterns: the sub-bucket's own lower
  // edge (loose side) and the next sub-bucket edge (tight side, with
  // natural carry into the next half-octave).
  const uint32_t edge2 = ((bucket << 9) | sub) << 13;
  const uint32_t edge1 = (((bucket << 9) | sub) + 1) << 13;
  out.k1 = above;                                 // |x| >= edge1, < k of them
  out.k2 = above + fine[sub];                     // |x| >= edge2, >= k
  out.thres2 = std::bit_cast<float>(edge2);
  bool promoted = false;
  if (out.k2 == k) {
    // The loose edge already selects exactly k: promote it to the
    // certain-set threshold; no band is needed.
    out.thres1 = out.thres2;
    out.k1 = k;
    out.thres2 = 0.0f;
    out.k2 = d;
    promoted = true;
  } else {
    // All inputs are finite (checked above), so bucket <= 509 and the
    // tight edge is always representable (at worst +inf, which selects
    // zero finite elements).
    out.thres1 = std::bit_cast<float>(edge1);
  }

  // Split the candidates across the refined edge: at or above the tight
  // edge they are certain (promoted: at or above the loose edge), inside
  // [edge2, edge1) they form the band, ascending index order preserved.
  if (certain != nullptr || band != nullptr) {
    const uint32_t certain_edge = promoted ? edge2 : edge1;
    for (const size_t key : keys.vec()) {
      const uint32_t bits = key_bits(key);
      if (bits >= certain_edge) {
        sure.push_back(key_index(key));
      } else if (bits >= edge2 && band != nullptr) {
        band->push_back(key_index(key));
      }
    }
    HITOPK_CHECK_EQ(sure.size(), out.k1);
  }
  return out;
}

// The reference selection: nth_element over all packed keys.
SparseTensor select_topk_nth(std::span<const float> x, size_t k) {
  SparseTensor out;
  out.dense_size = x.size();
  k = std::min(k, x.size());
  if (k == 0) return out;
  Scratch<size_t> keys_buf(x.size());
  size_t* keys = keys_buf.data();
  for (size_t i = 0; i < x.size(); ++i) {
    keys[i] = pack_key(magnitude_bits(x[i]), i);
  }
  std::nth_element(keys, keys + (k - 1), keys + x.size(),
                   std::greater<size_t>());
  out.indices.resize(k);
  for (size_t i = 0; i < k; ++i) {
    out.indices[i] = key_index(keys[i]);
  }
  std::sort(out.indices.begin(), out.indices.end());
  out.values.resize(k);
  for (size_t i = 0; i < k; ++i) out.values[i] = x[out.indices[i]];
  return out;
}

float topk_threshold_nth(std::span<const float> x, size_t k) {
  k = std::min(k, x.size());
  if (k == 0) return 0.0f;
  // Rank magnitude bits instead of fabs floats: same order (non-negative
  // IEEE floats order like their bit patterns) and total even on
  // adversarial bit patterns, like the histogram repair's packed keys,
  // whose high word is exactly these bits.
  Scratch<uint32_t> mags(x.size());
  for (size_t i = 0; i < x.size(); ++i) mags[i] = magnitude_bits(x[i]);
  std::nth_element(mags.vec().begin(),
                   mags.vec().begin() + static_cast<long>(k - 1),
                   mags.vec().end(), std::greater<uint32_t>());
  return std::bit_cast<float>(mags[k - 1]);
}

SparseTensor exact_topk(std::span<const float> x, size_t k) {
  SparseTensor out;
  out.dense_size = x.size();
  k = std::min(k, x.size());
  if (k == 0) return out;
  if (x.size() < kHistogramMinSize) return select_topk_nth(x, k);

  // The split's above-bucket indices go straight into the output; the
  // remaining (k - above) slots go to the best boundary-bucket candidates
  // under the reference comparator.  nth_element over just the boundary
  // bucket (a half-octave of magnitudes; all of d only when every element
  // shares one bucket) replaces the reference's nth_element over d.
  out.indices.reserve(k);
  Scratch<size_t> keys_buf(0);
  std::vector<size_t>& keys = keys_buf.vec();
  const Split split = split_at_kth(x, k, out.indices, keys);
  const size_t need = k - split.above;
  if (need < keys.size()) {
    std::nth_element(keys.begin(), keys.begin() + static_cast<long>(need - 1),
                     keys.end(), std::greater<size_t>());
  }
  for (size_t i = 0; i < need; ++i) out.indices.push_back(key_index(keys[i]));

  std::sort(out.indices.begin(), out.indices.end());
  out.values.resize(k);
  for (size_t i = 0; i < k; ++i) out.values[i] = x[out.indices[i]];
  return out;
}

float exact_topk_threshold(std::span<const float> x, size_t k) {
  k = std::min(k, x.size());
  if (k == 0) return 0.0f;
  if (x.size() < kHistogramMinSize) return topk_threshold_nth(x, k);

  // The k-th magnitude overall is the (k - above)-th largest within the
  // boundary bucket (same set argument as exact_topk).
  Scratch<uint32_t> above_idx(0);
  Scratch<size_t> keys_buf(0);
  std::vector<size_t>& keys = keys_buf.vec();
  const Split split = split_at_kth(x, k, above_idx.vec(), keys);
  const size_t need = k - split.above;
  std::nth_element(keys.begin(), keys.begin() + static_cast<long>(need - 1),
                   keys.end(), std::greater<size_t>());
  return std::bit_cast<float>(key_bits(keys[need - 1]));
}

}  // namespace hitopk::compress
