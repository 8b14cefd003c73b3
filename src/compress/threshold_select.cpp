#include "compress/threshold_select.h"

#include <algorithm>
#include <bit>
#include <cmath>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

// One worker's counting pass over [0, n): `fill(base, count, idx)` writes
// the buckets of elements [base, base + count) to idx, then a scalar block
// scatters them into four interleaved sub-histograms so consecutive
// same-bucket hits don't serialize on one counter.  hist must have
// 4 * kBuckets zeroed entries.
template <typename Fill>
void count_blocks(size_t n, size_t* hist, const Fill& fill) {
  constexpr size_t kBlock = 1024;
  size_t* h0 = hist;
  size_t* h1 = h0 + kBuckets;
  size_t* h2 = h1 + kBuckets;
  size_t* h3 = h2 + kBuckets;
  uint32_t idx[kBlock];
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
  // through the same code with a runtime count.
  const size_t full_end = n - n % kBlock;
  for (size_t base = 0; base < full_end; base += kBlock) {
    fill(base, kBlock, idx);
    scatter_block(kBlock);
  }
  fill(full_end, n - full_end, idx);
  scatter_block(n - full_end);
}

// Read 1 over [p, p + n): a vectorizable arithmetic block turns magnitudes
// into buckets, no per-element boundary comparisons or branches.
void count_into(const float* p, size_t n, size_t* hist) {
  count_blocks(n, hist, [p](size_t base, size_t count, uint32_t* idx) {
    const float* q = p + base;
    for (size_t j = 0; j < count; ++j) idx[j] = magnitude_bits_bucket(q[j]);
  });
}

// Read 1 with error feedback folded in: p[j] and r[j] both become
// p[j] + r[j] (the float add of ErrorFeedback::apply_priming, so the same
// bits), and that sum is what is counted.  The shard is read once, instead
// of written by a compensation pass and read again by the count.
void prime_block(float* __restrict__ p, float* __restrict__ r,
                 uint32_t* __restrict__ idx, size_t count) {
  for (size_t j = 0; j < count; ++j) {
    const float sum = p[j] + r[j];
    p[j] = sum;
    r[j] = sum;
    idx[j] = magnitude_bits_bucket(sum);
  }
}

void prime_count_into(float* p, float* r, size_t n, size_t* hist) {
  count_blocks(n, hist, [p, r](size_t base, size_t count, uint32_t* idx) {
    prime_block(p + base, r + base, idx, count);
  });
}

// Counting core: partitions [0, d) into per-worker chunks when the pool
// and the input are both large enough to amortize the extra sub-histogram
// merges, runs `count_chunk(begin, end, hist)` on each, and merges into
// counts[kBuckets].  Bucket counts are integers, so any partitioning merges
// to the identical histogram.
template <typename CountChunk>
void histogram_count(size_t d, std::span<size_t> counts,
                     const CountChunk& count_chunk) {
  HITOPK_CHECK_EQ(counts.size(), kBuckets);
  constexpr size_t kMinChunk = 1 << 16;
  const size_t max_chunks = std::max<size_t>(1, d / kMinChunk);
  const size_t chunks = std::min<size_t>(
      static_cast<size_t>(std::max(1, parallel_threads())), max_chunks);

  Scratch<size_t> hist_buf(chunks * 4 * kBuckets, /*zeroed=*/true);
  size_t* slabs = hist_buf.data();
  if (chunks == 1) {
    count_chunk(0, d, slabs);
  } else {
    parallel_for(0, chunks, [&](size_t c) {
      count_chunk(d * c / chunks, d * (c + 1) / chunks,
                  slabs + c * 4 * kBuckets);
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

// Read 1 of a plain split: x is only read.
struct PlainRead {
  std::span<const float> x;
  void operator()(size_t begin, size_t end, size_t* hist) const {
    count_into(x.data() + begin, end - begin, hist);
  }
};

// Read 1 of a primed split: x is compensated by the residual as it is
// counted.
struct PrimedRead {
  std::span<float> x;
  std::span<float> residual;
  void operator()(size_t begin, size_t end, size_t* hist) const {
    prime_count_into(x.data() + begin, residual.data() + begin, end - begin,
                     hist);
  }
};

// Read 2's output: the index of every magnitude at or above `above_bits`
// goes to `above`, a packed key for every one in [lower_bits, above_bits)
// to `keys`, both in ascending index order.
struct Gathered {
  uint32_t* above;
  size_t* keys;
  size_t n_above = 0;
  size_t n_keys = 0;

  // Files element i, whose magnitude bits m are at least lower_bits.
  void take(uint32_t m, size_t i, uint32_t above_bits) {
    if (m >= above_bits) {
      above[n_above++] = static_cast<uint32_t>(i);
    } else {
      keys[n_keys++] = pack_key(m, i);
    }
  }
};

#if defined(__x86_64__)
// Read 2's gather, a mask walk over 16 floats at a time in SSE2, which
// every x86-64 CPU has, so there is one build and no dispatch: mask the
// sign off, compare against lower_bits - 1 (magnitudes are below 2^31, so
// the signed compare is exact, and lower_bits == 0 wraps to -1, below every
// magnitude), movemask four compares into one 16-bit mask, then visit only
// its set bits with ctz.  Skipping an element below the bucket, which is
// almost every element of a sparse selection, costs no branch of its own.
// The last 0..15 elements are tested one at a time.
void gather(std::span<const float> x, uint32_t lower_bits,
            uint32_t above_bits, Gathered& out) {
  const float* p = x.data();
  const size_t n = x.size();
  const __m128i sign_off = _mm_set1_epi32(0x7FFFFFFF);
  const __m128i floor_bits =
      _mm_set1_epi32(static_cast<int>(lower_bits - 1));
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    unsigned mask = 0;
    for (unsigned q = 0; q < 4; ++q) {
      const __m128i v = _mm_and_si128(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + i + 4 * q)),
          sign_off);
      mask |= static_cast<unsigned>(_mm_movemask_ps(
                  _mm_castsi128_ps(_mm_cmpgt_epi32(v, floor_bits))))
              << (4 * q);
    }
    for (; mask != 0; mask &= mask - 1) {
      const size_t j = i + static_cast<size_t>(std::countr_zero(mask));
      out.take(magnitude_bits(p[j]), j, above_bits);
    }
  }
  for (; i < n; ++i) {
    const uint32_t m = magnitude_bits(p[i]);
    if (m >= lower_bits) out.take(m, i, above_bits);
  }
}
#else
// Read 2's gather, two-phase like the counting read: a constant-trip block
// extracts magnitude bits (vectorizable), then a scalar block compares them
// against the bucket's bit bounds — almost always "below, skip" for sparse
// selections.
void gather(std::span<const float> x, uint32_t lower_bits,
            uint32_t above_bits, Gathered& out) {
  constexpr size_t kBlock = 1024;
  uint32_t mag[kBlock];
  const float* p = x.data();
  auto bits_block = [&](size_t base, size_t count) {
    for (size_t j = 0; j < count; ++j) mag[j] = magnitude_bits(p[base + j]);
  };
  auto gather_block = [&](size_t base, size_t count) {
    for (size_t j = 0; j < count; ++j) {
      if (mag[j] < lower_bits) continue;  // common case first
      out.take(mag[j], base + j, above_bits);
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
}
#endif

// The two data reads every selection here runs on.
//
// Read 1 (`read`, a PlainRead or PrimedRead) counts x into the half-octave
// buckets and scans down to the bucket holding the k-th magnitude; `above`
// elements sit in higher buckets (< k of them, each with strictly larger
// magnitude than every boundary-bucket element, by monotonicity of the
// bucket map).  Read 2 (gather) writes the indices above the boundary
// bucket to `above_idx` (ascending) and the bucket's occupants to `keys` as
// packed keys (ascending index order).  Sizes are known exactly from the
// histogram, so neither output reallocates while being filled.
//
// Requires 0 < k <= x.size().  With `finite_only`, an input holding an inf
// or NaN (bits >= 0x7F800000 land in buckets 510/511) stops after read 1
// with finite = false and nothing gathered; a primed read has compensated
// all of x by then.
struct Split {
  uint32_t bucket = 0;
  size_t above = 0;
  bool finite = true;
};

template <typename Read>
Split split_at_kth(const Read& read, size_t k,
                   std::vector<uint32_t>& above_idx, std::vector<size_t>& keys,
                   bool finite_only = false) {
  const std::span<const float> x = read.x;
  Scratch<size_t> counts(kBuckets, /*zeroed=*/true);
  histogram_count(x.size(), counts.span(), read);
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
  Gathered out{above_idx.data(), keys.data()};
  // First magnitude-bit pattern inside / above the boundary bucket.  For
  // bucket 511 `above_bits` wraps to 0x80000000, which no magnitude
  // reaches — exactly "nothing is above the top bucket".
  const uint32_t lower_bits = split.bucket << 22;
  const uint32_t above_bits = (split.bucket + 1) << 22;
  gather(x, lower_bits, above_bits, out);
  HITOPK_CHECK_EQ(out.n_above, split.above);
  HITOPK_CHECK_EQ(out.n_keys, keys.size());
  return split;
}

// bracket_kth_magnitude's body over either read 1 (requires
// 0 < k < x.size()).
template <typename Read>
MagnitudeBrackets brackets_at_kth(const Read& read, size_t k,
                                  std::vector<uint32_t>* certain,
                                  std::vector<uint32_t>* band) {
  if (certain != nullptr) certain->clear();
  if (band != nullptr) band->clear();
  MagnitudeBrackets out;
  const size_t d = read.x.size();
  out.k2 = d;

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
  const Split split = split_at_kth(read, k, sure, keys.vec(),
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

}  // namespace

MagnitudeBrackets bracket_kth_magnitude(std::span<const float> x, size_t k,
                                        std::vector<uint32_t>* certain,
                                        std::vector<uint32_t>* band) {
  if (x.empty() || k == 0 || k >= x.size()) {
    if (certain != nullptr) certain->clear();
    if (band != nullptr) band->clear();
    MagnitudeBrackets none;  // no bracket to find
    none.k2 = x.size();
    return none;
  }
  return brackets_at_kth(PlainRead{x}, k, certain, band);
}

MagnitudeBrackets bracket_kth_magnitude_primed(std::span<float> x,
                                               std::span<float> residual,
                                               size_t k,
                                               std::vector<uint32_t>* certain,
                                               std::vector<uint32_t>* band) {
  HITOPK_CHECK_EQ(residual.size(), x.size());
  HITOPK_CHECK(k > 0 && k < x.size())
      << "primed brackets need 0 < k < d, got k = " << k
      << ", d = " << x.size();
  return brackets_at_kth(PrimedRead{x, residual}, k, certain, band);
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
  const Split split = split_at_kth(PlainRead{x}, k, out.indices, keys);
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
  const Split split = split_at_kth(PlainRead{x}, k, above_idx.vec(), keys);
  const size_t need = k - split.above;
  std::nth_element(keys.begin(), keys.begin() + static_cast<long>(need - 1),
                   keys.end(), std::greater<size_t>());
  return std::bit_cast<float>(key_bits(keys[need - 1]));
}

}  // namespace hitopk::compress
