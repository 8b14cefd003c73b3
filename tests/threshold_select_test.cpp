// Property tests pinning the histogram threshold-selection fast path
// (compress/threshold_select.h) bit-identical — indices AND values — to the
// packed-key nth_element reference across adversarial distributions: ties,
// denormals, all-equal, infinities, signed zeros, and skewed magnitude
// spreads.  Bit-identity (not closeness) is what lets every consumer
// (exact_topk, DGC's re-selection, gTop-k, the TopK-SGD convergence path)
// run the fast path alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "compress/threshold_select.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/tensor.h"

namespace hitopk::compress {
namespace {

struct NamedInput {
  std::string name;
  Tensor x;
};

// Sizes straddle kHistogramMinSize so both the histogram path and the
// small-input nth_element cutoff are exercised.
std::vector<NamedInput> adversarial_inputs() {
  std::vector<NamedInput> inputs;
  {
    Rng rng(301);
    Tensor x(20000);
    x.fill_normal(rng, 0.0f, 1.0f);
    inputs.push_back({"gaussian", std::move(x)});
  }
  {
    // Heavy ties: every element is one of three magnitudes, so the boundary
    // bucket holds thousands of equal keys and selection is decided purely
    // by the index tie-break.
    Rng rng(303);
    Tensor x(8192);
    for (size_t i = 0; i < x.size(); ++i) {
      const uint64_t r = rng.uniform_index(3);
      x[i] = (r == 0 ? 0.5f : r == 1 ? -2.0f : 8.0f);
    }
    inputs.push_back({"tied", std::move(x)});
  }
  {
    Tensor x(4096);
    x.fill(-3.25f);
    inputs.push_back({"all_equal", std::move(x)});
  }
  {
    Tensor x(4096);
    inputs.push_back({"all_zero", std::move(x)});
  }
  {
    // Denormals (several sub-normal magnitudes plus zeros): the log-spaced
    // bit buckets must rank them without any width arithmetic blowing up.
    Rng rng(307);
    Tensor x(4096);
    for (size_t i = 0; i < x.size(); ++i) {
      const uint64_t r = rng.uniform_index(4);
      x[i] = r == 0   ? 0.0f
             : r == 1 ? 1.0e-40f
             : r == 2 ? -1.2e-40f
                      : 1.3e-44f;
    }
    inputs.push_back({"denormal", std::move(x)});
  }
  {
    // Infinities and huge finite spikes on a near-zero noise floor.
    Rng rng(311);
    Tensor x(16384);
    x.fill_normal(rng, 0.0f, 1e-6f);
    for (size_t i = 0; i < 16; ++i) {
      x[i * 911] = (i % 2 ? 1.0f : -1.0f) *
                   std::numeric_limits<float>::infinity();
      x[i * 911 + 7] = (i % 2 ? 3.4e38f : -3.4e38f);
    }
    inputs.push_back({"infinities", std::move(x)});
  }
  {
    // Signed zeros mixed with tiny values: -0.0 and +0.0 share a magnitude
    // and must tie-break by index identically in both paths.
    Tensor x(4096);
    for (size_t i = 0; i < x.size(); ++i) {
      x[i] = (i % 3 == 0) ? -0.0f : (i % 3 == 1) ? 0.0f : 1e-30f;
    }
    inputs.push_back({"signed_zero", std::move(x)});
  }
  {
    // Log-spaced magnitudes across 8 decades: every bit bucket in a wide
    // range is populated.
    Rng rng(313);
    Tensor x(10000);
    for (size_t i = 0; i < x.size(); ++i) {
      const double exponent = rng.uniform(-4.0, 4.0);
      x[i] = static_cast<float>(std::pow(10.0, exponent)) *
             (rng.uniform() < 0.5 ? -1.0f : 1.0f);
    }
    inputs.push_back({"log_spaced", std::move(x)});
  }
  {
    // Small input: exercises the kHistogramMinSize cutoff path.
    Rng rng(317);
    Tensor x(257);
    x.fill_normal(rng, 0.0f, 2.0f);
    inputs.push_back({"small", std::move(x)});
  }
  return inputs;
}

void expect_bit_identical(const SparseTensor& a, const SparseTensor& b,
                          const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.indices, b.indices);
  ASSERT_EQ(a.values.size(), b.values.size());
  for (size_t i = 0; i < a.values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint32_t>(a.values[i]),
              std::bit_cast<uint32_t>(b.values[i]))
        << "value bits differ at " << i;
  }
}

TEST(ThresholdSelect, SelectionBitIdenticalToNthElementReference) {
  for (auto& input : adversarial_inputs()) {
    const size_t d = input.x.size();
    for (size_t k : {size_t{1}, size_t{2}, d / 1000 + 1, d / 100 + 1, d / 10,
                     d - 1, d, d + 5}) {
      if (k == 0) continue;
      const SparseTensor fast = exact_topk(input.x.span(), k);
      const SparseTensor ref = select_topk_nth(input.x.span(), k);
      expect_bit_identical(fast, ref,
                           input.name + " k=" + std::to_string(k));
      EXPECT_EQ(fast.nnz(), std::min(k, d));
    }
  }
}

TEST(ThresholdSelect, ThresholdBitIdenticalToNthElementReference) {
  for (auto& input : adversarial_inputs()) {
    const size_t d = input.x.size();
    for (size_t k : {size_t{1}, d / 100 + 1, d / 10, d}) {
      const float fast = exact_topk_threshold(input.x.span(), k);
      const float ref = topk_threshold_nth(input.x.span(), k);
      EXPECT_EQ(std::bit_cast<uint32_t>(fast), std::bit_cast<uint32_t>(ref))
          << input.name << " k=" << k;
    }
  }
}

TEST(ThresholdSelect, ThresholdMatchesKthSelectedMagnitude) {
  for (auto& input : adversarial_inputs()) {
    const size_t k = input.x.size() / 50 + 1;
    const SparseTensor sel = exact_topk(input.x.span(), k);
    const float thres = exact_topk_threshold(input.x.span(), k);
    // The threshold is the smallest selected magnitude.
    float smallest = std::numeric_limits<float>::infinity();
    for (float v : sel.values) smallest = std::min(smallest, std::fabs(v));
    EXPECT_EQ(std::bit_cast<uint32_t>(thres),
              std::bit_cast<uint32_t>(smallest))
        << input.name;
  }
}

TEST(ThresholdSelect, IdenticalAcrossThreadCounts) {
  // The counting pass partitions across the pool; integer bucket counts
  // make the merged histogram — and therefore the selection — independent
  // of the partitioning.
  Rng rng(401);
  Tensor x(1 << 18);
  x.fill_normal(rng, 0.0f, 1.0f);
  const size_t k = x.size() / 500;
  const int previous = parallel_threads();
  set_parallel_threads(1);
  const SparseTensor serial = exact_topk(x.span(), k);
  set_parallel_threads(4);
  const SparseTensor parallel = exact_topk(x.span(), k);
  set_parallel_threads(previous);
  expect_bit_identical(serial, parallel, "thread sweep");
}

TEST(ThresholdSelect, EmptyAndZeroK) {
  Tensor empty;
  Rng rng(403);
  Tensor x(4096);
  x.fill_normal(rng, 0.0f, 1.0f);
  for (const auto& input : {empty.span(), x.span()}) {
    const size_t k = input.empty() ? 5 : 0;
    EXPECT_EQ(exact_topk(input, k).nnz(), 0u);
    EXPECT_EQ(exact_topk_threshold(input, k), 0.0f);
    EXPECT_EQ(select_topk_nth(input, k).nnz(), 0u);
    EXPECT_EQ(topk_threshold_nth(input, k), 0.0f);
  }
}

// ------------------------------------------------------- read 2's mask walk
//
// On x86-64 read 2 compares 16 magnitudes at a time and tests the last
// 0..15 one by one.  Every entry point that runs it must match a reference
// that does not: exact_topk (indices and value bits) and its threshold the
// nth_element reference, and bracket_kth_magnitude's certain set and band
// the scan of x against its thresholds below.

uint32_t mag_bits(float v) { return std::bit_cast<uint32_t>(v) & 0x7FFFFFFFu; }

// The brackets' own contract, checked against one scan of x: k1 < k <= k2
// (or k1 == k, k2 == d when the loose edge selects exactly k), the certain
// set is every index with |x| >= thres1 and the band every index in
// [thres2, thres1), and the k-th magnitude lies in [thres2, thres1) unless
// promoted.  The band is ascending; the certain set lists the indices above
// the boundary bucket, ascending, then the bucket's own, ascending.
void expect_brackets_match_scan(std::span<const float> x, size_t k,
                                const std::string& label) {
  SCOPED_TRACE(label + " k=" + std::to_string(k));
  std::vector<uint32_t> certain, band;
  const MagnitudeBrackets b = bracket_kth_magnitude(x, k, &certain, &band);
  const bool finite = std::all_of(x.begin(), x.end(),
                                  [](float v) { return std::isfinite(v); });
  ASSERT_EQ(b.finite, finite);
  if (!finite) {
    EXPECT_TRUE(certain.empty());
    EXPECT_TRUE(band.empty());
    return;
  }
  const uint32_t t1 = mag_bits(b.thres1);
  const uint32_t t2 = mag_bits(b.thres2);
  const bool promoted = b.k1 == k;
  // The half-octave bucket holding the loose edge (thres1 once promoted).
  const uint32_t bucket = (promoted ? t1 : t2) >> 22;
  std::vector<uint32_t> want_certain, want_band, bucket_certain;
  for (size_t i = 0; i < x.size(); ++i) {
    const uint32_t m = mag_bits(x[i]);
    if (m >> 22 > bucket) {
      want_certain.push_back(static_cast<uint32_t>(i));
    } else if (m >= t1) {
      bucket_certain.push_back(static_cast<uint32_t>(i));
    } else if (!promoted && m >= t2) {
      want_band.push_back(static_cast<uint32_t>(i));
    }
  }
  want_certain.insert(want_certain.end(), bucket_certain.begin(),
                      bucket_certain.end());
  EXPECT_EQ(certain, want_certain);
  EXPECT_EQ(band, want_band);
  EXPECT_EQ(b.k1, want_certain.size());
  if (promoted) {
    EXPECT_EQ(b.k2, x.size());
  } else {
    EXPECT_LT(b.k1, k);
    EXPECT_GE(b.k2, k);
    EXPECT_EQ(b.k2, b.k1 + want_band.size());
    const uint32_t kth = mag_bits(topk_threshold_nth(x, k));
    EXPECT_GE(kth, t2);
    EXPECT_LT(kth, t1);
  }
}

void expect_split_matches_references(std::span<const float> x, size_t k,
                                     const std::string& label) {
  expect_bit_identical(exact_topk(x, k), select_topk_nth(x, k),
                       label + " k=" + std::to_string(k));
  EXPECT_EQ(std::bit_cast<uint32_t>(exact_topk_threshold(x, k)),
            std::bit_cast<uint32_t>(topk_threshold_nth(x, k)))
      << label << " k=" << k;
  expect_brackets_match_scan(x, k, label);
}

void expect_split_matches_references(std::span<const float> x,
                                     const std::string& label) {
  const size_t d = x.size();
  for (size_t k : {size_t{1}, d / 100 + 1, d / 10 + 1, d / 2, d - 1}) {
    if (k > 0 && k < d) expect_split_matches_references(x, k, label);
  }
}

TEST(SplitGather, EveryTailLengthAndOffset) {
  // Spans of kHistogramMinSize + 0..33 floats (exact top-k's histogram
  // path) and of 0..33 floats (brackets alone; exact top-k takes the
  // reference below the cutoff) at offsets 0..7 cover every tail from
  // unaligned starts.  The classes put elements above, inside and below the
  // boundary bucket, with signed zeros and subnormals.
  const uint32_t classes[] = {
      0x3f800000u, 0xbf800001u, 0x00000000u, 0x80000000u, 0x3a83126fu,
      0x40490fdbu, 0xc0490fdbu, 0x00000001u, 0x807fffffu, 0x3f800000u,
      0x3b03126fu, 0xbf7fffffu, 0x3f400000u, 0x41200000u, 0x3c23d70au,
      0xc1200000u, 0x3f000000u};
  constexpr size_t kMaxOffset = 7, kMaxTail = 33;
  Rng rng(421);
  std::vector<float> values(kMaxOffset + kHistogramMinSize + kMaxTail);
  for (float& v : values) {
    v = std::bit_cast<float>(classes[rng.uniform_index(std::size(classes))]);
  }
  for (size_t offset = 0; offset <= kMaxOffset; ++offset) {
    for (size_t tail = 0; tail <= kMaxTail; ++tail) {
      const std::string label =
          "offset " + std::to_string(offset) + " tail " + std::to_string(tail);
      const std::span<const float> all(values);
      expect_split_matches_references(
          all.subspan(offset, kHistogramMinSize + tail), label);
      for (size_t k = 1; k < tail; k += 5) {
        expect_brackets_match_scan(all.subspan(offset, tail), k, label);
      }
    }
  }
}

TEST(SplitGather, AdversarialInputs) {
  for (auto& input : adversarial_inputs()) {
    expect_split_matches_references(input.x.span(), input.name);
  }
  {
    // Every magnitude in one half-octave bucket [1, 1.5): the boundary
    // bucket holds all of x.
    Rng rng(423);
    Tensor x(6000);
    for (size_t i = 0; i < x.size(); ++i) {
      x[i] = static_cast<float>(rng.uniform(1.0, 1.5)) *
             (i % 2 == 0 ? 1.0f : -1.0f);
    }
    expect_split_matches_references(x.span(), "one_bucket");
  }
  {
    // NaNs of both signs with assorted payloads in 3/4 of the slots put
    // the boundary in bucket 511, whose upper bound wraps to 0x80000000
    // (nothing is above it); infinities sit in bucket 510 below them.
    Rng rng(425);
    Tensor x(5000);
    for (size_t i = 0; i < x.size(); ++i) {
      const uint64_t r = rng.uniform_index(8);
      const uint32_t payload =
          static_cast<uint32_t>(rng.uniform_index(1u << 22));
      x[i] = r < 3   ? std::bit_cast<float>(0x7FC00000u | payload)
             : r < 6 ? std::bit_cast<float>(0xFFC00000u | payload)
             : r < 7 ? (i % 2 ? 1.0f : -1.0f) *
                           std::numeric_limits<float>::infinity()
                     : static_cast<float>(rng.normal(0.0, 1.0));
    }
    expect_split_matches_references(x.span(), "bucket_511");
  }
}

}  // namespace
}  // namespace hitopk::compress
