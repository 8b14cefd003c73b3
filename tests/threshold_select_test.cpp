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

}  // namespace
}  // namespace hitopk::compress
