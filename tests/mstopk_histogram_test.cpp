// Property tests for the single-pass histogram MSTopK against the legacy
// multi-pass binary search (the validation reference): both variants must
// return exactly k elements and honor Alg. 1's certain-set/band semantics on
// random, tied, all-equal, and adversarially skewed inputs, and the
// histogram selection must capture nearly all exact top-k magnitude mass.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "compress/exact_topk.h"
#include "compress/mstopk.h"
#include "core/rng.h"
#include "core/tensor.h"

namespace hitopk::compress {
namespace {

struct NamedInput {
  std::string name;
  Tensor x;
};

// The adversarial input family from the issue: random Gaussians, heavy ties,
// constant magnitude, and skewed distributions where almost all magnitude
// mass hides in a handful of coordinates or spans many decades.
std::vector<NamedInput> adversarial_inputs() {
  std::vector<NamedInput> inputs;

  {
    Rng rng(101);
    Tensor x(20000);
    x.fill_normal(rng, 0.0f, 1.0f);
    inputs.push_back({"gaussian", std::move(x)});
  }
  {
    // Tied magnitudes: every element is one of three values.
    Rng rng(103);
    Tensor x(8192);
    for (size_t i = 0; i < x.size(); ++i) {
      const uint64_t r = rng.uniform_index(3);
      x[i] = (r == 0 ? 0.5f : r == 1 ? -2.0f : 8.0f);
    }
    inputs.push_back({"tied", std::move(x)});
  }
  {
    // All-equal magnitude (degenerate: mean == max).
    Tensor x(4096);
    x.fill(-3.25f);
    inputs.push_back({"all_equal", std::move(x)});
  }
  {
    Tensor x(4096);
    inputs.push_back({"all_zero", std::move(x)});
  }
  {
    // Denormal spread: all magnitudes within a sub-normal-float interval of
    // each other, so the bucket width collapses (regression: 1/width must
    // not become inf and poison the bucket indices with NaN).
    Tensor x(4096);
    x.fill(1e-40f);
    x[100] = 1.3e-40f;
    x[200] = -1.2e-40f;
    inputs.push_back({"denormal_spread", std::move(x)});
  }
  {
    // Skewed: a near-zero noise floor with a few huge spikes, so the
    // histogram's top buckets are almost empty and the bottom bucket holds
    // nearly everything.
    Rng rng(107);
    Tensor x(16384);
    x.fill_normal(rng, 0.0f, 1e-6f);
    for (size_t i = 0; i < 24; ++i) {
      x[i * 601] = (i % 2 ? 1.0e4f : -1.0e4f);
    }
    inputs.push_back({"spiked", std::move(x)});
  }
  {
    // Log-spaced magnitudes across 8 decades: every histogram bucket
    // boundary lands inside a dense region somewhere.
    Rng rng(109);
    Tensor x(10000);
    for (size_t i = 0; i < x.size(); ++i) {
      const double exponent = rng.uniform(-4.0, 4.0);
      x[i] = static_cast<float>(std::pow(10.0, exponent)) *
             (rng.uniform() < 0.5 ? -1.0f : 1.0f);
    }
    inputs.push_back({"log_spaced", std::move(x)});
  }
  return inputs;
}

// Alg. 1 contract checks shared by both variants.
void check_selection_semantics(const Tensor& x, size_t k, MsTopK& op,
                               const std::string& label) {
  SparseTensor s = op.compress(x.span(), k);
  const MsTopKStats& stats = op.last_stats();
  SCOPED_TRACE(label);

  // Exactly k distinct, valid, value-faithful selections.
  ASSERT_EQ(s.nnz(), std::min(k, x.size()));
  EXPECT_TRUE(s.is_valid());
  std::set<uint32_t> chosen(s.indices.begin(), s.indices.end());
  EXPECT_EQ(chosen.size(), s.nnz());
  for (size_t i = 0; i < s.nnz(); ++i) {
    EXPECT_EQ(s.values[i], x[s.indices[i]]);
  }
  if (k >= x.size()) return;

  // Bracket bookkeeping: whenever the search produced brackets, the recorded
  // counts must match the data and straddle k.
  if (stats.thres1 > 0.0f) {
    EXPECT_EQ(x.count_abs_ge(stats.thres1), stats.k1);
    EXPECT_LE(stats.k1, k);
    // Certain-set semantics: every element at or above thres1 is selected.
    for (size_t i = 0; i < x.size(); ++i) {
      if (std::fabs(x[i]) >= stats.thres1) {
        EXPECT_TRUE(chosen.count(static_cast<uint32_t>(i)))
            << "certain element " << i << " missing";
      }
    }
    if (stats.thres2 > 0.0f) {
      EXPECT_EQ(x.count_abs_ge(stats.thres2), stats.k2);
      EXPECT_GT(stats.k2, k);
      EXPECT_LT(stats.thres2, stats.thres1);
      // Band semantics: nothing below the loose bracket can be selected.
      for (size_t i = 0; i < s.nnz(); ++i) {
        EXPECT_GE(std::fabs(s.values[i]) + 1e-7f, stats.thres2);
      }
    }
  }
}

TEST(MsTopKHistogram, SemanticsMatchLegacyReferenceOnAdversarialInputs) {
  for (auto& input : adversarial_inputs()) {
    for (size_t k : {1u, 7u, 100u, 1000u}) {
      if (k >= input.x.size()) continue;
      MsTopK hist(30, 21);
      MsTopK legacy(30, 21, MsTopKMode::kMultiPass);
      check_selection_semantics(input.x, k, hist, input.name + "/histogram");
      check_selection_semantics(input.x, k, legacy, input.name + "/legacy");
    }
  }
}

TEST(MsTopKHistogram, BitBracketCountsAreExactByConstruction) {
  // The bit-bucket search's bracket boundaries are float bit patterns, so
  // its recorded k1/k2 must equal the true counts with no verification
  // pass — including straddling k strictly whenever both brackets exist.
  for (auto& input : adversarial_inputs()) {
    for (size_t k : {1u, 7u, 100u, 1000u}) {
      if (k >= input.x.size()) continue;
      SCOPED_TRACE(input.name + "/k=" + std::to_string(k));
      MsTopK hist(30, 23);
      hist.compress(input.x.span(), k);
      const MsTopKStats& stats = hist.last_stats();
      EXPECT_EQ(stats.samplings, 2);  // coarse + refinement, never more
      if (stats.thres1 > 0.0f) {
        EXPECT_EQ(input.x.count_abs_ge(stats.thres1), stats.k1);
        EXPECT_LE(stats.k1, k);
      }
      if (stats.thres2 > 0.0f) {
        EXPECT_EQ(input.x.count_abs_ge(stats.thres2), stats.k2);
        EXPECT_GT(stats.k2, k);
      }
    }
  }
}

TEST(MsTopKHistogram, BracketsAtLeastAsTightAsNineSamplings) {
  // Nine binary-search halvings resolve the threshold interval to
  // (max-mean)/512; the bit-bucket refinement resolves to 2^13 ulps
  // (half-octave / 512), tighter on anything Gaussian-shaped.  Its bracket
  // gap may not exceed the 9-sampling multi-pass gap (plus float slop).
  Rng rng(211);
  Tensor x(100000);
  x.fill_normal(rng, 0.0f, 1.0f);
  const size_t k = 1000;

  MsTopK hist(30, 3);
  hist.compress(x.span(), k);
  const MsTopKStats hist_stats = hist.last_stats();

  MsTopK legacy(9, 3, MsTopKMode::kMultiPass);
  legacy.compress(x.span(), k);
  const MsTopKStats legacy_stats = legacy.last_stats();

  ASSERT_GT(hist_stats.thres1, 0.0f);
  ASSERT_GT(hist_stats.thres2, 0.0f);
  ASSERT_GT(legacy_stats.thres1, 0.0f);
  ASSERT_GT(legacy_stats.thres2, 0.0f);
  const float hist_gap = hist_stats.thres1 - hist_stats.thres2;
  const float legacy_gap = legacy_stats.thres1 - legacy_stats.thres2;
  EXPECT_LE(hist_gap, legacy_gap + 1e-6f);
  // Pass structure: two bit-bucket counting passes vs one counting pass
  // per multi-pass sampling (plus its statistics pass).
  EXPECT_EQ(hist_stats.samplings, 2);
  EXPECT_EQ(hist_stats.buckets, 512);
  EXPECT_GT(legacy_stats.samplings, hist_stats.samplings);
}

TEST(MsTopKHistogram, MassOverlapWithExactTopKAtAcceptanceScale) {
  // Acceptance criterion: >= 99% of exact top-k magnitude mass on Gaussian
  // inputs at d = 1M, density 0.001.
  Rng rng(223);
  Tensor x(1 << 20);
  x.fill_normal(rng, 0.0f, 1.0f);
  const size_t k = x.size() / 1000;

  MsTopK hist(30, 5);
  SparseTensor approx = hist.compress(x.span(), k);
  SparseTensor exact = exact_topk(x.span(), k);
  ASSERT_EQ(approx.nnz(), k);

  double approx_mass = 0.0, exact_mass = 0.0;
  for (float v : approx.values) approx_mass += std::fabs(v);
  for (float v : exact.values) exact_mass += std::fabs(v);
  EXPECT_GT(approx_mass, 0.99 * exact_mass);
}

TEST(MsTopKHistogram, BothModesNameThemselvesAndSelectK) {
  MsTopK hist(30, 7);
  MsTopK legacy(30, 7, MsTopKMode::kMultiPass);
  EXPECT_EQ(hist.name(), "mstopk");
  EXPECT_EQ(legacy.name(), "mstopk_legacy");

  Rng rng(229);
  Tensor x(5000);
  x.fill_normal(rng, 0.0f, 1.0f);
  EXPECT_EQ(hist.compress(x.span(), 50).nnz(), 50u);
  EXPECT_EQ(legacy.compress(x.span(), 50).nnz(), 50u);
}

TEST(MsTopKHistogram, NonFiniteInputsFallBackLikeTheLegacyPaths) {
  // A diverging training run can hand the compressor inf/NaN gradients.
  // The legacy searches degrade to the first-k fallback because their
  // mean/max statistics are poisoned; the bit-bucket search must do the
  // same instead of tripping its internal consistency checks.
  Tensor x(256);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(i % 7) * 0.25f;
  }
  x[3] = std::numeric_limits<float>::infinity();
  x[10] = -std::numeric_limits<float>::infinity();
  x[77] = std::bit_cast<float>(0x7FA00000u);  // NaN payload
  for (size_t k : {1u, 2u, 50u}) {
    SCOPED_TRACE(k);
    MsTopK hist(30, 37);
    MsTopK legacy(30, 37, MsTopKMode::kMultiPass);
    const SparseTensor h = hist.compress(x.span(), k);
    const SparseTensor le = legacy.compress(x.span(), k);
    EXPECT_EQ(h.nnz(), k);
    EXPECT_TRUE(h.is_valid());
    // Both modes agree on the degenerate fallback (first k indices).
    EXPECT_EQ(h.indices, le.indices);
  }
}

TEST(MsTopKHistogram, HeavyTiesStillReturnExactlyK) {
  // All elements share one magnitude except a single outlier: the histogram
  // collapses to the heavy-ties branch and the band top-up must still
  // deliver exactly k.
  Tensor x(1024);
  x.fill(2.0f);
  x[500] = 9.0f;
  for (size_t k : {1u, 3u, 100u}) {
    MsTopK hist(30, 31);
    SparseTensor s = hist.compress(x.span(), k);
    EXPECT_EQ(s.nnz(), k);
    EXPECT_TRUE(s.is_valid());
  }
}

}  // namespace
}  // namespace hitopk::compress
