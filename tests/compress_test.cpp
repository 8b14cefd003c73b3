// Tests for the compression operators: exact top-k, DGC, MSTopK (Alg. 1),
// random-k, threshold-k, error feedback, and cross-operator properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <string>

#include "compress/dgc_topk.h"
#include "compress/error_feedback.h"
#include "compress/exact_topk.h"
#include "compress/mstopk.h"
#include "compress/other_compressors.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/tensor.h"
#include "ef_reference.h"

namespace hitopk::compress {
namespace {

Tensor random_gradient(size_t d, uint64_t seed, double stddev = 1.0) {
  Rng rng(seed);
  Tensor t(d);
  t.fill_normal(rng, 0.0f, static_cast<float>(stddev));
  return t;
}

// Magnitude of the smallest selected element must be >= the (k+slack)-th
// exact magnitude; used to judge approximate selections.
float kth_magnitude(const Tensor& x, size_t k) {
  return exact_topk_threshold(x.span(), k);
}

// ------------------------------------------------------------ SparseTensor
TEST(SparseTensor, ScatterAddAccumulatesDuplicates) {
  SparseTensor s;
  s.dense_size = 4;
  s.indices = {1, 1, 3};
  s.values = {2.0f, 3.0f, -1.0f};
  Tensor dense(4);
  s.scatter_add_into(dense.span());
  EXPECT_EQ(dense[1], 5.0f);
  EXPECT_EQ(dense[3], -1.0f);
  EXPECT_EQ(dense[0], 0.0f);
}

TEST(SparseTensor, ToDense) {
  SparseTensor s;
  s.dense_size = 3;
  s.indices = {2};
  s.values = {7.0f};
  Tensor d = s.to_dense();
  EXPECT_EQ(d.size(), 3u);
  EXPECT_EQ(d[2], 7.0f);
}

TEST(SparseTensor, SortByIndex) {
  SparseTensor s;
  s.dense_size = 10;
  s.indices = {5, 1, 9};
  s.values = {50.0f, 10.0f, 90.0f};
  s.sort_by_index();
  EXPECT_EQ(s.indices, (std::vector<uint32_t>{1, 5, 9}));
  EXPECT_EQ(s.values, (std::vector<float>{10.0f, 50.0f, 90.0f}));
}

TEST(SparseTensor, ValidityChecks) {
  SparseTensor s;
  s.dense_size = 4;
  s.indices = {3};
  s.values = {1.0f};
  EXPECT_TRUE(s.is_valid());
  s.indices = {4};
  EXPECT_FALSE(s.is_valid());
  s.indices = {0, 1};
  EXPECT_FALSE(s.is_valid());  // values/indices length mismatch
}

TEST(SparseTensor, AccumulateManyParts) {
  SparseTensor a, b;
  a.dense_size = b.dense_size = 5;
  a.indices = {0, 2};
  a.values = {1.0f, 2.0f};
  b.indices = {2, 4};
  b.values = {10.0f, 20.0f};
  std::vector<SparseTensor> parts{a, b};
  Tensor sum = accumulate(parts, 5);
  EXPECT_EQ(sum[0], 1.0f);
  EXPECT_EQ(sum[2], 12.0f);
  EXPECT_EQ(sum[4], 20.0f);
}

TEST(SparseTensor, AccumulateNoPartsIsZero) {
  std::vector<SparseTensor> parts;
  Tensor sum = accumulate(parts, 4);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(sum[i], 0.0f);
}

TEST(SparseTensor, AccumulateEmptyPartsAndZeroesDestination) {
  SparseTensor empty;
  empty.dense_size = 3;
  SparseTensor one;
  one.dense_size = 3;
  one.indices = {1};
  one.values = {2.5f};
  std::vector<SparseTensor> parts{empty, one, empty};
  Tensor dense(3);
  dense.fill(9.0f);  // accumulate_into must zero stale contents first
  accumulate_into(parts, dense.span());
  EXPECT_EQ(dense[0], 0.0f);
  EXPECT_EQ(dense[1], 2.5f);
  EXPECT_EQ(dense[2], 0.0f);
}

TEST(SparseTensor, AccumulateDuplicateIndicesWithinAndAcrossParts) {
  SparseTensor a, b;
  a.dense_size = b.dense_size = 4;
  a.indices = {1, 1, 1};  // duplicates inside one part accumulate in order
  a.values = {1.0f, 2.0f, 4.0f};
  b.indices = {1, 3};
  b.values = {8.0f, -1.0f};
  std::vector<SparseTensor> parts{a, b};
  Tensor sum = accumulate(parts, 4);
  EXPECT_EQ(sum[1], 15.0f);
  EXPECT_EQ(sum[3], -1.0f);
}

TEST(SparseTensor, AccumulateGuardsBadParts) {
  SparseTensor out_of_range;
  out_of_range.dense_size = 4;
  out_of_range.indices = {4};  // == dense_size: out of bounds
  out_of_range.values = {1.0f};
  std::vector<SparseTensor> parts{out_of_range};
  EXPECT_THROW(accumulate(parts, 4), CheckError);

  SparseTensor mismatched_len;
  mismatched_len.dense_size = 4;
  mismatched_len.indices = {0, 1};
  mismatched_len.values = {1.0f};
  parts = {mismatched_len};
  EXPECT_THROW(accumulate(parts, 4), CheckError);

  SparseTensor wrong_dense_size;
  wrong_dense_size.dense_size = 8;
  wrong_dense_size.indices = {0};
  wrong_dense_size.values = {1.0f};
  parts = {wrong_dense_size};
  EXPECT_THROW(accumulate(parts, 4), CheckError);
}

TEST(SparseTensor, AccumulatePartitionedMatchesSerialBitwise) {
  // Large accumulation with sorted, unsorted, duplicate-bearing, and empty
  // parts: the index-space-partitioned parallel path must reproduce the
  // serial per-part scatter-add bit for bit at any thread count.
  const size_t d = 1 << 16;
  Rng rng(91);
  std::vector<SparseTensor> parts;
  for (int p = 0; p < 6; ++p) {
    SparseTensor part;
    part.dense_size = d;
    const size_t nnz = 1500 + static_cast<size_t>(p) * 700;
    for (size_t i = 0; i < nnz; ++i) {
      part.indices.push_back(static_cast<uint32_t>(rng.uniform_index(d)));
      part.values.push_back(static_cast<float>(rng.normal(0.0, 1.0)));
    }
    if (p % 2 == 0) part.sort_by_index();  // mix sorted and unsorted parts
    parts.push_back(std::move(part));
  }
  parts.push_back(SparseTensor{});  // empty part
  parts.back().dense_size = d;

  Tensor reference(d);
  for (const auto& part : parts) part.scatter_add_into(reference.span());

  const int previous = parallel_threads();
  for (int threads : {1, 3, 8}) {
    set_parallel_threads(threads);
    Tensor sum = accumulate(parts, d);
    size_t mismatches = 0;
    for (size_t i = 0; i < d; ++i) {
      mismatches += sum[i] == reference[i] ? 0 : 1;
    }
    EXPECT_EQ(mismatches, 0u) << "threads=" << threads;
  }
  set_parallel_threads(previous);
}

// ------------------------------------------------------------ ExactTopK
TEST(ExactTopK, SelectsLargestMagnitudes) {
  Tensor x = Tensor::from({0.1f, -5.0f, 3.0f, -0.2f, 4.0f});
  SparseTensor s = exact_topk(x.span(), 2);
  EXPECT_EQ(s.nnz(), 2u);
  EXPECT_EQ(s.indices, (std::vector<uint32_t>{1, 4}));
  EXPECT_EQ(s.values, (std::vector<float>{-5.0f, 4.0f}));
}

TEST(ExactTopK, KZeroIsEmpty) {
  Tensor x = Tensor::from({1.0f, 2.0f});
  EXPECT_EQ(exact_topk(x.span(), 0).nnz(), 0u);
}

TEST(ExactTopK, KLargerThanInputReturnsAll) {
  Tensor x = Tensor::from({1.0f, 2.0f});
  SparseTensor s = exact_topk(x.span(), 10);
  EXPECT_EQ(s.nnz(), 2u);
}

TEST(ExactTopK, TieBreakIsDeterministic) {
  Tensor x = Tensor::from({1.0f, -1.0f, 1.0f, -1.0f});
  SparseTensor a = exact_topk(x.span(), 2);
  SparseTensor b = exact_topk(x.span(), 2);
  EXPECT_EQ(a.indices, b.indices);
  EXPECT_EQ(a.indices, (std::vector<uint32_t>{0, 1}));  // lower index wins
}

TEST(ExactTopK, ThresholdMatchesSelection) {
  Tensor x = random_gradient(1000, 5);
  const size_t k = 50;
  const float thres = exact_topk_threshold(x.span(), k);
  EXPECT_EQ(x.count_abs_ge(thres), k);  // continuous values: no ties
}

TEST(ExactTopK, IndicesSortedAscending) {
  Tensor x = random_gradient(500, 6);
  SparseTensor s = exact_topk(x.span(), 100);
  EXPECT_TRUE(std::is_sorted(s.indices.begin(), s.indices.end()));
}

// ------------------------------------------------------------ MSTopK
TEST(MsTopK, ReturnsExactlyK) {
  MsTopK mstopk(30, 1);
  for (size_t d : {100u, 1000u, 4096u}) {
    Tensor x = random_gradient(d, d);
    for (size_t k : {1u, 10u, 99u}) {
      SparseTensor s = mstopk.compress(x.span(), k);
      EXPECT_EQ(s.nnz(), k) << "d=" << d << " k=" << k;
      EXPECT_TRUE(s.is_valid());
    }
  }
}

TEST(MsTopK, ValuesMatchInputAtIndices) {
  MsTopK mstopk(30, 2);
  Tensor x = random_gradient(2048, 7);
  SparseTensor s = mstopk.compress(x.span(), 64);
  for (size_t i = 0; i < s.nnz(); ++i) {
    EXPECT_EQ(s.values[i], x[s.indices[i]]);
  }
}

TEST(MsTopK, NoDuplicateIndices) {
  MsTopK mstopk(30, 3);
  Tensor x = random_gradient(4096, 9);
  SparseTensor s = mstopk.compress(x.span(), 200);
  std::set<uint32_t> unique(s.indices.begin(), s.indices.end());
  EXPECT_EQ(unique.size(), s.nnz());
}

TEST(MsTopK, CertainSetContainsAllAboveThres1) {
  // Every element with |x| >= thres1 must be selected (Alg. 1 line 25).
  MsTopK mstopk(30, 4);
  Tensor x = random_gradient(8192, 11);
  const size_t k = 82;
  SparseTensor s = mstopk.compress(x.span(), k);
  const auto& stats = mstopk.last_stats();
  ASSERT_GT(stats.thres1, 0.0f);
  std::set<uint32_t> chosen(s.indices.begin(), s.indices.end());
  for (size_t i = 0; i < x.size(); ++i) {
    if (std::fabs(x[i]) >= stats.thres1) {
      EXPECT_TRUE(chosen.count(static_cast<uint32_t>(i)))
          << "certain element " << i << " missing";
    }
  }
}

TEST(MsTopK, AllSelectedAboveThres2) {
  // Nothing below the loose bracket can be selected.
  MsTopK mstopk(30, 5);
  Tensor x = random_gradient(8192, 13);
  const size_t k = 82;
  SparseTensor s = mstopk.compress(x.span(), k);
  const auto& stats = mstopk.last_stats();
  for (size_t i = 0; i < s.nnz(); ++i) {
    EXPECT_GE(std::fabs(s.values[i]) + 1e-7f, stats.thres2);
  }
}

TEST(MsTopK, ApproximationQualityWithManySamplings) {
  // With N = 30 samplings the selected mass should be close to exact top-k
  // mass for Gaussian gradients.
  MsTopK mstopk(30, 6);
  Tensor x = random_gradient(100000, 17);
  const size_t k = 1000;  // rho = 0.01
  SparseTensor approx = mstopk.compress(x.span(), k);
  SparseTensor exact = exact_topk(x.span(), k);
  double approx_mass = 0.0, exact_mass = 0.0;
  for (float v : approx.values) approx_mass += std::fabs(v);
  for (float v : exact.values) exact_mass += std::fabs(v);
  EXPECT_GT(approx_mass, 0.95 * exact_mass);
}

TEST(MsTopK, BracketCountsAreConsistent) {
  MsTopK mstopk(30, 7);
  Tensor x = random_gradient(50000, 19);
  const size_t k = 500;
  SparseTensor s = mstopk.compress(x.span(), k);
  const auto& stats = mstopk.last_stats();
  // Recorded bracket counts must match the data: thres1 selects k1 <= k
  // elements, thres2 selects k2 > k elements, and the brackets straddle the
  // exact threshold's count.
  EXPECT_EQ(x.count_abs_ge(stats.thres1), stats.k1);
  EXPECT_LE(stats.k1, k);
  EXPECT_EQ(x.count_abs_ge(stats.thres2), stats.k2);
  EXPECT_GE(stats.k2, k);
  // thres2 admits at least k elements, so it cannot exceed the exact k-th
  // magnitude.
  EXPECT_LE(stats.thres2, kth_magnitude(x, k) + 1e-7f);
}

TEST(MsTopK, KGreaterEqualDReturnsEverything) {
  MsTopK mstopk(30, 8);
  Tensor x = random_gradient(64, 23);
  SparseTensor s = mstopk.compress(x.span(), 64);
  EXPECT_EQ(s.nnz(), 64u);
  s = mstopk.compress(x.span(), 1000);
  EXPECT_EQ(s.nnz(), 64u);
}

TEST(MsTopK, AllZeroInputFallsBack) {
  MsTopK mstopk(30, 9);
  Tensor x(128);
  SparseTensor s = mstopk.compress(x.span(), 16);
  EXPECT_EQ(s.nnz(), 16u);
  EXPECT_TRUE(s.is_valid());
}

TEST(MsTopK, ConstantMagnitudeInputFallsBack) {
  MsTopK mstopk(30, 10);
  Tensor x(128);
  x.fill(3.0f);
  SparseTensor s = mstopk.compress(x.span(), 10);
  EXPECT_EQ(s.nnz(), 10u);
}

TEST(MsTopK, EmptyAndKZero) {
  MsTopK mstopk(30, 11);
  Tensor x = random_gradient(10, 29);
  EXPECT_EQ(mstopk.compress(x.span(), 0).nnz(), 0u);
  Tensor empty;
  EXPECT_EQ(mstopk.compress(empty.span(), 5).nnz(), 0u);
}

TEST(MsTopK, MoreSamplingsTightenBrackets) {
  Tensor x = random_gradient(100000, 31);
  const size_t k = 1000;
  MsTopK coarse(5, 12), fine(30, 12);
  coarse.compress(x.span(), k);
  const float coarse_gap =
      coarse.last_stats().thres1 - coarse.last_stats().thres2;
  fine.compress(x.span(), k);
  const float fine_gap = fine.last_stats().thres1 - fine.last_stats().thres2;
  EXPECT_LE(fine_gap, coarse_gap + 1e-7f);
}

TEST(MsTopK, HeavyTailedInput) {
  // Gradients with a few huge entries: the certain set catches them.
  Rng rng(37);
  Tensor x(10000);
  x.fill_normal(rng, 0.0f, 0.01f);
  for (size_t i = 0; i < 20; ++i) {
    x[i * 481] = (i % 2 ? 50.0f : -50.0f);
  }
  MsTopK mstopk(30, 13);
  SparseTensor s = mstopk.compress(x.span(), 100);
  EXPECT_EQ(s.nnz(), 100u);
  std::set<uint32_t> chosen(s.indices.begin(), s.indices.end());
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_TRUE(chosen.count(static_cast<uint32_t>(i * 481)));
  }
}

// ------------------------------------------------------------ DGC
TEST(DgcTopK, ReturnsAtMostK) {
  DgcTopK dgc(0.01, 3);
  Tensor x = random_gradient(50000, 41);
  SparseTensor s = dgc.compress(x.span(), 500);
  EXPECT_LE(s.nnz(), 500u);
  EXPECT_GE(s.nnz(), 400u);  // threshold estimation is close for Gaussians
  EXPECT_TRUE(s.is_valid());
}

TEST(DgcTopK, UsesAtLeastTwoTopKCalls) {
  DgcTopK dgc(0.01, 5);
  Tensor x = random_gradient(50000, 43);
  dgc.compress(x.span(), 500);
  EXPECT_GE(dgc.last_topk_calls(), 2);
}

TEST(DgcTopK, SelectionQualityNearExact) {
  DgcTopK dgc(0.05, 7);
  Tensor x = random_gradient(100000, 47);
  const size_t k = 1000;
  SparseTensor approx = dgc.compress(x.span(), k);
  SparseTensor exact = exact_topk(x.span(), k);
  double approx_mass = 0.0, exact_mass = 0.0;
  for (float v : approx.values) approx_mass += std::fabs(v);
  for (float v : exact.values) exact_mass += std::fabs(v);
  EXPECT_GT(approx_mass, 0.9 * exact_mass);
}

TEST(DgcTopK, SmallInputFallsBackToExact) {
  DgcTopK dgc(0.01, 9);
  Tensor x = Tensor::from({5.0f, -1.0f, 3.0f});
  SparseTensor s = dgc.compress(x.span(), 3);
  EXPECT_EQ(s.nnz(), 3u);
}

TEST(DgcTopK, ValuesMatchInput) {
  DgcTopK dgc(0.01, 11);
  Tensor x = random_gradient(20000, 53);
  SparseTensor s = dgc.compress(x.span(), 200);
  for (size_t i = 0; i < s.nnz(); ++i) {
    EXPECT_EQ(s.values[i], x[s.indices[i]]);
  }
}

// ------------------------------------------------------------ RandomK
TEST(RandomK, ExactlyKDistinctIndices) {
  RandomK rk(13);
  Tensor x = random_gradient(1000, 59);
  SparseTensor s = rk.compress(x.span(), 100);
  EXPECT_EQ(s.nnz(), 100u);
  std::set<uint32_t> unique(s.indices.begin(), s.indices.end());
  EXPECT_EQ(unique.size(), 100u);
  EXPECT_TRUE(s.is_valid());
}

TEST(RandomK, CoversSpaceOverManyDraws) {
  RandomK rk(17);
  Tensor x = random_gradient(64, 61);
  std::set<uint32_t> seen;
  for (int i = 0; i < 200; ++i) {
    SparseTensor s = rk.compress(x.span(), 4);
    seen.insert(s.indices.begin(), s.indices.end());
  }
  EXPECT_EQ(seen.size(), 64u);
}

// ------------------------------------------------------------ ThresholdK
TEST(ThresholdK, SelectsAllAboveThreshold) {
  ThresholdK tk(1.0f);
  Tensor x = Tensor::from({0.5f, -2.0f, 1.0f, 3.0f, -0.9f});
  SparseTensor s = tk.compress(x.span(), 0);
  EXPECT_EQ(s.indices, (std::vector<uint32_t>{1, 2, 3}));
}

// ------------------------------------------------------------ ErrorFeedback
TEST(ErrorFeedback, FirstApplyIsIdentity) {
  ErrorFeedback ef;
  Tensor g = Tensor::from({1.0f, 2.0f, 3.0f});
  Tensor original = g;
  test::ef_apply(ef, "w", g.span());
  for (size_t i = 0; i < g.size(); ++i) EXPECT_EQ(g[i], original[i]);
}

TEST(ErrorFeedback, ResidualIsUnsentRemainder) {
  ErrorFeedback ef;
  Tensor g = Tensor::from({1.0f, -4.0f, 3.0f, 0.5f});
  SparseTensor sent = exact_topk(g.span(), 2);  // picks -4 and 3
  test::ef_absorb(ef, "w", g.span(), sent);
  // Next gradient of zeros: apply returns exactly the residual.
  Tensor next(4);
  test::ef_apply(ef, "w", next.span());
  EXPECT_EQ(next[0], 1.0f);
  EXPECT_EQ(next[1], 0.0f);
  EXPECT_EQ(next[2], 0.0f);
  EXPECT_EQ(next[3], 0.5f);
}

TEST(ErrorFeedback, ClosureNoGradientIsLost) {
  // Invariant: sent_t + residual_t == grad_t + residual_{t-1}.
  ErrorFeedback ef;
  Rng rng(67);
  Tensor weights_sum(64);  // total mass delivered over time
  Tensor true_sum(64);     // total gradient mass produced
  for (int step = 0; step < 50; ++step) {
    Tensor g(64);
    g.fill_normal(rng, 0.0f, 1.0f);
    true_sum += g;
    ef.apply_priming("w", g.span());
    SparseTensor sent = exact_topk(g.span(), 8);
    ef.absorb_primed("w", sent);
    Tensor delivered = sent.to_dense();
    weights_sum += delivered;
  }
  // delivered_total + final_residual == produced_total
  Tensor residual(64);
  test::ef_apply(ef, "w", residual.span());
  weights_sum += residual;
  for (size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(weights_sum[i], true_sum[i], 1e-4f);
  }
}

TEST(ErrorFeedback, IndependentKeys) {
  ErrorFeedback ef;
  Tensor a = Tensor::from({1.0f});
  Tensor b = Tensor::from({2.0f});
  SparseTensor none;
  none.dense_size = 1;
  test::ef_absorb(ef, "a", a.span(), none);
  test::ef_absorb(ef, "b", b.span(), none);
  EXPECT_EQ(ef.num_tensors(), 2u);
  Tensor ra(1), rb(1);
  test::ef_apply(ef, "a", ra.span());
  test::ef_apply(ef, "b", rb.span());
  EXPECT_EQ(ra[0], 1.0f);
  EXPECT_EQ(rb[0], 2.0f);
}

TEST(ErrorFeedback, FusedExchangeMatchesApplyAbsorb) {
  // apply_priming + absorb_primed must be bitwise identical to the unfused
  // reference exchange (ef_reference.h) under the shared-caller contract
  // (grad untouched between compensation and absorption).
  ErrorFeedback split, fused;
  Rng rng(71);
  Tensor split_grad(128), fused_grad(128);
  for (int step = 0; step < 10; ++step) {
    Tensor g(128);
    g.fill_normal(rng, 0.0f, 1.0f);
    std::copy(g.span().begin(), g.span().end(), split_grad.span().begin());
    std::copy(g.span().begin(), g.span().end(), fused_grad.span().begin());

    test::ef_apply(split, "w", split_grad.span());
    SparseTensor sent = exact_topk(split_grad.span(), 16);
    test::ef_absorb(split, "w", split_grad.span(), sent);

    fused.apply_priming("w", fused_grad.span());
    SparseTensor fused_sent = exact_topk(fused_grad.span(), 16);
    fused.absorb_primed("w", fused_sent);

    ASSERT_EQ(sent.indices, fused_sent.indices);
    for (size_t i = 0; i < 128; ++i) {
      ASSERT_EQ(split_grad[i], fused_grad[i]) << "step " << step;
    }
  }
  // Residual state agrees too: applying onto zeros surfaces it.
  Tensor split_res(128), fused_res(128);
  test::ef_apply(split, "w", split_res.span());
  test::ef_apply(fused, "w", fused_res.span());
  for (size_t i = 0; i < 128; ++i) EXPECT_EQ(split_res[i], fused_res[i]);

  // MsTopK::compress with the residual (the compensation folded into the
  // counting read) equals apply_priming + compress bit for bit: the
  // selection, the compensated gradient and the residual, over three
  // steps, in both modes, on every path: the bracketed selection, k == 0,
  // k == d, k > d, a non-finite gradient (first-k fallback after the
  // counting read) and all-equal magnitudes (the multi-pass first-k
  // fallback).
  auto bits_equal = [](std::span<const float> a, std::span<const float> b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (std::bit_cast<uint32_t>(a[i]) != std::bit_cast<uint32_t>(b[i])) {
        return false;
      }
    }
    return true;
  };
  constexpr size_t kD = 4096;
  struct Path {
    const char* name;
    size_t k;
    float fill;  // 0: N(0, 1) gradients; otherwise every element
    bool non_finite;
  };
  const Path paths[] = {{"bracketed", kD / 100, 0.0f, false},
                        {"k=0", 0, 0.0f, false},
                        {"k=d", kD, 0.0f, false},
                        {"k>d", kD + 3, 0.0f, false},
                        {"non_finite", kD / 100, 0.0f, true},
                        {"all_equal", kD / 100, -0.75f, false}};
  for (const MsTopKMode mode :
       {MsTopKMode::kHistogram, MsTopKMode::kMultiPass}) {
    for (const Path& path : paths) {
      SCOPED_TRACE(std::string(path.name) + (mode == MsTopKMode::kHistogram
                                                 ? " histogram"
                                                 : " multi-pass"));
      ErrorFeedback unfolded, folded;
      MsTopK unfolded_op(30, 17, mode), folded_op(30, 17, mode);
      const std::span<float> residual = folded.ensure("w", kD);
      Rng grads(73);
      for (int step = 0; step < 3; ++step) {
        Tensor g(kD);
        if (path.fill != 0.0f) {
          g.fill(path.fill);
        } else {
          g.fill_normal(grads, 0.0f, 1.0f);
        }
        if (path.non_finite) g[kD / 3] = std::numeric_limits<float>::infinity();
        Tensor unfolded_grad = g, folded_grad = g;
        unfolded.apply_priming("w", unfolded_grad.span());
        const SparseTensor want =
            unfolded_op.compress(unfolded_grad.span(), path.k);
        unfolded.absorb_primed("w", want);
        const SparseTensor got =
            folded_op.compress(folded_grad.span(), path.k, residual);
        folded.absorb_primed("w", got);

        ASSERT_EQ(got.indices, want.indices) << "step " << step;
        ASSERT_TRUE(bits_equal(got.values, want.values)) << "step " << step;
        ASSERT_TRUE(bits_equal(folded_grad.span(), unfolded_grad.span()))
            << "step " << step;
        ASSERT_TRUE(bits_equal(folded.residual("w"), unfolded.residual("w")))
            << "step " << step;
      }
    }
  }
}

TEST(ErrorFeedback, AbsorbPrimedGuardsIndexRange) {
  ErrorFeedback ef;
  Tensor g(4);
  ef.apply_priming("w", g.span());
  SparseTensor bad;
  bad.dense_size = 4;
  bad.indices = {4};
  bad.values = {1.0f};
  EXPECT_THROW(ef.absorb_primed("w", bad), CheckError);
}

TEST(ErrorFeedback, ShapeChangeThrows) {
  ErrorFeedback ef;
  Tensor a(4);
  test::ef_apply(ef, "w", a.span());
  Tensor b(5);
  EXPECT_THROW(test::ef_apply(ef, "w", b.span()), CheckError);
}

TEST(ErrorFeedback, ResetClearsResiduals) {
  ErrorFeedback ef;
  Tensor g = Tensor::from({3.0f});
  SparseTensor none;
  none.dense_size = 1;
  test::ef_absorb(ef, "w", g.span(), none);
  EXPECT_GT(ef.residual_sq_norm(), 0.0);
  ef.reset();
  EXPECT_EQ(ef.num_tensors(), 0u);
  EXPECT_EQ(ef.residual_sq_norm(), 0.0);
}

// ---------------------------------------------- cross-operator properties
class CompressorPropertyTest
    : public ::testing::TestWithParam<const char*> {
 protected:
  // The row's operator, constructed directly; its name() is the row name.
  std::unique_ptr<Compressor> make(uint64_t seed) const {
    const std::string name = GetParam();
    std::unique_ptr<Compressor> c;
    if (name == "exact_topk") c = std::make_unique<ExactTopK>();
    if (name == "dgc") c = std::make_unique<DgcTopK>(0.01, seed);
    if (name == "mstopk") c = std::make_unique<MsTopK>(30, seed);
    if (name == "random_k") c = std::make_unique<RandomK>(seed);
    EXPECT_TRUE(c != nullptr && c->name() == name) << name;
    return c;
  }
};

TEST_P(CompressorPropertyTest, ExactlyKOnGaussian) {
  auto c = make(99);
  ASSERT_NE(c, nullptr);
  Tensor x = random_gradient(10000, 71);
  for (size_t k : {1u, 10u, 100u, 1000u}) {
    SparseTensor s = c->compress(x.span(), k);
    if (std::string(GetParam()) == "dgc") {
      EXPECT_LE(s.nnz(), k);
      EXPECT_GE(s.nnz(), k * 8 / 10);
    } else {
      EXPECT_EQ(s.nnz(), k);
    }
    EXPECT_TRUE(s.is_valid());
  }
}

TEST_P(CompressorPropertyTest, ValuesAlwaysMatchInput) {
  auto c = make(101);
  ASSERT_NE(c, nullptr);
  Tensor x = random_gradient(5000, 73);
  SparseTensor s = c->compress(x.span(), 128);
  for (size_t i = 0; i < s.nnz(); ++i) {
    EXPECT_EQ(s.values[i], x[s.indices[i]]);
  }
}

TEST_P(CompressorPropertyTest, DistinctIndices) {
  auto c = make(103);
  ASSERT_NE(c, nullptr);
  Tensor x = random_gradient(5000, 79);
  SparseTensor s = c->compress(x.span(), 256);
  std::set<uint32_t> unique(s.indices.begin(), s.indices.end());
  EXPECT_EQ(unique.size(), s.nnz());
}

TEST_P(CompressorPropertyTest, DecompressRoundTripPreservesSelected) {
  auto c = make(107);
  ASSERT_NE(c, nullptr);
  Tensor x = random_gradient(2000, 83);
  SparseTensor s = c->compress(x.span(), 100);
  Tensor dense = s.to_dense();
  for (size_t i = 0; i < s.nnz(); ++i) {
    EXPECT_EQ(dense[s.indices[i]], x[s.indices[i]]);
  }
}

INSTANTIATE_TEST_SUITE_P(AllCompressors, CompressorPropertyTest,
                         ::testing::Values("exact_topk", "dgc", "mstopk",
                                           "random_k"));

}  // namespace
}  // namespace hitopk::compress
