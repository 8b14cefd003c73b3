#include "compress/mstopk.h"

#include <algorithm>
#include <cmath>

#include "compress/threshold_select.h"
#include "core/check.h"
#include "core/tensor.h"
#include "core/workspace.h"

namespace hitopk::compress {
namespace {

// Degenerate fallback shared by all modes: the first min(k, d) indices,
// values gathered from x.  Used when no threshold can discriminate —
// k >= d, all-equal magnitudes (mean == max), or non-finite inputs.  The
// modes must keep agreeing on it (pinned by
// MsTopKHistogram.NonFiniteInputsFallBackLikeTheLegacyPaths).
SparseTensor first_k_fallback(std::span<const float> x, size_t k) {
  SparseTensor out;
  out.dense_size = x.size();
  k = std::min(k, x.size());
  out.indices.resize(k);
  out.values.resize(k);
  for (size_t i = 0; i < k; ++i) {
    out.indices[i] = static_cast<uint32_t>(i);
    out.values[i] = x[i];
  }
  return out;
}

}  // namespace

MsTopK::MsTopK(int n_samplings, uint64_t seed, MsTopKMode mode)
    : n_samplings_(n_samplings), rng_(seed), mode_(mode) {
  HITOPK_CHECK_GT(n_samplings, 0);
}

template <typename Search>
SparseTensor MsTopK::select_after(std::span<const float> x, size_t k,
                                  const Search& search) {
  stats_ = MsTopKStats{};
  Scratch<uint32_t> certain(0);
  Scratch<uint32_t> band(0);
  if (!search(certain.vec(), band.vec())) return first_k_fallback(x, k);
  return select(x, k, certain.vec(), band.vec());
}

SparseTensor MsTopK::compress(std::span<const float> x, size_t k) {
  if (k == 0 || k >= x.size()) {
    stats_ = MsTopKStats{};
    return first_k_fallback(x, k);
  }
  return select_after(x, k, [&](std::vector<uint32_t>& certain,
                                std::vector<uint32_t>& band) {
    return mode_ == MsTopKMode::kHistogram
               ? record_brackets(bracket_kth_magnitude(x, k, &certain, &band))
               : multi_pass_brackets(x, k, certain, band);
  });
}

SparseTensor MsTopK::compress(std::span<float> x, size_t k,
                              std::span<float> residual) {
  HITOPK_CHECK_EQ(residual.size(), x.size());
  if (mode_ == MsTopKMode::kMultiPass || k == 0 || k >= x.size()) {
    // No counting read to fold the compensation into: prime up front.
    tensor_ops::add_into_both(x, residual);
    return compress(std::span<const float>(x), k);
  }
  return select_after(x, k, [&](std::vector<uint32_t>& certain,
                                std::vector<uint32_t>& band) {
    return record_brackets(
        bracket_kth_magnitude_primed(x, residual, k, &certain, &band));
  });
}

bool MsTopK::record_brackets(const MagnitudeBrackets& brackets) {
  // The bit-bucket search needs no statistics: its boundaries are float
  // bit patterns, and degenerate inputs (all-equal magnitudes) simply put
  // every element in one sub-bucket, which the band handles.
  stats_.buckets = kThresholdBuckets;
  if (!brackets.finite) {
    // Non-finite magnitudes poison any threshold comparison: keep the
    // legacy degenerate fallback, like the statistics mode whose mean/max
    // a NaN or inf poisons.
    stats_.samplings = 1;
    return false;
  }
  stats_.thres1 = brackets.thres1;
  stats_.thres2 = brackets.thres2;
  stats_.k1 = brackets.k1;
  stats_.k2 = brackets.k2;
  stats_.samplings = 2;  // coarse counting read + gather read
  return true;
}

bool MsTopK::multi_pass_brackets(std::span<const float> x, size_t k,
                                 std::vector<uint32_t>& certain,
                                 std::vector<uint32_t>& band) {
  // Alg. 1 lines 1-3: magnitude statistics, one fused pass (the multi-pass
  // thresholds are arithmetic combinations of mean/max).
  const tensor_ops::AbsStats abs = tensor_ops::abs_stats(x);
  const float abs_max = abs.abs_max;
  const float abs_mean =
      static_cast<float>(abs.abs_sum / static_cast<double>(x.size()));

  // Degenerate input (all zeros or all equal magnitude): no threshold can
  // discriminate, fall back to the first k indices.
  if (!(abs_max > abs_mean)) return false;

  // Alg. 1 lines 4-24: binary search the threshold ratio in [0, 1], where
  // thres = mean + ratio * (max - mean).  thres1/k1 bracket from below
  // (nnz <= k), thres2/k2 from above (nnz > k).
  double lo = 0.0, hi = 1.0;
  size_t k1 = 0;
  size_t k2 = x.size();
  float thres1 = 0.0f;
  float thres2 = 0.0f;
  for (int i = 0; i < n_samplings_; ++i) {
    const double ratio = lo + (hi - lo) / 2.0;
    const float thres =
        abs_mean + static_cast<float>(ratio) * (abs_max - abs_mean);
    const size_t nnz = tensor_ops::count_abs_ge(x, thres);
    ++stats_.samplings;
    if (nnz <= k) {
      hi = ratio;
      if (nnz > k1 || thres1 == 0.0f) {
        k1 = nnz;
        thres1 = thres;
      }
    } else {
      lo = ratio;
      if (nnz < k2) {
        k2 = nnz;
        thres2 = thres;
      }
    }
    if (nnz == k) break;  // Exact bracket found early.
  }
  stats_.thres1 = thres1;
  stats_.thres2 = thres2;
  stats_.k1 = k1;
  stats_.k2 = k2;

  // Alg. 1 lines 25-26: gather the certain set (>= thres1) and the band
  // [thres2, thres1).  thres1 == 0 means no threshold ever selected <= k
  // elements (heavy ties at the max); then the certain set is empty and the
  // band is everything >= thres2.
  certain.reserve(k1);
  const bool have_upper = thres1 > 0.0f;
  for (size_t i = 0; i < x.size(); ++i) {
    const float m = std::fabs(x[i]);
    if (have_upper && m >= thres1) {
      certain.push_back(static_cast<uint32_t>(i));
    } else if (m >= thres2) {
      band.push_back(static_cast<uint32_t>(i));
    }
  }
  return true;
}

SparseTensor MsTopK::select(std::span<const float> x, size_t k,
                            const std::vector<uint32_t>& certain,
                            const std::vector<uint32_t>& band) {
  // Alg. 1 lines 25-29: every certain index (at most k: the tie overflow
  // guard), plus a random contiguous run of (k - k1) band elements.
  const size_t n_certain = std::min(k, certain.size());
  std::vector<uint32_t> chosen;
  chosen.reserve(k);
  chosen.assign(certain.begin(),
                certain.begin() + static_cast<long>(n_certain));
  const size_t need = k - chosen.size();
  if (need > 0 && !band.empty()) {
    const size_t take = std::min(need, band.size());
    const size_t max_start = band.size() - take;
    const size_t start = static_cast<size_t>(rng_.uniform_index(max_start + 1));
    chosen.insert(chosen.end(), band.begin() + static_cast<long>(start),
                  band.begin() + static_cast<long>(start + take));
  }
  // Band exhausted (possible only with extreme ties in the multi-pass
  // search; the bit brackets' exact counts always cover k): top up from the
  // lowest unselected indices so the contract "exactly k elements" holds.
  if (chosen.size() < k) {
    std::vector<bool> used(x.size(), false);
    for (uint32_t idx : chosen) used[idx] = true;
    for (size_t i = 0; i < x.size() && chosen.size() < k; ++i) {
      if (!used[i]) chosen.push_back(static_cast<uint32_t>(i));
    }
  }

  std::sort(chosen.begin(), chosen.end());
  SparseTensor out;
  out.dense_size = x.size();
  out.indices = std::move(chosen);
  out.values.resize(out.indices.size());
  for (size_t i = 0; i < out.indices.size(); ++i) {
    out.values[i] = x[out.indices[i]];
  }
  return out;
}

}  // namespace hitopk::compress
