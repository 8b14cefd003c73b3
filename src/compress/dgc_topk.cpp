#include "compress/dgc_topk.h"

#include <algorithm>
#include <cmath>

#include "compress/exact_topk.h"
#include "core/check.h"
#include "core/workspace.h"

namespace hitopk::compress {

DgcTopK::DgcTopK(double sample_ratio, uint64_t seed)
    : sample_ratio_(sample_ratio), rng_(seed) {
  HITOPK_CHECK(sample_ratio > 0.0 && sample_ratio <= 1.0);
}

SparseTensor DgcTopK::compress(std::span<const float> x, size_t k) {
  const size_t d = x.size();
  last_topk_calls_ = 0;
  if (k >= d || k == 0 || d == 0) {
    last_topk_calls_ = 1;
    return exact_topk(x, k);
  }

  // Sample pass: uniform subset for threshold estimation.  The sample must
  // contain at least ceil(k * ratio) elements above the true threshold in
  // expectation, so keep a floor of 64 samples.
  const size_t sample_size = std::max<size_t>(
      64, static_cast<size_t>(std::ceil(sample_ratio_ * static_cast<double>(d))));
  Scratch<float> sample_buf(std::min(sample_size, d));
  std::vector<float>& sample = sample_buf.vec();
  for (auto& s : sample) s = x[rng_.uniform_index(d)];

  // Exact top-k on the sample estimates the threshold for k elements of the
  // full input: the k-th largest overall maps to roughly the
  // (k * sample/d)-th largest of the sample.
  const size_t sample_k = std::max<size_t>(
      1, static_cast<size_t>(std::round(static_cast<double>(k) *
                                        static_cast<double>(sample.size()) /
                                        static_cast<double>(d))));
  float threshold = exact_topk_threshold(sample, sample_k);
  ++last_topk_calls_;

  // Select candidates above the estimated threshold, relaxing the threshold
  // when the estimate was too aggressive.
  Scratch<uint32_t> candidates_buf(0);
  std::vector<uint32_t>& candidates = candidates_buf.vec();
  for (int attempt = 0; attempt < 8; ++attempt) {
    candidates.clear();
    for (size_t i = 0; i < d; ++i) {
      if (std::fabs(x[i]) >= threshold) candidates.push_back(static_cast<uint32_t>(i));
    }
    if (candidates.size() >= k || threshold == 0.0f) break;
    threshold *= 0.5f;  // Too few candidates: relax and rescan.
  }

  SparseTensor out;
  out.dense_size = d;
  if (candidates.size() <= k) {
    // Threshold hit (or undershot even at relaxation limit): ship what we
    // have, topping up exactly like a second selection pass would.
    out.indices.assign(candidates.begin(), candidates.end());
  } else {
    // Hierarchical re-selection: exact top-k restricted to the candidates.
    Scratch<float> candidate_values_buf(candidates.size());
    std::vector<float>& candidate_values = candidate_values_buf.vec();
    for (size_t i = 0; i < candidates.size(); ++i) {
      candidate_values[i] = x[candidates[i]];
    }
    SparseTensor inner = exact_topk(candidate_values, k);
    ++last_topk_calls_;
    out.indices.resize(inner.nnz());
    for (size_t i = 0; i < inner.nnz(); ++i) {
      out.indices[i] = candidates[inner.indices[i]];
    }
  }
  if (last_topk_calls_ < 2) ++last_topk_calls_;  // Candidate scan counts.

  std::sort(out.indices.begin(), out.indices.end());
  out.values.resize(out.indices.size());
  for (size_t i = 0; i < out.indices.size(); ++i) {
    out.values[i] = x[out.indices[i]];
  }
  return out;
}

}  // namespace hitopk::compress
