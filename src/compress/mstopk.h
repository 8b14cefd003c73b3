// MSTopK: the paper's approximate top-k operator (Algorithm 1).
//
// Instead of sorting, MSTopK brackets a magnitude threshold inside the
// interval [mean(|x|), max(|x|)].  The search tracks two thresholds:
//   thres1 — the tightest threshold seen selecting <= k elements (k1 of them)
//   thres2 — the loosest threshold seen selecting  > k elements (k2 of them)
// The result is all k1 elements above thres1 plus a random contiguous run of
// (k - k1) elements from the band [thres2, thres1), giving exactly k
// selected elements (lines 25-29).
//
// Two implementations of the bracket search:
//   kHistogram (default) — two counting passes over integer magnitude-bit
//       buckets (threshold_select::bracket_kth_magnitude): a half-octave
//       pass locates the boundary bucket, an exact 512-way mantissa-bit
//       refinement brackets the k-th magnitude to 2^13 ulps.  No statistics
//       pass and no verification recount (bit-pattern boundaries make the
//       counts exact by construction): two counting passes plus the gather,
//       the same pass structure as exact_topk.
//   kMultiPass — the paper's literal binary search: each of the N samplings
//       is one counting pass (count |x(i)| >= thres).  O(N*d); kept as the
//       validation reference and for the sampling-count ablation.
#pragma once

#include "compress/compressor.h"
#include "core/rng.h"

namespace hitopk::compress {

enum class MsTopKMode {
  kHistogram,  // magnitude-bit bracket search (fast path, no stats pass)
  kMultiPass,  // Alg. 1 literal binary search (validation reference)
};

struct MsTopKStats {
  // Thresholds bracketing the exact k-th magnitude after the search.
  float thres1 = 0.0f;
  float thres2 = 0.0f;
  // Element counts at those thresholds.
  size_t k1 = 0;
  size_t k2 = 0;
  // Number of counting passes actually executed (2 for the bit-bucket
  // mode: coarse + refinement).
  int samplings = 0;
  // Histogram buckets used per pass (0 in multi-pass mode).
  int buckets = 0;
};

class MsTopK : public Compressor {
 public:
  // n_samplings is the paper's N; their experiments use N = 30 (Fig. 6).
  // Only the multi-pass mode consumes it.
  explicit MsTopK(int n_samplings = 30, uint64_t seed = 42,
                  MsTopKMode mode = MsTopKMode::kHistogram);

  std::string name() const override {
    return mode_ == MsTopKMode::kHistogram ? "mstopk" : "mstopk_legacy";
  }

  SparseTensor compress(std::span<const float> x, size_t k) override;

  // Search diagnostics for the most recent compress() call (used by the
  // sampling-count ablation and the histogram-vs-legacy property tests).
  const MsTopKStats& last_stats() const { return stats_; }

  int n_samplings() const { return n_samplings_; }
  MsTopKMode mode() const { return mode_; }

 private:
  // Fast path: bit-bucket bracket search and selection in two data reads
  // (threshold_select::bracket_kth_magnitude does the search and hands back
  // the certain/band index sets; this draws the random band run).
  SparseTensor bit_select(std::span<const float> x, size_t k);

  // Alg. 1's binary search: fills stats_.{thres1,thres2,k1,k2,samplings}.
  void multi_pass_brackets(std::span<const float> x, size_t k, float abs_mean,
                           float abs_max);

  // Alg. 1 lines 25-29: emit the certain set plus a random band run.
  SparseTensor gather_selection(std::span<const float> x, size_t k);

  int n_samplings_;
  Rng rng_;
  MsTopKMode mode_;
  MsTopKStats stats_;
};

}  // namespace hitopk::compress
