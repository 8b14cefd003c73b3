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
// Two implementations of the bracket search, one selection tail:
//   kHistogram (default) — threshold_select::bracket_kth_magnitude, the
//       same counting read and gather that exact_topk runs: a half-octave
//       magnitude-bit histogram locates the boundary bucket, and an exact
//       512-way mantissa-bit refinement of its gathered candidates
//       brackets the k-th magnitude to 2^13 ulps.  No statistics pass and
//       no verification recount (bit-pattern boundaries make the counts
//       exact by construction).
//   kMultiPass — the paper's literal binary search: each of the N samplings
//       is one counting pass (count |x(i)| >= thres).  O(N*d); kept as the
//       validation reference and for the sampling-count ablation.
// Both hand their certain set and band to one implementation of lines
// 25-29, so they draw the band run from the RNG identically.
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
  // The two bracket searches: each fills stats_, the certain set
  // (|x(i)| >= thres1) and the band ([thres2, thres1), ascending index
  // order), or returns false when no threshold can discriminate and
  // compress() falls back to the first k indices.
  //   bit_brackets — threshold_select::bracket_kth_magnitude, two data
  //     reads;
  //   multi_pass_brackets — Alg. 1 lines 1-26: statistics, the N-sampling
  //     binary search, and a gather pass.
  bool bit_brackets(std::span<const float> x, size_t k,
                    std::vector<uint32_t>& certain,
                    std::vector<uint32_t>& band);
  bool multi_pass_brackets(std::span<const float> x, size_t k,
                           std::vector<uint32_t>& certain,
                           std::vector<uint32_t>& band);

  // Alg. 1 lines 25-29, shared by both modes: the certain set plus a random
  // contiguous band run, indices sorted and values gathered from x.
  SparseTensor select(std::span<const float> x, size_t k,
                      const std::vector<uint32_t>& certain,
                      const std::vector<uint32_t>& band);

  int n_samplings_;
  Rng rng_;
  MsTopKMode mode_;
  MsTopKStats stats_;
};

}  // namespace hitopk::compress
