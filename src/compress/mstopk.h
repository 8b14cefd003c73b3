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
//
// Under error feedback, compress(x, k, residual) takes the shard's
// residual and compensates the shard itself.  In the histogram mode the
// compensation rides in the counting read: each element is added to its
// residual, written back to both buffers and counted in one visit, so
// HiTopKComm's step 2 reads each shard element twice (count, gather)
// instead of three times.
#pragma once

#include "compress/compressor.h"
#include "compress/threshold_select.h"
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

  // compress() of the error-feedback-compensated shard: x and residual
  // both become x + residual (ErrorFeedback::apply_priming's add), then x is
  // selected from, with the same bits in the selection, x and residual as
  // apply_priming followed by compress().  The histogram mode folds the add
  // into its counting read (bracket_kth_magnitude_primed), so the shard is
  // read once for both; the multi-pass mode and k == 0 or k >= x.size()
  // add up front.  Every path primes the whole shard exactly once, the
  // non-finite first-k fallback included.  The caller absorbs the send
  // with ErrorFeedback::absorb_primed on the residual's key.
  SparseTensor compress(std::span<float> x, size_t k,
                        std::span<float> residual);

  // Search diagnostics for the most recent compress() call (used by the
  // sampling-count ablation and the histogram-vs-legacy property tests).
  const MsTopKStats& last_stats() const { return stats_; }

  int n_samplings() const { return n_samplings_; }
  MsTopKMode mode() const { return mode_; }

 private:
  // The body both compress() overloads share for 0 < k < x.size(): resets
  // stats_, runs `search(certain, band)` (one of the bracket searches
  // below) and hands its result to select(), or the first k indices when
  // it returns false.
  template <typename Search>
  SparseTensor select_after(std::span<const float> x, size_t k,
                            const Search& search);

  // The two bracket searches: each fills stats_, the certain set
  // (|x(i)| >= thres1) and the band ([thres2, thres1), ascending index
  // order), or returns false when no threshold can discriminate and
  // compress() falls back to the first k indices.
  //   record_brackets — stores the result of
  //     threshold_select::bracket_kth_magnitude (two data reads, the first
  //     one primed under error feedback) into stats_;
  //   multi_pass_brackets — Alg. 1 lines 1-26: statistics, the N-sampling
  //     binary search, and a gather pass.
  bool record_brackets(const MagnitudeBrackets& brackets);
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
