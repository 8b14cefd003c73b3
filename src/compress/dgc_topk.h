// DGC-style double-sampling top-k (Lin et al. 2018), the paper's second
// baseline in Fig. 6.
//
// The selection threshold is estimated from a uniform sample of the input:
// run exact top-k on the sample to get a trial threshold, select all
// elements above it, then hierarchically re-select exact top-k among the
// candidates.  When the sample underestimates the threshold the candidate
// set is too small and the threshold is relaxed and retried, which is why
// the paper notes DGC "requires at least two times of top-k operations".
#pragma once

#include "compress/compressor.h"
#include "core/rng.h"

namespace hitopk::compress {

class DgcTopK : public Compressor {
 public:
  // sample_ratio: fraction of the input sampled for threshold estimation
  // (the DGC paper uses 0.1%-1%).
  explicit DgcTopK(double sample_ratio = 0.01, uint64_t seed = 42);

  std::string name() const override { return "dgc"; }

  SparseTensor compress(std::span<const float> x, size_t k) override;

  // Number of exact top-k invocations in the most recent compress() call
  // (>= 2 by construction: sample + candidate re-selection).
  int last_topk_calls() const { return last_topk_calls_; }

 private:
  double sample_ratio_;
  Rng rng_;
  int last_topk_calls_ = 0;
};

}  // namespace hitopk::compress
