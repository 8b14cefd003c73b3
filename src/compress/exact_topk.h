// Exact top-k selection (the nn.topk baseline of Fig. 6).
//
// Both entry points delegate to compress/threshold_select.h, which locates
// the k-th magnitude with a 512-bucket histogram and repairs the boundary
// bucket exactly, returning results bit-identical (indices and values) to
// the packed-key std::nth_element reference (select_topk_nth).
#pragma once

#include "compress/compressor.h"
#include "compress/threshold_select.h"

namespace hitopk::compress {

class ExactTopK : public Compressor {
 public:
  std::string name() const override { return "exact_topk"; }

  // Selects exactly min(k, x.size()) elements with the largest |x(i)|.
  // Ties at the threshold are broken by lower index, so the result is
  // deterministic.  Returned indices are sorted ascending.
  SparseTensor compress(std::span<const float> x, size_t k) override;
};

// Free-function form used internally by DGC's hierarchical re-selection,
// gTopK, and the TopK-SGD convergence path.
SparseTensor exact_topk(std::span<const float> x, size_t k);

// The k-th largest |x(i)| (the exact threshold `thres` of Eq. 2); 0 when
// k == 0 or x is empty.
float exact_topk_threshold(std::span<const float> x, size_t k);

}  // namespace hitopk::compress
