// Exact top-k selection (the nn.topk baseline of Fig. 6) as a Compressor.
//
// exact_topk() and exact_topk_threshold() themselves live in
// compress/threshold_select.h, which locates the k-th magnitude with a
// 512-bucket histogram and repairs the boundary bucket exactly, returning
// results bit-identical (indices and values) to the packed-key
// std::nth_element reference (select_topk_nth).
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
  SparseTensor compress(std::span<const float> x, size_t k) override {
    return exact_topk(x, k);
  }
};

}  // namespace hitopk::compress
