// Gradient compressor interface.
//
// A compressor selects (approximately) the k largest-magnitude elements of a
// dense gradient.  Implementations:
//   - ExactTopK   : exact selection (the paper's nn.topk baseline)
//   - DgcTopK     : double-sampling selection (Lin et al. 2018, "DGC")
//   - MsTopK      : the paper's Algorithm 1 (multi-sampling threshold search)
//   - RandomK     : uniform random selection (ablation baseline)
//   - ThresholdK  : fixed-threshold selection (variable k; ablation)
#pragma once

#include <span>
#include <string>

#include "compress/sparse_tensor.h"

namespace hitopk::compress {

class Compressor {
 public:
  virtual ~Compressor() = default;

  // Human-readable identifier (used by benches and tests).
  virtual std::string name() const = 0;

  // Selects k elements from x.  Implementations must return a valid
  // SparseTensor with dense_size == x.size(); approximate algorithms return
  // exactly k elements whenever k <= x.size() (the paper's MSTopK guarantees
  // this via the two-threshold band, Alg. 1 lines 25-29).
  virtual SparseTensor compress(std::span<const float> x, size_t k) = 0;
};

}  // namespace hitopk::compress
