#include "compress/exact_topk.h"

namespace hitopk::compress {

SparseTensor exact_topk(std::span<const float> x, size_t k) {
  return select_topk(x, k);
}

float exact_topk_threshold(std::span<const float> x, size_t k) {
  return topk_threshold(x, k);
}

SparseTensor ExactTopK::compress(std::span<const float> x, size_t k) {
  return select_topk(x, k);
}

}  // namespace hitopk::compress
