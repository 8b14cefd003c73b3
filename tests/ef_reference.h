// The textbook error-feedback exchange, one step at a time:
//
//   ef_apply:  grad += residual[key]
//   ef_absorb: residual[key] = grad - dense(sent)
//
// ErrorFeedback::apply_priming / absorb_primed fuse these two passes; the
// tests use this unfused form as the reference the fused pair must match
// bitwise, and to drive compressors whose residual is not "zero the sent
// coordinates".
#pragma once

#include <span>
#include <string>
#include <vector>

#include "compress/error_feedback.h"
#include "compress/sparse_tensor.h"
#include "core/check.h"
#include "core/tensor.h"

namespace hitopk::test {

// grad += residual[key]; a zero residual is created on first use.  Throws
// CheckError if the key holds a residual of another size.
inline void ef_apply(compress::ErrorFeedback& ef, const std::string& key,
                     std::span<float> grad) {
  ef.ensure(key, grad.size());
  tensor_ops::add_into(grad, ef.residual(key));
}

// residual[key] = grad - dense(sent): grad itself at unsent coordinates,
// grad[idx] - sent.values[i] at sent ones (+0.0 for exact sends, the
// quantization error for lossy ones).  `sent.indices` must index into grad.
inline void ef_absorb(compress::ErrorFeedback& ef, const std::string& key,
                      std::span<const float> grad,
                      const compress::SparseTensor& sent) {
  ef.ensure(key, grad.size());
  HITOPK_CHECK_EQ(sent.dense_size, grad.size());
  std::vector<float> residual(grad.begin(), grad.end());
  for (size_t i = 0; i < sent.nnz(); ++i) {
    HITOPK_CHECK_LT(sent.indices[i], residual.size())
        << "sent index out of range";
    residual[sent.indices[i]] -= sent.values[i];
  }
  ef.set(key, residual);
}

}  // namespace hitopk::test
