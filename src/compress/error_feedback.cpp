#include "compress/error_feedback.h"

#include <algorithm>

#include "core/check.h"

namespace hitopk::compress {

Tensor& ErrorFeedback::entry(const std::string& key, size_t size) {
  // Lookup-first: for keys pre-created via ensure(), this path only ever
  // performs a const find, which the standard guarantees is safe from
  // concurrent parallel_for workers (insertion is not).
  auto it = residuals_.find(key);
  if (it == residuals_.end()) it = residuals_.try_emplace(key, size).first;
  HITOPK_CHECK_EQ(it->second.size(), size)
      << "residual shape changed for tensor" << key;
  return it->second;
}

std::span<float> ErrorFeedback::ensure(const std::string& key, size_t size) {
  return entry(key, size).span();
}

void ErrorFeedback::apply_priming(const std::string& key,
                                  std::span<float> grad) {
  Tensor& residual = entry(key, grad.size());
  // One fused pass: grad and residual both become grad + residual (the
  // unsent remainder before the sent coordinates are cleared).
  tensor_ops::add_into_both(grad, residual.span());
}

void ErrorFeedback::absorb_primed(const std::string& key,
                                  const SparseTensor& sent) {
  Tensor& residual = entry(key, sent.dense_size);
  uint32_t max_index = 0;
  for (size_t i = 0; i < sent.nnz(); ++i) {
    max_index = std::max(max_index, sent.indices[i]);
  }
  HITOPK_CHECK(sent.nnz() == 0 || max_index < residual.size())
      << "sent index out of range";
  float* r = residual.data();
  for (size_t i = 0; i < sent.nnz(); ++i) r[sent.indices[i]] -= sent.values[i];
}

double ErrorFeedback::residual_sq_norm() const {
  double acc = 0.0;
  for (const std::string& key : keys()) {
    const float norm = residuals_.at(key).l2_norm();
    acc += static_cast<double>(norm) * norm;
  }
  return acc;
}

void ErrorFeedback::reset() { residuals_.clear(); }

std::vector<std::string> ErrorFeedback::keys() const {
  std::vector<std::string> out;
  out.reserve(residuals_.size());
  for (const auto& [key, residual] : residuals_) out.push_back(key);
  std::sort(out.begin(), out.end());
  return out;
}

std::span<const float> ErrorFeedback::residual(const std::string& key) const {
  auto it = residuals_.find(key);
  HITOPK_CHECK(it != residuals_.end()) << "no residual for tensor" << key;
  return it->second.span();
}

void ErrorFeedback::set(const std::string& key,
                        std::span<const float> values) {
  Tensor t(values.size());
  std::copy(values.begin(), values.end(), t.span().begin());
  residuals_[key] = std::move(t);
}

Tensor ErrorFeedback::take(const std::string& key) {
  auto it = residuals_.find(key);
  if (it == residuals_.end()) return Tensor();
  Tensor out = std::move(it->second);
  residuals_.erase(it);
  return out;
}

void ErrorFeedback::accumulate(const std::string& key,
                               std::span<const float> values) {
  Tensor& residual = entry(key, values.size());
  tensor_ops::add_into(residual.span(), values);
}

}  // namespace hitopk::compress
