#include "pto/lars.h"

#include <algorithm>

#include "core/check.h"
#include "core/parallel.h"

namespace hitopk::pto {
namespace {

// Shared velocity-map export helpers (SgdOptimizer and LarsOptimizer store
// the same unordered_map<string, Tensor> momentum state).
std::vector<std::string> sorted_keys(
    const std::unordered_map<std::string, Tensor>& m) {
  std::vector<std::string> out;
  out.reserve(m.size());
  for (const auto& [key, value] : m) out.push_back(key);
  std::sort(out.begin(), out.end());
  return out;
}

std::span<const float> lookup_state(
    const std::unordered_map<std::string, Tensor>& m, const std::string& key) {
  auto it = m.find(key);
  HITOPK_CHECK(it != m.end()) << "no optimizer state for" << key;
  return it->second.span();
}

void store_state(std::unordered_map<std::string, Tensor>& m,
                 const std::string& key, std::span<const float> values) {
  Tensor t(values.size());
  std::copy(values.begin(), values.end(), t.span().begin());
  m[key] = std::move(t);
}

}  // namespace

float lars_rate(const LarsConfig& config, float weight_norm, float grad_norm) {
  if (weight_norm <= 0.0f) return 1.0f;  // fresh tensors: no scaling signal
  const double denominator =
      static_cast<double>(grad_norm) +
      config.weight_decay * static_cast<double>(weight_norm) + config.epsilon;
  return static_cast<float>(config.trust_coefficient *
                            static_cast<double>(weight_norm) / denominator);
}

SgdOptimizer::SgdOptimizer(double momentum, double weight_decay)
    : momentum_(momentum), weight_decay_(weight_decay) {}

namespace {

// Blocked constant-trip momentum update over restrict pointers so the GCC12
// -O2 vectorizer engages; this runs once per iteration over every parameter
// in the convergence loop, split into parallel_chunks chunks.
void sgd_update(float* __restrict__ w, float* __restrict__ v,
                const float* __restrict__ g, size_t n, float momentum,
                float weight_decay, float lr) {
  constexpr size_t kBlock = 16;
  const size_t full_end = n - n % kBlock;
  for (size_t base = 0; base < full_end; base += kBlock) {
    float* wb = w + base;
    float* vb = v + base;
    const float* gb = g + base;
    for (size_t j = 0; j < kBlock; ++j) {
      vb[j] = momentum * vb[j] + (gb[j] + weight_decay * wb[j]);
      wb[j] -= lr * vb[j];
    }
  }
  for (size_t i = full_end; i < n; ++i) {
    v[i] = momentum * v[i] + (g[i] + weight_decay * w[i]);
    w[i] -= lr * v[i];
  }
}

}  // namespace

void SgdOptimizer::step(const std::string& key, std::span<float> weights,
                        std::span<const float> grad, double lr) {
  HITOPK_CHECK_EQ(weights.size(), grad.size());
  auto [it, inserted] = velocity_.try_emplace(key, weights.size());
  Tensor& v = it->second;
  HITOPK_CHECK_EQ(v.size(), weights.size());
  // Elementwise, and every chunk starts on a 16-element block boundary, so
  // the update is bitwise the single serial call at any pool width.
  const auto momentum = static_cast<float>(momentum_);
  const auto weight_decay = static_cast<float>(weight_decay_);
  const auto rate = static_cast<float>(lr);
  parallel_chunks(weights.size(), [&](size_t lo, size_t hi) {
    sgd_update(weights.data() + lo, v.data() + lo, grad.data() + lo, hi - lo,
               momentum, weight_decay, rate);
  });
}

std::vector<std::string> SgdOptimizer::state_keys() const {
  return sorted_keys(velocity_);
}

std::span<const float> SgdOptimizer::state(const std::string& key) const {
  return lookup_state(velocity_, key);
}

void SgdOptimizer::set_state(const std::string& key,
                             std::span<const float> values) {
  store_state(velocity_, key, values);
}

LarsOptimizer::LarsOptimizer(LarsConfig config) : config_(config) {}

void LarsOptimizer::step(const std::string& key, std::span<float> weights,
                         std::span<const float> grad, double lr) {
  HITOPK_CHECK_EQ(weights.size(), grad.size());
  const float w_norm = tensor_ops::l2_norm(
      std::span<const float>(weights.data(), weights.size()));
  const float g_norm = tensor_ops::l2_norm(grad);
  const float rate = lars_rate(config_, w_norm, g_norm);
  last_rate_[key] = rate;

  auto [it, inserted] = velocity_.try_emplace(key, weights.size());
  Tensor& v = it->second;
  HITOPK_CHECK_EQ(v.size(), weights.size());
  const float scaled_lr = static_cast<float>(lr) * rate;
  for (size_t i = 0; i < weights.size(); ++i) {
    const float g =
        grad[i] + static_cast<float>(config_.weight_decay) * weights[i];
    v[i] = static_cast<float>(config_.momentum) * v[i] + scaled_lr * g;
    weights[i] -= v[i];
  }
}

float LarsOptimizer::last_rate(const std::string& key) const {
  auto it = last_rate_.find(key);
  return it == last_rate_.end() ? 0.0f : it->second;
}

std::vector<std::string> LarsOptimizer::state_keys() const {
  return sorted_keys(velocity_);
}

std::span<const float> LarsOptimizer::state(const std::string& key) const {
  return lookup_state(velocity_, key);
}

void LarsOptimizer::set_state(const std::string& key,
                              std::span<const float> values) {
  store_state(velocity_, key, values);
}

}  // namespace hitopk::pto
