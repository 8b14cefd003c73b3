// LARS: layer-wise adaptive rate scaling (You et al. 2018), Eq. 11:
//
//   lambda_l = gamma * eta_t * ||w_l|| / (||g_l|| + eps_wd * ||w_l||)
//
// required for the paper's 32K-batch training, plus the plain momentum-SGD
// baseline.  The optimizers here are *functional* (they update real
// tensors in the convergence experiments); the simulated device cost of the
// layer-wise norms lives in simgpu::GpuCostModel::lars_seconds and the PTO
// partitioning in pto/pto.h.
#pragma once

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/tensor.h"

namespace hitopk::pto {

struct LarsConfig {
  double trust_coefficient = 0.001;  // gamma
  double weight_decay = 5e-5;        // eps in Eq. 11's denominator term
  double momentum = 0.9;
  double epsilon = 1e-9;  // numerical floor for zero norms
};

// The layer-wise learning-rate multiplier of Eq. 11 (excluding eta_t, which
// the caller applies).
float lars_rate(const LarsConfig& config, float weight_norm, float grad_norm);

// Momentum SGD baseline: w -= lr * (m = mu*m + g + wd*w).
class SgdOptimizer {
 public:
  explicit SgdOptimizer(double momentum = 0.9, double weight_decay = 0.0);

  void step(const std::string& key, std::span<float> weights,
            std::span<const float> grad, double lr);

  // Momentum-state export/import for checkpointing (sorted keys = canonical
  // serialization order) and elastic worker management.
  std::vector<std::string> state_keys() const;
  std::span<const float> state(const std::string& key) const;
  void set_state(const std::string& key, std::span<const float> values);
  // Drops the velocity for `key` (a rejoining worker restarts cold).
  void reset(const std::string& key) { velocity_.erase(key); }
  void clear() { velocity_.clear(); }

 private:
  double momentum_;
  double weight_decay_;
  std::unordered_map<std::string, Tensor> velocity_;
};

// LARS optimizer: momentum SGD with the per-tensor trust ratio of Eq. 11.
class LarsOptimizer {
 public:
  explicit LarsOptimizer(LarsConfig config = LarsConfig{});

  void step(const std::string& key, std::span<float> weights,
            std::span<const float> grad, double lr);

  // The rate used in the most recent step for `key` (diagnostics / tests).
  float last_rate(const std::string& key) const;

  // Momentum-state export/import, mirroring SgdOptimizer's (last_rate_ is a
  // diagnostic recomputed every step, so it is not part of the state).
  std::vector<std::string> state_keys() const;
  std::span<const float> state(const std::string& key) const;
  void set_state(const std::string& key, std::span<const float> values);
  void clear() {
    velocity_.clear();
    last_rate_.clear();
  }

 private:
  LarsConfig config_;
  std::unordered_map<std::string, Tensor> velocity_;
  std::unordered_map<std::string, float> last_rate_;
};

}  // namespace hitopk::pto
