// Tests for the parallel tensor operator and the LARS/SGD/LAMB optimizers.
#include <gtest/gtest.h>

#include <cmath>

#include "core/rng.h"
#include "models/calibration.h"
#include "models/model_zoo.h"
#include "pto/lars.h"
#include "pto/pto.h"
#include "simgpu/gpu_model.h"
#include "simnet/cluster.h"

namespace hitopk::pto {
namespace {

using simnet::Cluster;
using simnet::Topology;

// ------------------------------------------------------------ plan
TEST(PtoPlan, SlicesPartitionItems) {
  PtoPlan plan{128, 161};  // the paper's example: 161 layers on 128 GPUs
  size_t total = 0;
  for (int rank = 0; rank < 128; ++rank) {
    const auto slice = plan.slice(rank);
    EXPECT_EQ(slice.begin, total);
    total += slice.count;
    EXPECT_LE(slice.count, 2u);  // "the first GPU calculates 1 to 2 layers"
    EXPECT_GE(slice.count, 1u);
  }
  EXPECT_EQ(total, 161u);
  EXPECT_EQ(plan.max_slice(), 2u);
}

TEST(PtoCompute, MatchesSerialComputation) {
  PtoPlan plan{7, 100};
  auto op = [](size_t i) { return static_cast<float>(i * i % 13); };
  const auto result = pto_compute(plan, op);
  ASSERT_EQ(result.size(), 100u);
  for (size_t i = 0; i < 100; ++i) EXPECT_EQ(result[i], op(i));
}

TEST(PtoAllGather, ScalarGatherIsCheap) {
  // 161 scalars across 128 GPUs: far under a millisecond of wire time.
  Cluster cluster(Topology::tencent_cloud(16, 8));
  const double done = pto_allgather_seconds(cluster, 161, 4, 0.0);
  EXPECT_LT(done, 2e-3);
  EXPECT_GT(done, 0.0);
}

TEST(PtoTiming, MatchesPaperLarsSpeedup) {
  // §5.4: LARS 11 ms -> 7 ms on ResNet-50 and 30 ms -> 14 ms on
  // Transformer with PTO on 128 GPUs ("about 2x speedups").
  using models::Calibration;
  Cluster cluster(Topology::tencent_cloud(16, 8));
  const PtoTiming resnet = pto_timing(
      cluster, 161, 4, Calibration::lars_resnet50_seconds,
      Calibration::pto_framework_overhead_resnet50);
  EXPECT_NEAR(resnet.pto_seconds, 7e-3, 2e-3);
  EXPECT_GT(resnet.speedup(), 1.3);

  cluster.reset();
  const PtoTiming transformer = pto_timing(
      cluster, 452, 4, Calibration::lars_transformer_seconds,
      Calibration::pto_framework_overhead_transformer);
  EXPECT_NEAR(transformer.pto_seconds, 14e-3, 3e-3);
  EXPECT_GT(transformer.speedup(), 1.8);
}

TEST(PtoTiming, NoBenefitOnOneGpu) {
  Cluster cluster(Topology::tencent_cloud(1, 1));
  const PtoTiming t = pto_timing(cluster, 161, 4, 11e-3, 0.0);
  EXPECT_NEAR(t.pto_seconds, t.serial_seconds, 1e-9);
}

// ------------------------------------------------------------ lars rate
TEST(LarsRate, MatchesEquation11) {
  LarsConfig config;
  config.trust_coefficient = 0.001;
  config.weight_decay = 5e-5;
  config.epsilon = 0.0;
  const float w = 2.0f, g = 0.5f;
  const float expected =
      0.001f * w / (g + 5e-5f * w);
  EXPECT_NEAR(lars_rate(config, w, g), expected, 1e-9f);
}

TEST(LarsRate, ZeroWeightNormGivesUnitRate) {
  EXPECT_EQ(lars_rate(LarsConfig{}, 0.0f, 1.0f), 1.0f);
}

TEST(LarsRate, LargerGradNormShrinksRate) {
  LarsConfig config;
  EXPECT_GT(lars_rate(config, 1.0f, 0.1f), lars_rate(config, 1.0f, 10.0f));
}

// ------------------------------------------------------------ optimizers
TEST(SgdOptimizer, PlainStepWithoutMomentum) {
  SgdOptimizer sgd(0.0, 0.0);
  Tensor w = Tensor::from({1.0f, 2.0f});
  Tensor g = Tensor::from({0.5f, -0.5f});
  sgd.step("w", w.span(), g.span(), 0.1);
  EXPECT_NEAR(w[0], 0.95f, 1e-6f);
  EXPECT_NEAR(w[1], 2.05f, 1e-6f);
}

TEST(SgdOptimizer, MomentumAccumulates) {
  SgdOptimizer sgd(0.9, 0.0);
  Tensor w = Tensor::from({0.0f});
  Tensor g = Tensor::from({1.0f});
  sgd.step("w", w.span(), g.span(), 1.0);  // v=1, w=-1
  sgd.step("w", w.span(), g.span(), 1.0);  // v=1.9, w=-2.9
  EXPECT_NEAR(w[0], -2.9f, 1e-6f);
}

TEST(SgdOptimizer, WeightDecayPullsTowardZero) {
  SgdOptimizer sgd(0.0, 0.1);
  Tensor w = Tensor::from({1.0f});
  Tensor g = Tensor::from({0.0f});
  sgd.step("w", w.span(), g.span(), 0.5);
  EXPECT_LT(w[0], 1.0f);
}

TEST(LarsOptimizer, RecordsLayerRates) {
  LarsOptimizer lars;
  Rng rng(1);
  Tensor w(100), g(100);
  w.fill_normal(rng, 0.0f, 1.0f);
  g.fill_normal(rng, 0.0f, 1.0f);
  lars.step("layer0", w.span(), g.span(), 0.1);
  EXPECT_GT(lars.last_rate("layer0"), 0.0f);
  EXPECT_EQ(lars.last_rate("unknown"), 0.0f);
}

TEST(LarsOptimizer, StepScaleIndependentOfGradientScale) {
  // The trust ratio normalizes the gradient magnitude: scaling g by 100
  // leaves the first-step weight delta (almost) unchanged.
  LarsOptimizer a, b;
  Rng rng(2);
  Tensor w1(50), g(50);
  w1.fill_normal(rng, 0.0f, 1.0f);
  g.fill_normal(rng, 0.0f, 1.0f);
  Tensor w2 = w1;
  Tensor g_scaled = g;
  g_scaled *= 100.0f;
  a.step("w", w1.span(), g.span(), 0.1);
  b.step("w", w2.span(), g_scaled.span(), 0.1);
  // Compare the update norms.
  float delta1 = 0, delta2 = 0;
  for (size_t i = 0; i < 50; ++i) {
    delta1 += (w1[i]) * (w1[i]);
    delta2 += (w2[i]) * (w2[i]);
  }
  EXPECT_NEAR(std::sqrt(delta1), std::sqrt(delta2), 0.05f * std::sqrt(delta1));
}

TEST(Optimizers, IndependentStatePerKey) {
  SgdOptimizer sgd(0.9, 0.0);
  Tensor a = Tensor::from({0.0f});
  Tensor b = Tensor::from({0.0f});
  Tensor g = Tensor::from({1.0f});
  sgd.step("a", a.span(), g.span(), 1.0);
  sgd.step("a", a.span(), g.span(), 1.0);
  sgd.step("b", b.span(), g.span(), 1.0);
  EXPECT_NEAR(a[0], -2.9f, 1e-6f);
  EXPECT_NEAR(b[0], -1.0f, 1e-6f);  // fresh momentum for key "b"
}

// ----------------------------------------- PTO + LARS integration
TEST(PtoLars, PartitionedRatesEqualSerialRates) {
  // Compute the paper's LARS microbench functionally: random w, g per
  // ResNet-50 layer; rates via serial loop and via PTO partition must agree
  // exactly (same inputs on every "GPU").
  const models::ModelSpec spec = models::resnet50();
  Rng rng(3);
  std::vector<Tensor> weights, grads;
  for (const auto& layer : spec.layers) {
    Tensor w(layer.size()), g(layer.size());
    w.fill_normal(rng, 0.0f, 0.1f);
    g.fill_normal(rng, 0.0f, 0.01f);
    weights.push_back(std::move(w));
    grads.push_back(std::move(g));
  }
  LarsConfig config;
  auto rate_of = [&](size_t layer) {
    return lars_rate(config, weights[layer].l2_norm(),
                     grads[layer].l2_norm());
  };
  std::vector<float> serial(spec.num_tensors());
  for (size_t l = 0; l < spec.num_tensors(); ++l) serial[l] = rate_of(l);

  PtoPlan plan{128, spec.num_tensors()};
  const auto partitioned = pto_compute(plan, rate_of);
  ASSERT_EQ(partitioned.size(), serial.size());
  for (size_t l = 0; l < serial.size(); ++l) {
    EXPECT_EQ(partitioned[l], serial[l]) << "layer " << l;
  }
}

}  // namespace
}  // namespace hitopk::pto
