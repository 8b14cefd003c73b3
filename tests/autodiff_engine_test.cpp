// Determinism tests for the rebuilt autodiff engine: tape reuse via
// reset() must be bitwise-identical to a fresh tape, the fused
// add_bias_relu op must be bitwise-identical to add_bias followed by relu,
// and run_convergence's parallel per-worker gradient fan-out must be
// bitwise-identical to serial execution for both dense SGD and LocalSGD.
#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "autodiff/tape.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/tensor.h"
#include "train/checkpoint.h"
#include "train/convergence.h"
#include "train/synthetic.h"

namespace hitopk {
namespace {

class ThreadGuard {
 public:
  ThreadGuard() : saved_(parallel_threads()) {}
  ~ThreadGuard() { set_parallel_threads(saved_); }

 private:
  int saved_;
};

// Builds a two-layer MLP forward/backward on the given tape and returns the
// loss; backward() writes the gradients into `grad`.
double mlp_pass(ad::Tape& tape, const std::vector<float>& params,
                const Tensor& x, const std::vector<int>& labels,
                std::vector<float>& grad, bool fused) {
  const size_t dim = 6, hidden = 8, classes = 4;
  size_t off = 0;
  auto leaf = [&](size_t rows, size_t cols) {
    std::span<const float> value(params.data() + off, rows * cols);
    std::span<float> g(grad.data() + off, rows * cols);
    off += rows * cols;
    return tape.leaf(value, g, rows, cols);
  };
  const ad::VarId w1 = leaf(dim, hidden);
  const ad::VarId b1 = leaf(1, hidden);
  const ad::VarId w2 = leaf(hidden, classes);
  const ad::VarId b2 = leaf(1, classes);
  const ad::VarId input = tape.leaf(x.span(), {}, x.rows(), x.cols());
  const ad::VarId pre = tape.matmul(input, w1);
  const ad::VarId h = fused ? tape.add_bias_relu(pre, b1)
                            : tape.relu(tape.add_bias(pre, b1));
  const ad::VarId logits = tape.add_bias(tape.matmul(h, w2), b2);
  const double loss = tape.softmax_cross_entropy(logits, labels);
  tape.backward();
  return loss;
}

struct MlpFixture {
  std::vector<float> params;
  Tensor x{5, 6};
  std::vector<int> labels{0, 3, 1, 2, 0};

  MlpFixture() {
    Rng rng(17);
    params.resize(6 * 8 + 8 + 8 * 4 + 4);
    for (auto& p : params) p = static_cast<float>(rng.normal(0.0, 0.5));
    x.fill_normal(rng, 0.0f, 1.0f);
  }
};

TEST(TapeEngine, FusedBiasReluBitwiseMatchesSeparateOps) {
  MlpFixture f;
  std::vector<float> grad_fused(f.params.size(), 0.0f);
  std::vector<float> grad_separate(f.params.size(), 0.0f);
  ad::Tape tape_fused, tape_separate;
  const double loss_fused =
      mlp_pass(tape_fused, f.params, f.x, f.labels, grad_fused, true);
  const double loss_separate =
      mlp_pass(tape_separate, f.params, f.x, f.labels, grad_separate, false);
  EXPECT_EQ(loss_fused, loss_separate);
  ASSERT_EQ(0, std::memcmp(grad_fused.data(), grad_separate.data(),
                           grad_fused.size() * sizeof(float)));
}

TEST(TapeEngine, ResetTapeBitwiseMatchesFreshTape) {
  MlpFixture f;
  std::vector<float> grad_fresh(f.params.size(), 0.0f);
  double loss_fresh = 0.0;
  {
    ad::Tape tape;
    loss_fresh = mlp_pass(tape, f.params, f.x, f.labels, grad_fresh, true);
  }
  // One tape reused across three passes: every pass must reproduce the
  // fresh-tape loss and gradient exactly even though the arena storage is
  // recycled (dirty) between passes.
  ad::Tape reused;
  for (int pass = 0; pass < 3; ++pass) {
    std::vector<float> grad(f.params.size(), 0.0f);
    reused.reset();
    const double loss = mlp_pass(reused, f.params, f.x, f.labels, grad, true);
    EXPECT_EQ(loss, loss_fresh) << "pass " << pass;
    ASSERT_EQ(0, std::memcmp(grad.data(), grad_fresh.data(),
                             grad.size() * sizeof(float)))
        << "pass " << pass;
  }
}

TEST(TapeEngine, ResetKeepsArenaCapacity) {
  MlpFixture f;
  ad::Tape tape;
  std::vector<float> grad(f.params.size(), 0.0f);
  // First pass may grow the arena; identical later passes must reuse the
  // same backing storage (reset() keeps capacity, steady state allocates
  // nothing), which shows up as a stable node-value address.
  mlp_pass(tape, f.params, f.x, f.labels, grad, true);
  tape.reset();
  mlp_pass(tape, f.params, f.x, f.labels, grad, true);
  const float* second = tape.value(5).data();  // first matmul node
  tape.reset();
  mlp_pass(tape, f.params, f.x, f.labels, grad, true);
  const float* third = tape.value(5).data();
  EXPECT_EQ(second, third);
}

// ------------------------------------------------ parallel run_convergence
train::ConvergenceOptions quick(train::ConvergenceAlgorithm algorithm) {
  train::ConvergenceOptions options;
  options.algorithm = algorithm;
  options.epochs = 2;
  options.nodes = 2;
  options.gpus_per_node = 2;
  options.local_batch = 16;
  options.density = 0.05;
  options.seed = 33;
  return options;
}

using Run = std::pair<train::ConvergenceResult, std::vector<float>>;

// Trains a fresh vision task with the given pool width; returns the curve
// and the final parameters.
Run train_with_threads(train::ConvergenceAlgorithm algorithm, int threads) {
  set_parallel_threads(threads);
  auto task = train::make_vision_task(47, "det", {32, 24});
  const auto result = train::run_convergence(*task, quick(algorithm));
  std::vector<float> params(task->params().begin(), task->params().end());
  return {result, params};
}

// MSTopK-SGD through an uneven world: worker 2 of the 2x2 world leaves for
// the rest of the first epoch (nodes of {2, 1} GPUs, where one GPU owns
// both HiTopKComm shards), then returns.
Run elastic_mstopk_with_threads(int threads) {
  set_parallel_threads(threads);
  auto task = train::make_vision_task(47, "det", {32, 24});
  train::ConvergenceEngine engine(
      *task, quick(train::ConvergenceAlgorithm::kMstopk));
  engine.begin_epoch();
  engine.step();
  engine.preempt_worker(2);
  while (engine.step_in_epoch() < engine.iters_per_epoch()) engine.step();
  engine.end_epoch();
  engine.restore_worker(2);
  while (!engine.done()) {
    engine.begin_epoch();
    while (engine.step_in_epoch() < engine.iters_per_epoch()) engine.step();
    engine.end_epoch();
  }
  std::vector<float> params(task->params().begin(), task->params().end());
  return {engine.result(), params};
}

template <typename RunWithThreads>
void expect_identical_across_threads(RunWithThreads run) {
  const auto [serial, serial_params] = run(1);
  const auto [parallel, parallel_params] = run(4);
  ASSERT_EQ(serial.curve.size(), parallel.curve.size());
  for (size_t e = 0; e < serial.curve.size(); ++e) {
    EXPECT_EQ(serial.curve[e].train_loss, parallel.curve[e].train_loss)
        << "epoch " << e;
    EXPECT_EQ(serial.curve[e].quality, parallel.curve[e].quality)
        << "epoch " << e;
  }
  ASSERT_EQ(0, std::memcmp(serial_params.data(), parallel_params.data(),
                           serial_params.size() * sizeof(float)))
      << "final parameters diverged";
}

void expect_identical_runs(train::ConvergenceAlgorithm algorithm) {
  expect_identical_across_threads([algorithm](int threads) {
    return train_with_threads(algorithm, threads);
  });
}

TEST(ParallelConvergence, DenseMatchesSerialBitwise) {
  ThreadGuard guard;
  expect_identical_runs(train::ConvergenceAlgorithm::kDense);
}

TEST(ParallelConvergence, MstopkMatchesSerialBitwise) {
  ThreadGuard guard;
  expect_identical_runs(train::ConvergenceAlgorithm::kMstopk);
}

TEST(ParallelConvergence, LocalSgdMatchesSerialBitwise) {
  ThreadGuard guard;
  expect_identical_runs(train::ConvergenceAlgorithm::kLocalSgd);
}

TEST(ParallelConvergence, MstopkElasticMatchesSerialBitwise) {
  ThreadGuard guard;
  expect_identical_across_threads(elastic_mstopk_with_threads);
}

// ------------------------------------------------ e2e model gradient golden
//
// The bench/e2e training model (vision proxy with {1024, 1024} hidden
// layers) at 16 workers and local batch 8: every worker's gradient (FNV-1a
// digest) and loss (hexfloat), pinned bitwise.  Its GEMMs reach K = 1024,
// i.e. four kKc blocks, which no EngineGolden row does.  Workers fan out
// over the pool as in the engine; CI reruns this with HITOPK_THREADS=1.

struct WorkerGradientRow {
  uint64_t digest;
  double loss;
};

constexpr WorkerGradientRow kE2eGradientGolden[] = {
    {0xdd80d63fccceb9f6ull, 0x1.fef5195d45092p+2},
    {0x802250e639196f4aull, 0x1.3130ea8b24a77p+3},
    {0xea975f1e408c5ad3ull, 0x1.07801800fa9b8p+3},
    {0x4edd0c5845658c75ull, 0x1.f883d350ae39ap+2},
    {0x9ca9bd8f732d7681ull, 0x1.e5ceba223da1ap+2},
    {0xcb5ae86ebf9db541ull, 0x1.47af5da3b132dp+3},
    {0x4be6b4f6a88400d8ull, 0x1.d3f281245c656p+2},
    {0x964c935ec2525494ull, 0x1.93f4e1e644b19p+2},
    {0x7ea8ab259683dd5aull, 0x1.18135cdf6a4a1p+3},
    {0x560c5bd14fcb2912ull, 0x1.47efe8102caa8p+3},
    {0xd06fd6cdd32c3e12ull, 0x1.af055be13251ap+2},
    {0x4d496330972e0476ull, 0x1.138dfdfeb0c3ap+3},
    {0xfe386ba15e99c3d0ull, 0x1.2e9ce7d4323d3p+3},
    {0xc09bd5825d3b2249ull, 0x1.07ee1f7421f15p+3},
    {0xd1ff273f28de7445ull, 0x1.b6cac4cdb1c96p+2},
    {0x4016bbec045380efull, 0x1.fdae68b01c1c6p+2},
};

// The e2e model's 16 worker gradients, each into a buffer that starts
// filled with `fill`; returns the actual rows when they differ from
// kE2eGradientGolden, an empty string when they match.
std::string e2e_gradient_mismatch(float fill) {
  constexpr uint64_t kSeed = 20260807;
  constexpr size_t kWorkers = 16;
  constexpr size_t kLocalBatch = 8;
  auto task = train::make_vision_task(kSeed, "resnet50-proxy", {1024, 1024});
  Rng rng(kSeed);
  std::vector<size_t> samples(kWorkers * kLocalBatch);
  for (size_t& s : samples) s = rng.uniform_index(task->train_size());
  std::vector<WorkerGradientRow> actual(kWorkers);
  parallel_for(0, kWorkers, [&](size_t w) {
    std::vector<float> grad(task->param_count(), fill);
    const double loss = task->gradient(
        std::span<const size_t>(samples).subspan(w * kLocalBatch, kLocalBatch),
        grad);
    actual[w] = {train::fnv1a64({reinterpret_cast<const uint8_t*>(grad.data()),
                                 grad.size() * sizeof(float)}),
                 loss};
  });
  std::string table;
  bool same = std::size(kE2eGradientGolden) == kWorkers;
  for (size_t w = 0; w < kWorkers; ++w) {
    char row[96];
    std::snprintf(row, sizeof row, "    {0x%016" PRIx64 "ull, %a},\n",
                  actual[w].digest, actual[w].loss);
    table += row;
    same = same && kE2eGradientGolden[w].digest == actual[w].digest &&
           std::bit_cast<uint64_t>(kE2eGradientGolden[w].loss) ==
               std::bit_cast<uint64_t>(actual[w].loss);
  }
  return same ? std::string() : table;
}

TEST(GradientGolden, E2eVisionModelWorkerGradientsAreFrozen) {
  const std::string table = e2e_gradient_mismatch(0.0f);
  EXPECT_TRUE(table.empty()) << "worker gradient golden mismatch; actual "
                                "rows:\n"
                             << table;
}

// gradient_at writes every gradient element: buffers that start as NaN
// give the same digests as zeroed ones.
TEST(GradientGolden, E2eWorkerGradientsIgnoreBufferContents) {
  const std::string table =
      e2e_gradient_mismatch(std::bit_cast<float>(0x7fc0deadu));
  EXPECT_TRUE(table.empty()) << "worker gradients from NaN-filled buffers "
                                "differ from the golden rows; actual rows:\n"
                             << table;
}

}  // namespace
}  // namespace hitopk
