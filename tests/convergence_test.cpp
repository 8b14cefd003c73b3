// Tests for the synthetic tasks and the distributed convergence harness
// (Fig. 10 / Table 2 machinery).  Convergence runs are kept short; the full
// curves live in bench_fig10_convergence.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/check.h"
#include "train/convergence.h"
#include "train/synthetic.h"

namespace hitopk::train {
namespace {

ConvergenceOptions quick(ConvergenceAlgorithm algorithm, int epochs = 8) {
  ConvergenceOptions options;
  options.algorithm = algorithm;
  options.epochs = epochs;
  options.nodes = 2;
  options.gpus_per_node = 2;
  options.local_batch = 32;  // global batch 128, the calibrated regime
  options.density = 0.05;
  options.seed = 21;
  return options;
}

// ------------------------------------------------------------ tasks
TEST(SyntheticTasks, VisionTaskShape) {
  auto task = make_vision_task(3);
  EXPECT_EQ(task->name(), "resnet50-proxy");
  EXPECT_EQ(task->quality_metric(), "top-5 accuracy");
  EXPECT_GT(task->param_count(), 10'000u);
  EXPECT_EQ(task->params().size(), task->param_count());
  // Segments tile the flat parameter vector exactly.
  size_t covered = 0;
  for (const auto& seg : task->segments()) {
    EXPECT_EQ(seg.begin, covered);
    covered += seg.count;
  }
  EXPECT_EQ(covered, task->param_count());
}

TEST(SyntheticTasks, SequenceTaskShape) {
  auto task = make_sequence_task(3);
  EXPECT_EQ(task->quality_metric(), "token accuracy");
  size_t covered = 0;
  for (const auto& seg : task->segments()) {
    EXPECT_EQ(seg.begin, covered);
    covered += seg.count;
  }
  EXPECT_EQ(covered, task->param_count());
}

TEST(SyntheticTasks, GradientIsDeterministic) {
  auto task = make_vision_task(5);
  std::vector<size_t> idx{0, 1, 2, 3};
  Tensor g1(task->param_count()), g2(task->param_count());
  const double l1 = task->gradient(idx, g1.span());
  const double l2 = task->gradient(idx, g2.span());
  EXPECT_EQ(l1, l2);
  for (size_t i = 0; i < g1.size(); ++i) ASSERT_EQ(g1[i], g2[i]);
}

TEST(SyntheticTasks, GradientDescendsLoss) {
  auto task = make_vision_task(7);
  std::vector<size_t> idx;
  for (size_t i = 0; i < 64; ++i) idx.push_back(i);
  Tensor g(task->param_count());
  const double before = task->gradient(idx, g.span());
  auto params = task->params();
  for (size_t i = 0; i < params.size(); ++i) params[i] -= 0.05f * g[i];
  Tensor g2(task->param_count());
  const double after = task->gradient(idx, g2.span());
  EXPECT_LT(after, before);
}

TEST(SyntheticTasks, FreshTaskNearChanceQuality) {
  auto task = make_vision_task(9);
  // 50 classes, top-5: chance = 10%.
  const double q = task->evaluate();
  EXPECT_GT(q, 0.02);
  EXPECT_LT(q, 0.35);
}

TEST(SyntheticTasks, IndependentSeedsGiveDifferentData) {
  auto a = make_vision_task(1);
  auto b = make_vision_task(2);
  std::vector<size_t> idx{0, 1, 2, 3, 4, 5, 6, 7};
  Tensor ga(a->param_count()), gb(b->param_count());
  const double la = a->gradient(idx, ga.span());
  const double lb = b->gradient(idx, gb.span());
  EXPECT_NE(la, lb);
}

TEST(SyntheticTasks, CnnTaskShape) {
  auto task = make_cnn_task(3);
  EXPECT_EQ(task->quality_metric(), "top-1 accuracy");
  size_t covered = 0;
  for (const auto& seg : task->segments()) {
    EXPECT_EQ(seg.begin, covered);
    covered += seg.count;
  }
  EXPECT_EQ(covered, task->param_count());
  // Fresh CNN near chance (8 classes).
  const double q = task->evaluate();
  EXPECT_GT(q, 0.03);
  EXPECT_LT(q, 0.35);
}

// Bad task input stops with a recoverable ConfigError in every task: no
// out-of-bounds read of the training split, no NaN loss from an empty batch,
// no internal CheckError, and no constant model from a zero-width layer.
TEST(SyntheticTasks, BadInputRaisesConfigError) {
  enum Call { kIndexAtTrainSize, kEmptyBatch, kShortParams, kLongGrad };
  const char* what[] = {"index == train_size()", "empty batch",
                        "short params", "long grad_out"};
  const std::unique_ptr<ConvergenceTask> tasks[] = {
      make_vision_task(3), make_sequence_task(3), make_cnn_task(3)};
  for (const auto& task : tasks) {
    for (Call call : {kIndexAtTrainSize, kEmptyBatch, kShortParams,
                      kLongGrad}) {
      std::vector<float> params(task->params().begin(),
                                task->params().end());
      std::vector<float> grad(task->param_count());
      std::vector<size_t> batch{0, 1};
      switch (call) {
        case kIndexAtTrainSize: batch[1] = task->train_size(); break;
        case kEmptyBatch: batch.clear(); break;
        case kShortParams: params.pop_back(); break;
        case kLongGrad: grad.push_back(0.0f); break;
      }
      EXPECT_THROW(task->gradient_at(params, batch, grad), ConfigError)
          << task->name() << ": " << what[call];
    }
  }

  const std::vector<size_t> bad_hidden[] = {{}, {0}, {64, 0}};
  for (const auto& hidden : bad_hidden) {
    EXPECT_THROW(make_vision_task(1, "x", hidden), ConfigError)
        << hidden.size() << " hidden layers";
  }
}

// ------------------------------------------------------------ harness
TEST(Convergence, DenseLearnsVisionTask) {
  auto task = make_vision_task(11);
  const auto result =
      run_convergence(*task, quick(ConvergenceAlgorithm::kDense, 10));
  EXPECT_GT(result.final_quality, 0.8);
  // Loss decreases from first to last epoch.
  EXPECT_LT(result.curve.back().train_loss, result.curve.front().train_loss);
}

TEST(Convergence, DenseLearnsSequenceTask) {
  auto task = make_sequence_task(11);
  const auto result =
      run_convergence(*task, quick(ConvergenceAlgorithm::kDense, 10));
  EXPECT_GT(result.final_quality, 0.5);
}

TEST(Convergence, SparseAlgorithmsTrackDense) {
  // Table 2 shape: top-k variants land within a few points of dense.
  const int epochs = 12;
  auto dense_task = make_vision_task(13);
  const auto dense =
      run_convergence(*dense_task, quick(ConvergenceAlgorithm::kDense, epochs));
  auto topk_task = make_vision_task(13);
  const auto topk =
      run_convergence(*topk_task, quick(ConvergenceAlgorithm::kTopk, epochs));
  auto mstopk_task = make_vision_task(13);
  const auto mstopk = run_convergence(
      *mstopk_task, quick(ConvergenceAlgorithm::kMstopk, epochs));
  EXPECT_GT(dense.final_quality, 0.8);
  EXPECT_GT(topk.final_quality, dense.final_quality - 0.08);
  EXPECT_GT(mstopk.final_quality, dense.final_quality - 0.08);
  // Dense is the ceiling (small tolerance for eval noise).
  EXPECT_GE(dense.final_quality + 0.02, topk.final_quality);
  EXPECT_GE(dense.final_quality + 0.02, mstopk.final_quality);
}

TEST(Convergence, CnnLearnsTranslationInvariantPatterns) {
  // The real-convolution task: dense training must solve it, and MSTopK
  // sparsified training must stay close — conv gradients through the same
  // sparsification path as the paper's CNNs.
  auto dense_task = make_cnn_task(25);
  ConvergenceOptions options = quick(ConvergenceAlgorithm::kDense, 8);
  options.learning_rate = 0.4;
  const auto dense = run_convergence(*dense_task, options);
  EXPECT_GT(dense.final_quality, 0.8);
  auto sparse_task = make_cnn_task(25);
  options.algorithm = ConvergenceAlgorithm::kMstopk;
  const auto sparse = run_convergence(*sparse_task, options);
  EXPECT_GT(sparse.final_quality, dense.final_quality - 0.15);
}

TEST(Convergence, RandomKIsMarkedlyWorse) {
  // Magnitude-based selection matters: random-k at the same density
  // converges far slower (ablation).
  const int epochs = 10;
  auto topk_task = make_vision_task(15);
  const auto topk =
      run_convergence(*topk_task, quick(ConvergenceAlgorithm::kTopk, epochs));
  auto random_task = make_vision_task(15);
  const auto random = run_convergence(
      *random_task, quick(ConvergenceAlgorithm::kRandomk, epochs));
  EXPECT_GT(topk.final_quality, random.final_quality + 0.1);
}

TEST(Convergence, ErrorFeedbackResidualStaysBounded) {
  auto task = make_vision_task(17);
  const auto result =
      run_convergence(*task, quick(ConvergenceAlgorithm::kTopk, 10));
  // EF invariant: the residual does not blow up over training.
  const double early = result.curve[2].residual_norm;
  const double late = result.curve.back().residual_norm;
  EXPECT_LT(late, 20.0 * (early + 1.0));
}

TEST(Convergence, WithoutErrorFeedbackConvergesWorse) {
  const int epochs = 10;
  ConvergenceOptions with_ef = quick(ConvergenceAlgorithm::kTopk, epochs);
  with_ef.density = 0.02;
  ConvergenceOptions without_ef = with_ef;
  without_ef.use_error_feedback = false;
  auto task_a = make_vision_task(19);
  auto task_b = make_vision_task(19);
  const auto ef = run_convergence(*task_a, with_ef);
  const auto no_ef = run_convergence(*task_b, without_ef);
  EXPECT_GT(ef.final_quality, no_ef.final_quality - 0.01);
}

TEST(Convergence, MstopkUsesLessCommunicationTime) {
  // The whole point: HiTopKComm's simulated communication time is far below
  // NaiveAG's at the same density.
  const int epochs = 4;
  auto topk_task = make_vision_task(23);
  const auto topk =
      run_convergence(*topk_task, quick(ConvergenceAlgorithm::kTopk, epochs));
  auto mstopk_task = make_vision_task(23);
  const auto mstopk = run_convergence(
      *mstopk_task, quick(ConvergenceAlgorithm::kMstopk, epochs));
  EXPECT_LT(mstopk.simulated_comm_seconds, 0.5 * topk.simulated_comm_seconds);
}

TEST(Convergence, CurveHasOneEntryPerEpoch) {
  auto task = make_vision_task(29);
  const auto result =
      run_convergence(*task, quick(ConvergenceAlgorithm::kDense, 5));
  ASSERT_EQ(result.curve.size(), 5u);
  for (int e = 0; e < 5; ++e) EXPECT_EQ(result.curve[e].epoch, e + 1);
}

TEST(Convergence, AlgorithmNamesRoundTrip) {
  for (const char* name : {"dense", "topk", "mstopk", "randomk"}) {
    const auto algorithm = convergence_algorithm_from_name(name);
    EXPECT_FALSE(convergence_algorithm_name(algorithm).empty());
  }
  EXPECT_THROW(convergence_algorithm_from_name("adam"), CheckError);
}

// Bad options stop at the constructor with a recoverable ConfigError, not
// with a crash or an internal CheckError deep in the engine.
TEST(ConvergenceEngine, InvalidOptionsRaiseConfigError) {
  using Algo = ConvergenceAlgorithm;
  struct Case {
    const char* what;
    Algo algorithm;
    void (*edit)(ConvergenceOptions&);
  };
  const Case bad[] = {
      {"local_batch = 0", Algo::kDense,
       [](ConvergenceOptions& o) { o.local_batch = 0; }},
      {"local_batch < 0", Algo::kDense,
       [](ConvergenceOptions& o) { o.local_batch = -4; }},
      {"nodes = 0", Algo::kDense, [](ConvergenceOptions& o) { o.nodes = 0; }},
      {"gpus_per_node = 0", Algo::kDense,
       [](ConvergenceOptions& o) { o.gpus_per_node = 0; }},
      {"epochs < 0", Algo::kDense,
       [](ConvergenceOptions& o) { o.epochs = -1; }},
      {"warmup_epochs < 0", Algo::kDense,
       [](ConvergenceOptions& o) { o.warmup_epochs = -1; }},
      {"global batch > train size", Algo::kDense,
       [](ConvergenceOptions& o) { o.local_batch = 1 << 20; }},
      {"mstopk_samplings = 0", Algo::kMstopk,
       [](ConvergenceOptions& o) { o.mstopk_samplings = 0; }},
      {"density = 0", Algo::kTopk,
       [](ConvergenceOptions& o) { o.density = 0; }},
      {"density > 1", Algo::kMstopk,
       [](ConvergenceOptions& o) { o.density = 1.5; }},
      {"density < 0", Algo::kGtopk,
       [](ConvergenceOptions& o) { o.density = -0.1; }},
      {"density NaN", Algo::kRandomk,
       [](ConvergenceOptions& o) { o.density = std::nan(""); }},
      {"local_sgd_period = 0", Algo::kLocalSgd,
       [](ConvergenceOptions& o) { o.local_sgd_period = 0; }},
      {"fp16 wire with LocalSGD", Algo::kLocalSgd,
       [](ConvergenceOptions& o) {
         o.gradient_wire = compress::WireDtype::kFp16;
       }},
      {"int8 wire with LocalSGD", Algo::kLocalSgd,
       [](ConvergenceOptions& o) {
         o.gradient_wire = compress::WireDtype::kInt8;
       }},
  };
  auto task = make_vision_task(7);
  for (const Case& c : bad) {
    ConvergenceOptions options = quick(c.algorithm, 1);
    c.edit(options);
    EXPECT_THROW(ConvergenceEngine(*task, options), ConfigError) << c.what;
  }

  // The edges of the valid range still construct.
  const Case good[] = {
      {"density = 1", Algo::kTopk,
       [](ConvergenceOptions& o) { o.density = 1; }},
      {"dense ignores density", Algo::kDense,
       [](ConvergenceOptions& o) { o.density = 0; }},
      {"epochs = 0", Algo::kDense, [](ConvergenceOptions& o) { o.epochs = 0; }},
      {"fp16 gradient wire", Algo::kMstopk,
       [](ConvergenceOptions& o) {
         o.gradient_wire = compress::WireDtype::kFp16;
       }},
  };
  for (const Case& c : good) {
    ConvergenceOptions options = quick(c.algorithm, 1);
    c.edit(options);
    EXPECT_NO_THROW(ConvergenceEngine(*task, options)) << c.what;
  }
}

}  // namespace
}  // namespace hitopk::train
