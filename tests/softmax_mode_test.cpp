// Float softmax cross-entropy against a double-precision oracle: the Tape's
// fast float path (polynomial expf + float denominator) must agree with a
// libm exp / double-denominator softmax per step to tight tolerances —
// probabilities, losses, and gradients.  Trajectory-level agreement
// (convergence curves within run-to-run noise) is validated by the Fig. 10
// harness; these tests pin the per-step numerics that make that possible.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "autodiff/tape.h"
#include "core/rng.h"
#include "core/tensor.h"

namespace hitopk::ad {
namespace {

struct XentRun {
  double loss = 0.0;
  std::vector<float> probs;
  std::vector<float> grad;
};

XentRun run_tape(const Tensor& logits, const std::vector<int>& labels) {
  XentRun out;
  out.grad.assign(logits.size(), 0.0f);
  Tape tape;
  const VarId l = tape.leaf(logits.span(), out.grad, logits.rows(),
                            logits.cols());
  out.loss = tape.softmax_cross_entropy(l, labels);
  const VarId loss_node = l + 1;
  const auto probs = tape.value(loss_node);
  out.probs.assign(probs.begin(), probs.end());
  tape.backward();
  return out;
}

// The double-precision oracle: libm exp and a double denominator per row,
// probabilities stored as float, and the Tape's (P - onehot) / n gradient.
XentRun run_double_oracle(const Tensor& logits,
                          const std::vector<int>& labels) {
  const size_t rows = logits.rows(), cols = logits.cols();
  XentRun out;
  out.probs.assign(rows * cols, 0.0f);
  out.grad.assign(rows * cols, 0.0f);
  const float inv_n = 1.0f / static_cast<float>(rows);
  for (size_t i = 0; i < rows; ++i) {
    const float* row = &logits.span()[i * cols];
    float* prow = &out.probs[i * cols];
    const float max_logit = *std::max_element(row, row + cols);
    double denom = 0.0;
    for (size_t j = 0; j < cols; ++j) {
      const double e = std::exp(static_cast<double>(row[j] - max_logit));
      prow[j] = static_cast<float>(e);
      denom += e;
    }
    const auto inv = static_cast<float>(1.0 / denom);
    for (size_t j = 0; j < cols; ++j) prow[j] *= inv;
    const auto label = static_cast<size_t>(labels[i]);
    out.loss -= std::log(std::max(1e-12, static_cast<double>(prow[label])));
    for (size_t j = 0; j < cols; ++j) {
      float g = prow[j];
      if (j == label) g -= 1.0f;
      out.grad[i * cols + j] = g * inv_n;
    }
  }
  out.loss /= static_cast<double>(rows);
  return out;
}

TEST(SoftmaxMode, FloatMatchesDoubleReference) {
  Rng rng(11);
  const size_t batch = 32, classes = 20;
  // Logit scales from tame to extreme (post-max differences down to -60):
  // the polynomial exp and float accumulation must track the double
  // reference everywhere the training loop can visit.
  for (const float scale : {1.0f, 5.0f, 30.0f}) {
    Tensor logits(batch, classes);
    logits.fill_normal(rng, 0.0f, scale);
    std::vector<int> labels;
    for (size_t i = 0; i < batch; ++i) {
      labels.push_back(static_cast<int>(rng.uniform_index(classes)));
    }
    const XentRun f = run_tape(logits, labels);
    const XentRun d = run_double_oracle(logits, labels);
    EXPECT_NEAR(f.loss, d.loss, 1e-5 * (1.0 + std::fabs(d.loss)))
        << "scale=" << scale;
    for (size_t i = 0; i < f.probs.size(); ++i) {
      EXPECT_NEAR(f.probs[i], d.probs[i], 2e-6f + 2e-6f * d.probs[i])
          << "scale=" << scale << " prob " << i;
    }
    for (size_t i = 0; i < f.grad.size(); ++i) {
      EXPECT_NEAR(f.grad[i], d.grad[i], 2e-6f) << "scale=" << scale
                                               << " grad " << i;
    }
  }
}

TEST(SoftmaxMode, UniformLogitsExactInBothModes) {
  // exp(0) is exactly 1 in the polynomial path, so uniform logits give the
  // textbook loss log(C) from the Tape and from the oracle.
  const Tensor logits(4, 5);
  const std::vector<int> labels{0, 1, 2, 3};
  EXPECT_NEAR(run_tape(logits, labels).loss, std::log(5.0), 1e-6);
  EXPECT_NEAR(run_double_oracle(logits, labels).loss, std::log(5.0), 1e-6);
}

TEST(SoftmaxMode, ProbabilitiesSumToOne) {
  Rng rng(13);
  Tensor logits(16, 10);
  logits.fill_normal(rng, 0.0f, 3.0f);
  std::vector<int> labels(16, 0);
  const XentRun f = run_tape(logits, labels);
  for (size_t i = 0; i < 16; ++i) {
    float sum = 0.0f;
    for (size_t j = 0; j < 10; ++j) sum += f.probs[i * 10 + j];
    EXPECT_NEAR(sum, 1.0f, 1e-5f) << "row " << i;
  }
}

TEST(SoftmaxMode, ExtremeLogitGapsStayFinite) {
  // A logit 200 below the row max must produce a vanishing probability
  // (the exp argument clamps at -80), never a NaN or an overflow.
  Tape tape;
  Tensor logits = Tensor::from(1, 3, {100.0f, -100.0f, 99.0f});
  const double loss = tape.softmax_cross_entropy(
      tape.leaf(logits.span(), {}, 1, 3), std::vector<int>{0});
  EXPECT_TRUE(std::isfinite(loss));
  const auto probs = tape.value(1);
  EXPECT_LT(probs[1], 1e-30f);
  EXPECT_GT(probs[0], 0.7f);
}

}  // namespace
}  // namespace hitopk::ad
