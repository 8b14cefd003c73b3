// Tests for the tape autodiff engine, including numerical gradient checks
// for every operator.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

#include "autodiff/tape.h"
#include "core/check.h"
#include "core/rng.h"
#include "core/tensor.h"

namespace hitopk::ad {
namespace {

// Numerical gradient of `loss_fn` (which rebuilds the graph from the given
// parameter vector) via central differences.
std::vector<float> numerical_gradient(
    std::vector<float>& params,
    const std::function<double(const std::vector<float>&)>& loss_fn,
    double eps = 1e-3) {
  std::vector<float> grad(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    const float saved = params[i];
    params[i] = static_cast<float>(saved + eps);
    const double up = loss_fn(params);
    params[i] = static_cast<float>(saved - eps);
    const double down = loss_fn(params);
    params[i] = saved;
    grad[i] = static_cast<float>((up - down) / (2.0 * eps));
  }
  return grad;
}

void expect_grad_close(std::span<const float> analytic,
                       std::span<const float> numeric, float tol = 2e-3f) {
  ASSERT_EQ(analytic.size(), numeric.size());
  for (size_t i = 0; i < analytic.size(); ++i) {
    EXPECT_NEAR(analytic[i], numeric[i],
                tol * (1.0f + std::fabs(numeric[i])))
        << "grad element " << i;
  }
}

// ------------------------------------------------------------ forward ops
TEST(Tape, MatmulForwardKnownValues) {
  Tape tape;
  Tensor a = Tensor::from(2, 2, {1, 2, 3, 4});
  Tensor b = Tensor::from(2, 2, {5, 6, 7, 8});
  const VarId c = tape.matmul(tape.leaf(a.span(), {}, 2, 2),
                              tape.leaf(b.span(), {}, 2, 2));
  auto v = tape.value(c);
  EXPECT_EQ(v[0], 19);  // 1*5 + 2*7
  EXPECT_EQ(v[1], 22);
  EXPECT_EQ(v[2], 43);
  EXPECT_EQ(v[3], 50);
}

TEST(Tape, MatmulShapeMismatchThrows) {
  Tape tape;
  Tensor a(2, 3), b(2, 3);
  const VarId va = tape.leaf(a.span(), {}, 2, 3);
  const VarId vb = tape.leaf(b.span(), {}, 2, 3);
  EXPECT_THROW(tape.matmul(va, vb), CheckError);
}

TEST(Tape, BiasBroadcastsOverRows) {
  Tape tape;
  Tensor x = Tensor::from(2, 2, {1, 2, 3, 4});
  Tensor b = Tensor::from({10, 20});
  const VarId out = tape.add_bias(tape.leaf(x.span(), {}, 2, 2),
                                  tape.leaf(b.span(), {}, 1, 2));
  auto v = tape.value(out);
  EXPECT_EQ(v[0], 11);
  EXPECT_EQ(v[3], 24);
}

TEST(Tape, ReluClampsNegatives) {
  Tape tape;
  Tensor x = Tensor::from({-1.0f, 0.0f, 2.0f});
  const VarId out = tape.relu(tape.leaf(x.span(), {}, 3, 1));
  auto v = tape.value(out);
  EXPECT_EQ(v[0], 0.0f);
  EXPECT_EQ(v[1], 0.0f);
  EXPECT_EQ(v[2], 2.0f);
}

TEST(Tape, EmbeddingSelectsRows) {
  Tape tape;
  Tensor table = Tensor::from(3, 2, {1, 2, 3, 4, 5, 6});
  const VarId out =
      tape.embedding(tape.leaf(table.span(), {}, 3, 2), {2, 0, 2});
  auto v = tape.value(out);
  EXPECT_EQ(v[0], 5);
  EXPECT_EQ(v[1], 6);
  EXPECT_EQ(v[2], 1);
  EXPECT_EQ(v[4], 5);
}

TEST(Tape, EmbeddingOutOfRangeThrows) {
  Tape tape;
  Tensor table(3, 2);
  const VarId t = tape.leaf(table.span(), {}, 3, 2);
  EXPECT_THROW(tape.embedding(t, {3}), CheckError);
}

TEST(Tape, MeanPoolAverages) {
  Tape tape;
  Tensor x = Tensor::from(4, 1, {1, 3, 10, 20});
  const VarId out = tape.mean_pool(tape.leaf(x.span(), {}, 4, 1), 2);
  auto v = tape.value(out);
  EXPECT_EQ(v[0], 2.0f);
  EXPECT_EQ(v[1], 15.0f);
}

TEST(Tape, SoftmaxXentOfUniformLogitsIsLogC) {
  Tape tape;
  Tensor logits(4, 5);
  const double loss = tape.softmax_cross_entropy(
      tape.leaf(logits.span(), {}, 4, 5), std::vector<int>{0, 1, 2, 3});
  EXPECT_NEAR(loss, std::log(5.0), 1e-6);
}

TEST(Tape, SecondLossThrows) {
  Tape tape;
  Tensor logits(1, 2);
  const VarId l = tape.leaf(logits.span(), {}, 1, 2);
  tape.softmax_cross_entropy(l, std::vector<int>{0});
  EXPECT_THROW(tape.softmax_cross_entropy(l, std::vector<int>{0}), CheckError);
}

TEST(Tape, BackwardWithoutLossThrows) {
  Tape tape;
  EXPECT_THROW(tape.backward(), CheckError);
}

// --------------------------------------------------- numerical gradients
TEST(TapeGradient, LinearSoftmaxLayer) {
  // loss(W, b) over a fixed batch; check dW and db numerically.
  Rng rng(5);
  Tensor x(4, 3);
  x.fill_normal(rng, 0.0f, 1.0f);
  std::vector<int> labels{1, 0, 1, 0};
  std::vector<float> params(3 * 2 + 2);
  for (auto& p : params) p = static_cast<float>(rng.normal(0.0, 0.5));

  auto loss_fn = [&](const std::vector<float>& p) {
    Tape tape;
    std::span<const float> w(p.data(), 6);
    std::span<const float> b(p.data() + 6, 2);
    const VarId logits = tape.add_bias(
        tape.matmul(tape.leaf(x.span(), {}, 4, 3), tape.leaf(w, {}, 3, 2)),
        tape.leaf(b, {}, 1, 2));
    return tape.softmax_cross_entropy(logits, labels);
  };

  std::vector<float> analytic(params.size(), 0.0f);
  {
    Tape tape;
    std::span<const float> w(params.data(), 6);
    std::span<const float> b(params.data() + 6, 2);
    std::span<float> gw(analytic.data(), 6);
    std::span<float> gb(analytic.data() + 6, 2);
    const VarId logits = tape.add_bias(
        tape.matmul(tape.leaf(x.span(), {}, 4, 3), tape.leaf(w, gw, 3, 2)),
        tape.leaf(b, gb, 1, 2));
    tape.softmax_cross_entropy(logits, labels);
    tape.backward();
  }
  const auto numeric = numerical_gradient(params, loss_fn);
  expect_grad_close(analytic, numeric);
}

TEST(TapeGradient, TwoLayerReluMlp) {
  Rng rng(7);
  const size_t dim = 4, hidden = 5, classes = 3, batch = 6;
  Tensor x(batch, dim);
  x.fill_normal(rng, 0.0f, 1.0f);
  std::vector<int> labels;
  for (size_t i = 0; i < batch; ++i) {
    labels.push_back(static_cast<int>(rng.uniform_index(classes)));
  }
  const size_t n_params = dim * hidden + hidden + hidden * classes + classes;
  std::vector<float> params(n_params);
  for (auto& p : params) p = static_cast<float>(rng.normal(0.0, 0.4));

  auto build = [&](const std::vector<float>& p, std::vector<float>* grad,
                   Tape& tape) {
    size_t off = 0;
    auto leaf = [&](size_t rows, size_t cols) {
      std::span<const float> value(p.data() + off, rows * cols);
      std::span<float> g =
          grad ? std::span<float>(grad->data() + off, rows * cols)
               : std::span<float>{};
      off += rows * cols;
      return tape.leaf(value, g, rows, cols);
    };
    const VarId w1 = leaf(dim, hidden);
    const VarId b1 = leaf(1, hidden);
    const VarId w2 = leaf(hidden, classes);
    const VarId b2 = leaf(1, classes);
    const VarId input = tape.leaf(x.span(), {}, batch, dim);
    const VarId h = tape.relu(tape.add_bias(tape.matmul(input, w1), b1));
    const VarId logits = tape.add_bias(tape.matmul(h, w2), b2);
    return tape.softmax_cross_entropy(logits, labels);
  };

  std::vector<float> analytic(n_params, 0.0f);
  {
    Tape tape;
    build(params, &analytic, tape);
    tape.backward();
  }
  auto loss_fn = [&](const std::vector<float>& p) {
    Tape tape;
    return build(p, nullptr, tape);
  };
  const auto numeric = numerical_gradient(params, loss_fn);
  expect_grad_close(analytic, numeric, 5e-3f);
}

TEST(TapeGradient, TanhActivation) {
  Rng rng(11);
  std::vector<float> params(6);
  for (auto& p : params) p = static_cast<float>(rng.normal(0.0, 0.6));
  Tensor x(3, 2);
  x.fill_normal(rng, 0.0f, 1.0f);
  std::vector<int> labels{0, 1, 2};

  auto build = [&](const std::vector<float>& p, std::vector<float>* grad,
                   Tape& tape) {
    std::span<const float> w(p.data(), 6);
    std::span<float> g =
        grad ? std::span<float>(grad->data(), 6) : std::span<float>{};
    const VarId h =
        tape.tanh_act(tape.matmul(tape.leaf(x.span(), {}, 3, 2),
                                  tape.leaf(w, g, 2, 3)));
    return tape.softmax_cross_entropy(h, labels);
  };
  std::vector<float> analytic(6, 0.0f);
  {
    Tape tape;
    build(params, &analytic, tape);
    tape.backward();
  }
  auto loss_fn = [&](const std::vector<float>& p) {
    Tape tape;
    return build(p, nullptr, tape);
  };
  expect_grad_close(analytic, numerical_gradient(params, loss_fn));
}

TEST(TapeGradient, EmbeddingMeanPoolModel) {
  Rng rng(13);
  const size_t vocab = 7, width = 3, classes = 4, batch = 5, seq = 4;
  const size_t n_params = vocab * width + width * classes;
  std::vector<float> params(n_params);
  for (auto& p : params) p = static_cast<float>(rng.normal(0.0, 0.5));
  std::vector<int> ids;
  std::vector<int> labels;
  for (size_t i = 0; i < batch; ++i) {
    labels.push_back(static_cast<int>(rng.uniform_index(classes)));
    for (size_t t = 0; t < seq; ++t) {
      ids.push_back(static_cast<int>(rng.uniform_index(vocab)));
    }
  }

  auto build = [&](const std::vector<float>& p, std::vector<float>* grad,
                   Tape& tape) {
    std::span<const float> table(p.data(), vocab * width);
    std::span<const float> w(p.data() + vocab * width, width * classes);
    std::span<float> gt, gw;
    if (grad) {
      gt = std::span<float>(grad->data(), vocab * width);
      gw = std::span<float>(grad->data() + vocab * width, width * classes);
    }
    const VarId emb = tape.embedding(tape.leaf(table, gt, vocab, width), ids);
    const VarId pooled = tape.mean_pool(emb, seq);
    const VarId logits = tape.matmul(pooled, tape.leaf(w, gw, width, classes));
    return tape.softmax_cross_entropy(logits, labels);
  };
  std::vector<float> analytic(n_params, 0.0f);
  {
    Tape tape;
    build(params, &analytic, tape);
    tape.backward();
  }
  auto loss_fn = [&](const std::vector<float>& p) {
    Tape tape;
    return build(p, nullptr, tape);
  };
  expect_grad_close(analytic, numerical_gradient(params, loss_fn));
}

TEST(TapeGradient, BackwardWritesLeafGradients) {
  // Flat parameters: w (3x3, used by both matmuls), b (1x3), then 4 floats
  // of an unused leaf.  x (2x3) -> tanh(x*w + b) -> *w -> logits (2x3).
  Rng rng(53);
  std::vector<float> params(9 + 3 + 4);
  for (auto& p : params) p = static_cast<float>(rng.normal(0.0, 0.7));
  Tensor x(2, 3);
  x.fill_normal(rng, 0.0f, 1.0f);
  const std::vector<int> labels{2, 0};
  const std::span<const float> p(params);
  // With `untied` set, the second matmul reads w through a leaf of its
  // own whose grad goes to *untied.
  auto pass = [&](std::span<float> grad, std::vector<float>* untied) {
    Tape tape;
    const VarId w = tape.leaf(p.subspan(0, 9), grad.subspan(0, 9), 3, 3);
    const VarId b = tape.leaf(p.subspan(9, 3), grad.subspan(9, 3), 1, 3);
    tape.leaf(p.subspan(12, 4), grad.subspan(12, 4), 2, 2);
    const VarId w2 =
        untied ? tape.leaf(p.subspan(0, 9), std::span<float>(*untied), 3, 3)
               : w;
    const VarId h = tape.tanh_act(
        tape.add_bias(tape.matmul(tape.leaf(x.span(), {}, 2, 3), w), b));
    tape.softmax_cross_entropy(tape.matmul(h, w2), labels);
    tape.backward();
  };
  auto bits_equal = [](const std::vector<float>& a,
                       const std::vector<float>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
  };

  std::vector<float> fresh(params.size(), 0.0f);
  pass(fresh, nullptr);
  // A NaN-filled buffer is overwritten, not read.
  std::vector<float> poisoned(params.size(),
                              std::bit_cast<float>(0x7fc0beefu));
  pass(poisoned, nullptr);
  EXPECT_TRUE(bits_equal(poisoned, fresh));
  // A second pass into the same buffer is not added to the first.
  std::vector<float> again = fresh;
  pass(again, nullptr);
  EXPECT_TRUE(bits_equal(again, fresh));
  // The tied w sums both matmuls' contributions.
  std::vector<float> split(params.size(), 0.0f);
  std::vector<float> second(9, 0.0f);
  pass(split, &second);
  bool both_reach = false;
  for (size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(fresh[i], split[i] + second[i]) << i;
    both_reach = both_reach || (split[i] != 0.0f && second[i] != 0.0f);
  }
  EXPECT_TRUE(both_reach);
  // A leaf no op reaches comes out zero.
  for (size_t i = 12; i < params.size(); ++i) EXPECT_EQ(fresh[i], 0.0f) << i;
}

TEST(Tape, OverlappingLeafGradsRaiseConfigError) {
  std::vector<float> value(6, 1.0f);
  std::vector<float> grad(6, 0.0f);
  const std::span<const float> v(value);
  const std::span<float> g(grad);
  Tape tape;
  tape.leaf(v.subspan(0, 4), g.subspan(0, 4), 2, 2);
  EXPECT_THROW(tape.leaf(v.subspan(2, 4), g.subspan(2, 4), 2, 2), ConfigError);
  EXPECT_THROW(tape.leaf(v.subspan(0, 2), g.subspan(0, 2), 1, 2), ConfigError);
  // Adjacent grads and shared values without grads are fine.
  EXPECT_NO_THROW(tape.leaf(v.subspan(4, 2), g.subspan(4, 2), 1, 2));
  EXPECT_NO_THROW(tape.leaf(v.subspan(0, 4), {}, 2, 2));
}

TEST(Tape, CountTopkCorrect) {
  // logits rows: correct label ranked 1st, 3rd, and last.
  std::vector<float> logits{
      9, 1, 2, 3, 4,   // label 0: rank 1
      5, 1, 9, 8, 0,   // label 1: rank 4
      0, 1, 2, 3, 9,   // label 4: rank 1
  };
  std::vector<int> labels{0, 1, 4};
  EXPECT_EQ(Tape::count_topk_correct(logits, 3, 5, labels, 1), 2u);
  EXPECT_EQ(Tape::count_topk_correct(logits, 3, 5, labels, 3), 2u);
  EXPECT_EQ(Tape::count_topk_correct(logits, 3, 5, labels, 4), 3u);
}

TEST(Tape, CountTopkCorrectRejectsNegativeLabel) {
  const std::vector<float> logits{1, 2, 3, 4, 5, 6};
  const std::vector<int> labels{0, -1};
  EXPECT_THROW(Tape::count_topk_correct(logits, 2, 3, labels, 1), CheckError);
}

TEST(Tape, CountTopkCorrectRejectsLabelPastCols) {
  // The bad label is in the second row: the check runs before any read.
  const std::vector<float> logits{1, 2, 3, 4, 5, 6};
  const std::vector<int> labels{1, 7};
  EXPECT_THROW(Tape::count_topk_correct(logits, 2, 3, labels, 1), CheckError);
  const std::vector<int> at_cols{3, 0};
  EXPECT_THROW(Tape::count_topk_correct(logits, 2, 3, at_cols, 1), CheckError);
}

}  // namespace
}  // namespace hitopk::ad
