// Tests for the related-work baselines: gTop-k aggregation and the QSGD /
// EF-SignSGD quantizers.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "collectives/gtopk.h"
#include "compress/exact_topk.h"
#include "compress/quantizers.h"
#include "core/rng.h"
#include "core/tensor.h"
#include "ef_reference.h"

namespace hitopk {
namespace {

using coll::GtopkOptions;
using coll::gtopk_comm;
using simnet::Cluster;
using simnet::LinkParams;
using simnet::Topology;

Topology fabric(int nodes, int gpus) {
  return Topology(nodes, gpus, LinkParams{1e-6, 1e-9}, LinkParams{1e-5, 1e-8});
}

// ------------------------------------------------------------ gTop-k
TEST(Gtopk, AllRanksIdenticalResult) {
  Topology topo = fabric(2, 4);
  Cluster cluster(topo);
  const size_t elems = 300;
  std::vector<Tensor> grads;
  Rng rng(1);
  for (int r = 0; r < 8; ++r) {
    Tensor t(elems);
    t.fill_normal(rng, 0.0f, 1.0f);
    grads.push_back(std::move(t));
  }
  coll::RankData spans;
  for (auto& g : grads) spans.push_back(g.span());
  GtopkOptions options;
  options.density = 0.05;
  gtopk_comm(cluster, spans, elems, options, 0.0);
  for (int r = 1; r < 8; ++r) {
    for (size_t i = 0; i < elems; ++i) {
      ASSERT_EQ(grads[static_cast<size_t>(r)][i], grads[0][i]);
    }
  }
}

TEST(Gtopk, ResultHasAtMostKNonzeros) {
  Topology topo = fabric(2, 2);
  Cluster cluster(topo);
  const size_t elems = 400;
  std::vector<Tensor> grads;
  Rng rng(2);
  for (int r = 0; r < 4; ++r) {
    Tensor t(elems);
    t.fill_normal(rng, 0.0f, 1.0f);
    grads.push_back(std::move(t));
  }
  coll::RankData spans;
  for (auto& g : grads) spans.push_back(g.span());
  GtopkOptions options;
  options.density = 0.1;  // k = 40
  const auto result = gtopk_comm(cluster, spans, elems, options, 0.0);
  size_t nnz = 0;
  for (size_t i = 0; i < elems; ++i) {
    if (grads[0][i] != 0.0f) ++nnz;
  }
  EXPECT_LE(nnz, 40u);
  EXPECT_EQ(result.final_nnz, nnz);
  EXPECT_EQ(result.rounds, 2u);  // log2(4)
}

TEST(Gtopk, SingleSharedSpikeSurvivesAllMerges) {
  // A coordinate that is large on *every* rank must be in the global top-k.
  Topology topo = fabric(2, 4);
  Cluster cluster(topo);
  const size_t elems = 256;
  std::vector<Tensor> grads;
  Rng rng(3);
  for (int r = 0; r < 8; ++r) {
    Tensor t(elems);
    t.fill_normal(rng, 0.0f, 0.01f);
    t[137] = 5.0f;
    grads.push_back(std::move(t));
  }
  coll::RankData spans;
  for (auto& g : grads) spans.push_back(g.span());
  GtopkOptions options;
  options.density = 0.02;
  gtopk_comm(cluster, spans, elems, options, 0.0);
  EXPECT_NEAR(grads[0][137], 40.0f, 1e-4f);  // 8 ranks x 5.0
}

// Non-power-of-two worlds fold the extra ranks into the hypercube (one
// pre-fold round), run recursive doubling over the largest power of two,
// and unfold the result back out — rounds = log2(q) + 2.
TEST(Gtopk, NonPowerOfTwoWorldsFoldAndConverge) {
  struct Shape {
    int nodes, gpus;
    size_t expected_rounds;
  };
  for (const Shape shape : {Shape{3, 1, 3},    // p=3:  q=2, 1+1+1
                            Shape{3, 2, 4},    // p=6:  q=4, 1+2+1
                            Shape{3, 4, 5}}) {  // p=12: q=8, 1+3+1
    SCOPED_TRACE(shape.nodes * shape.gpus);
    Topology topo = fabric(shape.nodes, shape.gpus);
    Cluster cluster(topo);
    const int p = topo.world_size();
    const size_t elems = 300;
    std::vector<Tensor> grads;
    Rng rng(41);
    for (int r = 0; r < p; ++r) {
      Tensor t(elems);
      t.fill_normal(rng, 0.0f, 0.01f);
      t[17] = 3.0f;  // shared spike must survive every merge
      grads.push_back(std::move(t));
    }
    coll::RankData spans;
    for (auto& g : grads) spans.push_back(g.span());
    GtopkOptions options;
    options.density = 0.05;
    const auto result = gtopk_comm(cluster, spans, elems, options, 0.0);
    EXPECT_EQ(result.rounds, shape.expected_rounds);
    EXPECT_GT(result.total, 0.0);
    // Every rank — including the folded extras — holds the identical set.
    const size_t k = static_cast<size_t>(0.05 * 300 + 0.5);
    size_t nnz = 0;
    for (size_t i = 0; i < elems; ++i) nnz += grads[0][i] != 0.0f ? 1 : 0;
    EXPECT_LE(nnz, k);
    for (int r = 1; r < p; ++r) {
      for (size_t i = 0; i < elems; ++i) {
        ASSERT_EQ(grads[static_cast<size_t>(r)][i], grads[0][i]);
      }
    }
    EXPECT_NEAR(grads[0][17], 3.0f * static_cast<float>(p), 1e-4f);
  }
}

TEST(Gtopk, NonPowerOfTwoTimingAddsFoldRounds) {
  // Timing-only runs support any world size; the fold and unfold rounds
  // each cost at least one inter-rank hop beyond the hypercube rounds.
  GtopkOptions options;
  options.density = 0.01;
  Cluster c12(fabric(3, 4));
  const auto r12 = gtopk_comm(c12, {}, 1 << 20, options, 0.0);
  Cluster c8(fabric(2, 4));
  const auto r8 = gtopk_comm(c8, {}, 1 << 20, options, 0.0);
  EXPECT_EQ(r12.rounds, 5u);  // q=8: fold + 3 + unfold
  EXPECT_EQ(r8.rounds, 3u);   // exact power of two: no fold
  EXPECT_GT(r12.total, r8.total);
}

TEST(Gtopk, TimingScalesLogarithmically) {
  // Payload per round is constant, so total time ~ rounds = log2(P).
  GtopkOptions options;
  options.density = 0.01;
  Cluster c16(fabric(4, 4));
  const auto r16 = gtopk_comm(c16, {}, 1 << 20, options, 0.0);
  Cluster c64(fabric(8, 8));
  const auto r64 = gtopk_comm(c64, {}, 1 << 20, options, 0.0);
  EXPECT_EQ(r16.rounds, 4u);
  EXPECT_EQ(r64.rounds, 6u);
  EXPECT_LT(r64.total, 3.0 * r16.total);
}

TEST(Gtopk, ErrorFeedbackAccumulatesResidual) {
  Topology topo = fabric(1, 2);
  Cluster cluster(topo);
  const size_t elems = 128;
  std::vector<Tensor> grads;
  Rng rng(5);
  for (int r = 0; r < 2; ++r) {
    Tensor t(elems);
    t.fill_normal(rng, 0.0f, 1.0f);
    grads.push_back(std::move(t));
  }
  coll::RankData spans;
  for (auto& g : grads) spans.push_back(g.span());
  compress::ErrorFeedback ef;
  GtopkOptions options;
  options.density = 0.05;
  options.error_feedback = &ef;
  gtopk_comm(cluster, spans, elems, options, 0.0);
  EXPECT_EQ(ef.num_tensors(), 2u);
  EXPECT_GT(ef.residual_sq_norm(), 0.0);
}

// ------------------------------------------------------------ QSGD
TEST(Qsgd, PreservesSigns) {
  compress::Qsgd qsgd(15, 7);
  Rng rng(11);
  Tensor x(1000);
  x.fill_normal(rng, 0.0f, 1.0f);
  Tensor original = x;
  qsgd.quantize(x.span());
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i] != 0.0f) {
      EXPECT_EQ(std::signbit(x[i]), std::signbit(original[i])) << i;
    }
  }
}

TEST(Qsgd, ValuesOnQuantizationGrid) {
  compress::Qsgd qsgd(4, 9);
  Rng rng(13);
  Tensor x(500);
  x.fill_normal(rng, 0.0f, 1.0f);
  const float norm = x.l2_norm();
  qsgd.quantize(x.span());
  for (size_t i = 0; i < x.size(); ++i) {
    const double level = std::fabs(x[i]) / norm * 4.0;
    EXPECT_NEAR(level, std::round(level), 1e-4) << i;
  }
}

TEST(Qsgd, UnbiasedInExpectation) {
  // Average many quantizations of the same vector: the mean converges to x.
  compress::Qsgd qsgd(4, 17);
  Rng rng(17);
  Tensor x(64);
  x.fill_normal(rng, 0.0f, 1.0f);
  Tensor mean(64);
  const int trials = 3000;
  for (int t = 0; t < trials; ++t) {
    Tensor q = x;
    qsgd.quantize(q.span());
    mean += q;
  }
  mean *= 1.0f / trials;
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(mean[i], x[i], 0.05f) << i;
  }
}

TEST(Qsgd, PayloadShrinksWithFewerLevels) {
  compress::Qsgd coarse(1, 1), fine(127, 1);
  EXPECT_LT(coarse.payload_bytes(1 << 20), fine.payload_bytes(1 << 20));
  // 1-level QSGD is ternary: 2 bits per value.
  EXPECT_EQ(coarse.payload_bytes(1 << 20), (1u << 20) * 2 / 8 + 4);
}

TEST(Qsgd, ZeroVectorStaysZero) {
  compress::Qsgd qsgd(15, 23);
  Tensor x(32);
  qsgd.quantize(x.span());
  for (size_t i = 0; i < x.size(); ++i) EXPECT_EQ(x[i], 0.0f);
}

// ------------------------------------------------------------ SignSGD
TEST(SignCompressor, OutputIsScaledSigns) {
  Tensor x = Tensor::from({2.0f, -4.0f, 6.0f});
  compress::SignCompressor::compress(x.span());
  EXPECT_FLOAT_EQ(x[0], 4.0f);  // mean |x| = 4
  EXPECT_FLOAT_EQ(x[1], -4.0f);
  EXPECT_FLOAT_EQ(x[2], 4.0f);
}

TEST(SignCompressor, PayloadIsOneBitPerValue) {
  EXPECT_EQ(compress::SignCompressor::payload_bytes(800), 100u + 4u);
}

TEST(SignCompressor, WithErrorFeedbackRecoversSum) {
  // EF closure for the biased sign compressor: delivered + residual equals
  // the true accumulated gradient.
  compress::ErrorFeedback ef;
  Rng rng(29);
  Tensor delivered_total(32);
  Tensor true_total(32);
  for (int step = 0; step < 60; ++step) {
    Tensor g(32);
    g.fill_normal(rng, 0.0f, 1.0f);
    true_total += g;
    test::ef_apply(ef, "w", g.span());
    Tensor sent = g;
    compress::SignCompressor::compress(sent.span());
    // Absorb: residual = g - sent.
    compress::SparseTensor all;
    all.dense_size = 32;
    for (uint32_t i = 0; i < 32; ++i) {
      all.indices.push_back(i);
      all.values.push_back(sent[i]);
    }
    // Residual update must be g - sent (not zeroing), so do it directly.
    Tensor residual = g;
    residual -= sent;
    compress::SparseTensor none;
    none.dense_size = 32;
    test::ef_absorb(ef, "w", residual.span(), none);
    delivered_total += sent;
  }
  Tensor leftover(32);
  test::ef_apply(ef, "w", leftover.span());
  delivered_total += leftover;
  for (size_t i = 0; i < 32; ++i) {
    EXPECT_NEAR(delivered_total[i], true_total[i], 1e-3f);
  }
}

}  // namespace
}  // namespace hitopk
