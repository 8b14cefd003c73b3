// Cross-module integration and property tests: HiTopKComm across cluster
// shapes, FP16 wire effects, LARS-driven convergence, exhaustive FP16
// round-trips, and system-level consistency checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "collectives/gtopk.h"
#include "collectives/hitopkcomm.h"
#include "collectives/naive_allgather.h"
#include "collectives/ring.h"
#include "core/half.h"
#include "core/rng.h"
#include "train/convergence.h"
#include "train/dawnbench.h"
#include "train/synthetic.h"
#include "train/timeline.h"

namespace hitopk {
namespace {

using coll::HiTopKOptions;
using coll::hitopk_comm;
using simnet::Cluster;
using simnet::LinkParams;
using simnet::Topology;

Topology fabric(int nodes, int gpus) {
  return Topology(nodes, gpus, LinkParams{1e-6, 1e-9}, LinkParams{1e-5, 1e-8});
}

// -------------------------------------------- HiTopKComm shape sweep
class HiTopKShapeTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(HiTopKShapeTest, DensityOneEqualsDenseSum) {
  const auto [m, n] = GetParam();
  Topology topo = fabric(m, n);
  Cluster cluster(topo);
  const size_t elems = 120;
  std::vector<Tensor> grads;
  Tensor reference(elems);
  Rng rng(static_cast<uint64_t>(m * 100 + n));
  for (int r = 0; r < m * n; ++r) {
    Tensor t(elems);
    t.fill_normal(rng, 0.0f, 1.0f);
    reference += t;
    grads.push_back(std::move(t));
  }
  coll::RankData spans;
  for (auto& g : grads) spans.push_back(g.span());
  HiTopKOptions options;
  options.density = 1.0;
  hitopk_comm(cluster, spans, elems, options, 0.0);
  // The aggregate is written to rank 0 only; the other buffers are scratch.
  for (size_t i = 0; i < elems; ++i) {
    ASSERT_NEAR(grads[0][i], reference[i], 1e-4f);
  }
}

TEST_P(HiTopKShapeTest, SparseResultConsistentAcrossRanks) {
  const auto [m, n] = GetParam();
  Topology topo = fabric(m, n);
  Cluster cluster(topo);
  const size_t elems = 200;
  std::vector<Tensor> grads;
  Rng rng(static_cast<uint64_t>(m * 1000 + n));
  for (int r = 0; r < m * n; ++r) {
    Tensor t(elems);
    t.fill_normal(rng, 0.0f, 1.0f);
    grads.push_back(std::move(t));
  }
  coll::RankData spans;
  for (auto& g : grads) spans.push_back(g.span());
  HiTopKOptions options;
  options.density = 0.1;
  hitopk_comm(cluster, spans, elems, options, 0.0);
  // Every rank receives the one aggregate, held in rank 0's buffer: on each
  // shard, at most one k~-block of nonzeros per node, and at least one.
  const size_t shards = static_cast<size_t>(n);
  for (size_t j = 0; j < shards; ++j) {
    const coll::ChunkRange shard = coll::chunk_range(elems, shards, j);
    const size_t k = std::max<size_t>(
        1, static_cast<size_t>(std::llround(options.density *
                                            static_cast<double>(shard.count))));
    size_t nnz = 0;
    for (size_t i = shard.begin; i < shard.begin + shard.count; ++i) {
      nnz += grads[0][i] != 0.0f ? 1 : 0;
    }
    ASSERT_GT(nnz, 0u) << "shard " << j;
    ASSERT_LE(nnz, static_cast<size_t>(m) * k) << "shard " << j;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, HiTopKShapeTest,
                         ::testing::Values(std::pair{1, 2}, std::pair{1, 8},
                                           std::pair{2, 1}, std::pair{2, 3},
                                           std::pair{3, 4}, std::pair{4, 4},
                                           std::pair{5, 2}, std::pair{8, 8}));

// -------------------------------------------- FP16 wire properties
TEST(HalfExhaustive, EveryHalfValueRoundTripsExactly) {
  // half -> float -> half must be the identity for every finite pattern
  // (float has strictly more precision).
  int checked = 0;
  for (uint32_t bits = 0; bits < 0x10000u; ++bits) {
    const Half h{static_cast<uint16_t>(bits)};
    const float f = half_to_float(h);
    if (std::isnan(f)) continue;  // NaN payloads need not round-trip
    const Half back = float_to_half(f);
    ASSERT_EQ(back.bits, h.bits) << "pattern " << bits;
    ++checked;
  }
  EXPECT_GT(checked, 63000);
}

TEST(HalfExhaustive, OrderPreservedOnFiniteValues) {
  // Monotonicity: larger positive half patterns decode to larger floats.
  float prev = half_to_float(Half{0});
  for (uint16_t bits = 1; bits < 0x7c00u; ++bits) {  // positive finites
    const float f = half_to_float(Half{bits});
    ASSERT_GT(f, prev) << bits;
    prev = f;
  }
}

TEST(Fp16Wire, RingAllreduceWithRoundedGradientsStaysClose) {
  Topology topo = fabric(2, 2);
  Cluster cluster(topo);
  const size_t elems = 500;
  std::vector<Tensor> exact_grads, fp16_grads;
  Rng rng(77);
  for (int r = 0; r < 4; ++r) {
    Tensor t(elems);
    t.fill_normal(rng, 0.0f, 1.0f);
    Tensor rounded = t;
    fp16_round_trip(rounded.span());
    exact_grads.push_back(std::move(t));
    fp16_grads.push_back(std::move(rounded));
  }
  coll::RankData exact_spans, fp16_spans;
  for (auto& g : exact_grads) exact_spans.push_back(g.span());
  for (auto& g : fp16_grads) fp16_spans.push_back(g.span());
  coll::ring_allreduce(cluster, coll::world_group(topo), exact_spans, elems, coll::WireDtype::kFp32, 0.0);
  coll::ring_allreduce(cluster, coll::world_group(topo), fp16_spans, elems, coll::WireDtype::kFp16, 0.0);
  for (size_t i = 0; i < elems; ++i) {
    ASSERT_NEAR(fp16_grads[0][i], exact_grads[0][i],
                4.0f * 1e-3f * (1.0f + std::fabs(exact_grads[0][i])));
  }
}

// -------------------------------------------- convergence variants
TEST(ConvergenceVariants, Fp16GradientsDoNotHurt) {
  train::ConvergenceOptions options;
  options.algorithm = train::ConvergenceAlgorithm::kDense;
  options.epochs = 8;
  options.nodes = 2;
  options.gpus_per_node = 2;
  options.local_batch = 32;
  auto task_a = train::make_vision_task(41);
  const auto fp32 = train::run_convergence(*task_a, options);
  options.gradient_wire = compress::WireDtype::kFp16;
  auto task_b = train::make_vision_task(41);
  const auto fp16 = train::run_convergence(*task_b, options);
  EXPECT_NEAR(fp16.final_quality, fp32.final_quality, 0.03);
}

TEST(ConvergenceVariants, LarsConvergesOnVisionTask) {
  train::ConvergenceOptions options;
  options.algorithm = train::ConvergenceAlgorithm::kMstopk;
  options.epochs = 10;
  options.nodes = 2;
  options.gpus_per_node = 2;
  options.local_batch = 32;
  options.use_lars = true;
  options.learning_rate = 1.2;  // LARS rates rescale per layer
  options.density = 0.05;
  auto task = train::make_vision_task(43);
  const auto result = train::run_convergence(*task, options);
  EXPECT_GT(result.final_quality, 0.7);
}

TEST(ConvergenceVariants, GtopkTracksDense) {
  train::ConvergenceOptions options;
  options.epochs = 10;
  options.nodes = 2;
  options.gpus_per_node = 2;
  options.local_batch = 32;
  options.density = 0.05;
  options.algorithm = train::ConvergenceAlgorithm::kDense;
  auto task_a = train::make_vision_task(47);
  const auto dense = train::run_convergence(*task_a, options);
  options.algorithm = train::ConvergenceAlgorithm::kGtopk;
  auto task_b = train::make_vision_task(47);
  const auto gtopk = train::run_convergence(*task_b, options);
  EXPECT_GT(gtopk.final_quality, dense.final_quality - 0.12);
}

// -------------------------------------------- system-level consistency
TEST(SystemConsistency, HiTopKNeverSlowerOnFasterFabric) {
  HiTopKOptions options;
  options.density = 0.01;
  for (const size_t elems : {1u << 20, 16u << 20, 64u << 20}) {
    Cluster slow(Topology::tencent_cloud(16, 8));
    Cluster fast(Topology::infiniband_100g(16, 8));
    const double t_slow = hitopk_comm(slow, {}, elems, options, 0.0).total;
    const double t_fast = hitopk_comm(fast, {}, elems, options, 0.0).total;
    EXPECT_LE(t_fast, t_slow) << elems;
  }
}

TEST(SystemConsistency, HiTopKTimeMonotonicInDensity) {
  double prev = 0.0;
  for (const double density : {0.001, 0.005, 0.02, 0.1}) {
    Cluster cluster(Topology::tencent_cloud(16, 8));
    HiTopKOptions options;
    options.density = density;
    const double t = hitopk_comm(cluster, {}, 25u << 20, options, 0.0).total;
    EXPECT_GT(t, prev) << density;
    prev = t;
  }
}

TEST(SystemConsistency, ThroughputMonotonicInWorldSize) {
  double prev = 0.0;
  for (const int nodes : {2, 4, 8, 16}) {
    train::TrainerOptions options;
    options.algorithm = train::Algorithm::kMstopkHitopk;
    train::TrainingSimulator sim(Topology::tencent_cloud(nodes, 8), options);
    const double throughput = sim.simulate_iteration().throughput;
    EXPECT_GT(throughput, prev) << nodes;
    prev = throughput;
  }
}

TEST(SystemConsistency, DawnbenchFasterOnFasterInterconnect) {
  const auto slow = train::simulate_dawnbench(
      Topology::tencent_cloud(16, 8), train::DawnbenchSchedule::paper_recipe());
  const auto fast = train::simulate_dawnbench(
      Topology::infiniband_100g(16, 8),
      train::DawnbenchSchedule::paper_recipe());
  EXPECT_LE(fast.total_seconds, slow.total_seconds);
}

TEST(SystemConsistency, TrafficAccountingMatchesHierarchy) {
  // HiTopKComm's inter-node traffic must be far below its intra-node
  // traffic on a wide-node cluster — the whole design goal.
  Cluster cluster(Topology::tencent_cloud(16, 8));
  HiTopKOptions options;
  options.density = 0.01;
  hitopk_comm(cluster, {}, 25u << 20, options, 0.0);
  EXPECT_LT(cluster.inter_node_bytes(), cluster.intra_node_bytes());
}

TEST(SystemConsistency, GtopkMovesLessThanNaiveAg) {
  // gTop-k: O(k log P) per rank vs NaiveAG's O(k P).
  const size_t elems = 1u << 20;
  Topology topo = fabric(4, 4);
  Cluster c_gtopk(topo);
  coll::GtopkOptions gtopk_options;
  gtopk_options.density = 0.01;
  coll::gtopk_comm(c_gtopk, {}, elems, gtopk_options, 0.0);
  const size_t gtopk_bytes =
      c_gtopk.inter_node_bytes() + c_gtopk.intra_node_bytes();
  Cluster c_naive(topo);
  coll::naive_sparse_allgather_time(
      c_naive, static_cast<size_t>(0.01 * elems), 4, 0.0, 0.0);
  const size_t naive_bytes =
      c_naive.inter_node_bytes() + c_naive.intra_node_bytes();
  EXPECT_LT(gtopk_bytes, naive_bytes);
}

}  // namespace
}  // namespace hitopk
