// Collective outputs pinned to golden rows (collective_golden.h): for every
// case, the rank buffers (FNV-1a digest over the raw bytes, so -0.0 vs 0.0
// or NaN payload differences cannot hide), every clock and breakdown field
// (exact), and the timing-only clock must equal what the per-hop reference
// loops recorded.  Shapes include uneven chunk_range remainders,
// single-rank groups, and multi-chunk tree pipelining.  Also here:
// BlueConnect's reduction to the flat ring, engine unit tests, the elastic
// fault-rescale sweeps, and job-id invariance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "collective_golden.h"
#include "collectives/blueconnect.h"
#include "collectives/elastic.h"
#include "collectives/gtopk.h"
#include "collectives/hier_allreduce.h"
#include "collectives/hitopkcomm.h"
#include "collectives/naive_allgather.h"
#include "collectives/param_server.h"
#include "collectives/ring.h"
#include "collectives/schedule.h"
#include "collectives/torus2d.h"
#include "collectives/tree_allreduce.h"
#include "compress/error_feedback.h"
#include "compress/exact_topk.h"
#include "core/rng.h"
#include "core/tensor.h"
#include "simgpu/gpu_model.h"

namespace hitopk::coll {
namespace {

using simnet::Cluster;
using simnet::LinkParams;
using simnet::Topology;

Topology fabric(int nodes, int gpus) {
  return Topology(nodes, gpus, LinkParams{1e-6, 1e-9}, LinkParams{1e-5, 1e-8});
}

std::vector<Tensor> random_buffers(int world, size_t elems, uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> buffers;
  for (int r = 0; r < world; ++r) {
    Tensor t(elems);
    t.fill_normal(rng, 0.0f, 1.0f);
    buffers.push_back(std::move(t));
  }
  return buffers;
}

RankData spans_of(std::vector<Tensor>& buffers) {
  RankData spans;
  for (auto& b : buffers) spans.push_back(b.span());
  return spans;
}

std::string shape_name(int a, int b) {
  return std::to_string(a) + "x" + std::to_string(b);
}

// The clocks of one collective call in its result struct's field order,
// plus the one the timing-only replay is compared on.
struct Clocks {
  std::vector<double> fields;
  double primary = 0.0;
  size_t rounds = 0;
  size_t final_nnz = 0;
};

Clocks clocks_of(double t) { return {{t}, t}; }
Clocks clocks_of(const HierArBreakdown& b) {
  return {{b.intra_reduce, b.inter_allreduce, b.intra_broadcast, b.total},
          b.total};
}
Clocks clocks_of(const Torus2dBreakdown& b) {
  return {{b.reduce_scatter, b.inter_allreduce, b.intra_allgather, b.total},
          b.total};
}
Clocks clocks_of(const ParamServerResult& r) {
  return {{r.total, r.push, r.pull}, r.total};
}
Clocks clocks_of(const HiTopKBreakdown& b) {
  return {{b.reduce_scatter, b.mstopk, b.inter_allgather, b.intra_allgather,
           b.total, static_cast<double>(b.selected_per_shard)},
          b.total};
}
// Two successive HiTopKComm calls: both breakdowns, in call order.
Clocks clocks_of(const std::pair<HiTopKBreakdown, HiTopKBreakdown>& r) {
  Clocks clocks = clocks_of(r.first);
  const Clocks second = clocks_of(r.second);
  clocks.fields.insert(clocks.fields.end(), second.fields.begin(),
                       second.fields.end());
  clocks.primary = second.primary;
  return clocks;
}
Clocks clocks_of(const NaiveAgResult& r) {
  return {{r.total, r.allgather, r.accumulate}, r.total};
}
Clocks clocks_of(const GtopkResult& r) {
  return {{r.total}, r.total, r.rounds, r.final_nnz};
}
// Two successive gTop-k calls; the second continues from the first's
// error-feedback residuals.
Clocks clocks_of(const std::pair<GtopkResult, GtopkResult>& r) {
  return {{r.first.total, r.second.total},
          r.second.total,
          r.first.rounds,
          r.second.final_nnz};
}

// Runs `fn(cluster, data)` on `buffers` with a fresh cluster, then once more
// timing-only (empty data), and checks the case against its golden row.
// `ef` is the error feedback the functional call used, if any.  Returns the
// functional clocks for case-specific checks.
template <typename Fn>
Clocks check_golden(const std::string& name, const Topology& topo,
                    std::vector<Tensor>& buffers, Fn&& fn,
                    const compress::ErrorFeedback* ef = nullptr) {
  Cluster cluster(topo);
  const Clocks functional = clocks_of(fn(cluster, spans_of(buffers)));
  Cluster timing_cluster(topo);
  const Clocks timing = clocks_of(fn(timing_cluster, RankData{}));
  golden::expect_golden({name, golden::digest(buffers), functional.fields,
                         timing.primary,
                         ef != nullptr ? ef->residual_sq_norm() : 0.0,
                         functional.rounds, functional.final_nnz});
  return functional;
}

template <typename Fn>
Clocks check_golden(const std::string& name, const Topology& topo,
                    size_t elems, uint64_t seed, Fn&& fn,
                    const compress::ErrorFeedback* ef = nullptr) {
  std::vector<Tensor> buffers = random_buffers(topo.world_size(), elems, seed);
  return check_golden(name, topo, buffers, fn, ef);
}

// ------------------------------------------------------------ ring legs
class RingEquivalenceTest
    : public ::testing::TestWithParam<std::pair<int, size_t>> {
 protected:
  std::string shape() const {
    return "g" + std::to_string(GetParam().first) + "_e" +
           std::to_string(GetParam().second);
  }
};

TEST_P(RingEquivalenceTest, ReduceScatter) {
  const auto [g, elems] = GetParam();
  check_golden("ring_rs/" + shape(), fabric(1, g), elems, 42,
               [&](Cluster& c, const RankData& data) {
                 return ring_reduce_scatter(c, world_group(c.topology()), data,
                                            elems, WireDtype::kFp32, 0.5);
               });
}

TEST_P(RingEquivalenceTest, AllGather) {
  const auto [g, elems] = GetParam();
  check_golden("ring_ag/" + shape(), fabric(1, g), elems, 43,
               [&](Cluster& c, const RankData& data) {
                 return ring_allgather(c, world_group(c.topology()), data,
                                       elems, WireDtype::kFp16, 0.0);
               });
}

TEST_P(RingEquivalenceTest, AllReduce) {
  const auto [g, elems] = GetParam();
  check_golden("ring_ar/" + shape(), fabric(1, g), elems, 44,
               [&](Cluster& c, const RankData& data) {
                 return ring_allreduce(c, world_group(c.topology()), data,
                                       elems, WireDtype::kFp32, 0.0);
               });
}

// Group sizes x element counts with ragged remainders (67 % g != 0 for most
// g) and the degenerate single-rank group.
INSTANTIATE_TEST_SUITE_P(
    Shapes, RingEquivalenceTest,
    ::testing::Values(std::pair{1, size_t{64}}, std::pair{2, size_t{67}},
                      std::pair{3, size_t{67}}, std::pair{4, size_t{64}},
                      std::pair{5, size_t{129}}, std::pair{8, size_t{1000}},
                      std::pair{7, size_t{3}}));

TEST(RingEquivalence, AllReduceMultiTwoCrossNodeStreams) {
  const Topology topo = fabric(3, 2);
  const size_t elems = 101;
  const std::vector<Group> groups{cross_node_group(topo, 0),
                                  cross_node_group(topo, 1)};
  check_golden("ring_ar_multi/3x2", topo, elems, 7,
               [&](Cluster& c, const RankData& data) {
                 std::vector<RankData> group_data;
                 if (!data.empty()) {
                   for (const Group& group : groups) {
                     RankData spans;
                     for (int rank : group) {
                       spans.push_back(data[static_cast<size_t>(rank)]);
                     }
                     group_data.push_back(std::move(spans));
                   }
                 }
                 return ring_allreduce_multi(c, groups, group_data, elems,
                                             WireDtype::kFp32, 0.25);
               });
}

TEST(RingEquivalence, AllGatherBytesVariablePayloads) {
  const Topology topo = fabric(2, 3);
  check_golden("ring_ag_bytes/2x3", topo, 0, 0,
               [&](Cluster& c, const RankData&) {
                 return ring_allgather_bytes(c, world_group(topo),
                                             {100, 2000, 5, 40, 999, 1}, 0.0,
                                             1e-5);
               });
}

// ------------------------------------------------ ring_allgather_bytes guards
// Regression tests for the g == 0 / g == 1 guards: zero-size groups and
// single-rank groups carry no steps and must return the start time instead
// of indexing payload_bytes[q][origin] with origin computed modulo zero.
TEST(RingAllGatherBytes, SingleRankGroupIsFree) {
  const Topology topo = fabric(1, 1);
  Cluster cluster(topo);
  EXPECT_DOUBLE_EQ(
      ring_allgather_bytes(cluster, {0}, {1000000}, 1.5, 1e-3), 1.5);
}

TEST(RingAllGatherBytes, EmptyGroupsAndPayloadsAreFree) {
  const Topology topo = fabric(2, 2);
  Cluster cluster(topo);
  const std::vector<Group> groups{{}, {}};
  const std::vector<std::vector<size_t>> payloads{{}, {}};
  EXPECT_DOUBLE_EQ(
      ring_allgather_bytes_multi(cluster, groups, payloads, 2.0, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(ring_allgather_bytes(cluster, {}, {}, 3.0, 0.0), 3.0);
}

// ------------------------------------------------------------ tree
class TreeEquivalenceTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(TreeEquivalenceTest, AllReduce) {
  const auto [m, n] = GetParam();
  const size_t elems = 203;  // odd: the two tree halves differ in size
  TreeOptions options;
  options.chunk_bytes = 128;  // force multi-chunk pipelining
  check_golden("tree/" + shape_name(m, n), fabric(m, n), elems, 50,
               [&](Cluster& c, const RankData& data) {
                 return tree_allreduce(c, world_group(c.topology()), data,
                                       elems, options, 0.0);
               });
}

INSTANTIATE_TEST_SUITE_P(Shapes, TreeEquivalenceTest,
                         ::testing::Values(std::pair{1, 2}, std::pair{2, 1},
                                           std::pair{2, 4}, std::pair{3, 3},
                                           std::pair{5, 2}, std::pair{4, 4}));

// ------------------------------------------------------------ hier
TEST(HierEquivalence, BreakdownAndBuffers) {
  const size_t elems = 77;
  check_golden("hier/3x4", fabric(3, 4), elems, 60,
               [&](Cluster& c, const RankData& data) {
                 return hier_allreduce(c, data, elems, WireDtype::kFp32,
                                       0.125);
               });
}

// ------------------------------------------------------------ torus2d
class TorusEquivalenceTest
    : public ::testing::TestWithParam<std::pair<std::pair<int, int>, size_t>> {
};

TEST_P(TorusEquivalenceTest, BreakdownAndBuffers) {
  const auto [shape, elems] = GetParam();
  const auto [m, n] = shape;
  const Clocks functional = check_golden(
      "torus/" + shape_name(m, n) + "_e" + std::to_string(elems),
      fabric(m, n), elems, 70 + elems, [&](Cluster& c, const RankData& data) {
        return torus2d_allreduce(c, data, elems, WireDtype::kFp32, 0.0);
      });
  // One schedule times both modes, so moving the data never moves a clock.
  Cluster timing_cluster(fabric(m, n));
  EXPECT_EQ(functional.primary,
            torus2d_allreduce(timing_cluster, {}, elems, WireDtype::kFp32, 0.0)
                .total);
}

// 96 divides evenly by every n here; 97 leaves ragged shards, which phase 2
// runs at their exact per-stream sizes.
INSTANTIATE_TEST_SUITE_P(
    Shapes, TorusEquivalenceTest,
    ::testing::Values(std::pair{std::pair{2, 4}, size_t{96}},
                      std::pair{std::pair{2, 4}, size_t{97}},
                      std::pair{std::pair{3, 3}, size_t{97}},
                      std::pair{std::pair{4, 2}, size_t{64}},
                      std::pair{std::pair{1, 4}, size_t{97}}));

TEST(TorusGuards, ShortRankBufferIsConfigError) {
  // A rank buffer shorter than elems is rejected up front, on even (96) and
  // ragged (97) shards alike, instead of running the data pass past its end.
  const Topology topo = fabric(2, 2);
  for (const size_t elems : {size_t{96}, size_t{97}}) {
    std::vector<Tensor> buffers = random_buffers(topo.world_size(), elems, 3);
    buffers[3] = Tensor(elems / 2);
    Cluster cluster(topo);
    EXPECT_THROW(torus2d_allreduce(cluster, spans_of(buffers), elems,
                                   WireDtype::kFp32, 0.0),
                 ConfigError)
        << "elems=" << elems;
  }
}

// ------------------------------------------------------------ param server
TEST(ParamServerEquivalence, BreakdownAndBuffers) {
  const size_t elems = 101;
  check_golden("param_server/3x2", fabric(3, 2), elems, 80,
               [&](Cluster& c, const RankData& data) {
                 return param_server_allreduce(c, data, elems,
                                               WireDtype::kFp32, 0.0);
               });
}

// ------------------------------------------------------------ HiTopKComm
TEST(HiTopKEquivalence, FunctionalWithErrorFeedback) {
  const size_t elems = 250;  // ragged shards (250 % 4 != 0)
  compress::ErrorFeedback ef;
  check_golden(
      "hitopk_ef/2x4", fabric(2, 4), elems, 90,
      [&](Cluster& c, const RankData& data) {
        HiTopKOptions options;
        options.density = 0.05;
        options.seed = 99;
        options.error_feedback = data.empty() ? nullptr : &ef;
        return hitopk_comm(c, data, elems, options, 0.0);
      },
      &ef);
}

// Uneven fleets: every GPU of a g-GPU node owns the shards s with
// s % g == local, step 1 fans in, and error-feedback keys carry the shard.
// The {8, 8, 4, 4} spot fleet runs at each wire dtype and, with error
// feedback, twice in a row (the second call continues from the first's
// residuals); a 3 + 1 + 2 fleet has a one-GPU node owning every shard.  The
// device model is on, so the MSTopK and scatter-add terms are pinned too.
Topology uneven_fabric(std::vector<int> gpus) {
  return Topology(std::move(gpus), LinkParams{1e-6, 1e-9},
                  LinkParams{1e-5, 1e-8});
}

class HiTopKUnevenEquivalenceTest
    : public ::testing::TestWithParam<WireDtype> {};

TEST_P(HiTopKUnevenEquivalenceTest, Fleet8844) {
  const WireDtype wire = GetParam();
  const size_t elems = 2051;  // ragged against L = 8 shards
  const simgpu::GpuCostModel gpu;
  check_golden(std::string("hitopk/8844_") + wire_dtype_name(wire),
               uneven_fabric({8, 8, 4, 4}), elems, 93,
               [&](Cluster& c, const RankData& data) {
                 HiTopKOptions options;
                 options.density = 0.02;
                 options.value_wire = wire;
                 options.gpu = &gpu;
                 return hitopk_comm(c, data, elems, options, 0.0);
               });
}

INSTANTIATE_TEST_SUITE_P(Wires, HiTopKUnevenEquivalenceTest,
                         ::testing::Values(WireDtype::kFp32, WireDtype::kFp16,
                                           WireDtype::kInt8),
                         [](const auto& info) {
                           return std::string(wire_dtype_name(info.param));
                         });

TEST(HiTopKEquivalence, UnevenFleetTwoCallsWithErrorFeedback) {
  const size_t elems = 2051;
  const simgpu::GpuCostModel gpu;
  compress::ErrorFeedback ef;
  check_golden(
      "hitopk_ef/8844", uneven_fabric({8, 8, 4, 4}), elems, 94,
      [&](Cluster& c, const RankData& data) {
        HiTopKOptions options;
        options.density = 0.02;
        options.seed = 7;
        options.gpu = &gpu;
        options.error_feedback = data.empty() ? nullptr : &ef;
        const auto first = hitopk_comm(c, data, elems, options, 0.0);
        const auto second = hitopk_comm(c, data, elems, options, first.total);
        return std::pair{first, second};
      },
      &ef);
}

TEST(HiTopKEquivalence, UnevenFleetWithSingleGpuNode) {
  const size_t elems = 301;
  const simgpu::GpuCostModel gpu;
  check_golden("hitopk/3_1_2", uneven_fabric({3, 1, 2}), elems, 95,
               [&](Cluster& c, const RankData& data) {
                 HiTopKOptions options;
                 options.density = 0.05;
                 options.gpu = &gpu;
                 return hitopk_comm(c, data, elems, options, 0.25);
               });
}

// ------------------------------------------------------------ gTop-k
// Power-of-two and folded (non-power-of-two) worlds, with error-feedback
// state carried across two successive calls.
class GtopkEquivalenceTest
    : public ::testing::TestWithParam<std::pair<std::pair<int, int>, size_t>> {
};

TEST_P(GtopkEquivalenceTest, TwoCallsWithErrorFeedback) {
  const auto [shape, elems] = GetParam();
  const auto [m, n] = shape;
  compress::ErrorFeedback ef;
  check_golden(
      "gtopk_ef/" + shape_name(m, n) + "_e" + std::to_string(elems),
      fabric(m, n), elems, 300 + elems,
      [&](Cluster& c, const RankData& data) {
        GtopkOptions options;
        options.density = 0.04;
        options.error_feedback = data.empty() ? nullptr : &ef;
        const auto first = gtopk_comm(c, data, elems, options, 0.0);
        // The second call continues from the first's residuals.
        const auto second = gtopk_comm(c, data, elems, options, first.total);
        return std::pair{first, second};
      },
      &ef);
}

// Power-of-two (2x2, 2x4), folded worlds (3x1, 3x2, 3x4), an uneven ragged
// element count, and a folded world on an *uneven* node topology below.
INSTANTIATE_TEST_SUITE_P(
    Shapes, GtopkEquivalenceTest,
    ::testing::Values(std::pair{std::pair{2, 2}, size_t{200}},
                      std::pair{std::pair{2, 4}, size_t{257}},
                      std::pair{std::pair{3, 1}, size_t{100}},
                      std::pair{std::pair{3, 2}, size_t{331}},
                      std::pair{std::pair{3, 4}, size_t{97}}));

TEST(GtopkEquivalence, UnevenNodeTopology) {
  // 3 + 1 + 2 GPUs: world size 6 folds (q = 4, rem = 2) and the NIC port
  // layout is asymmetric across nodes.
  const Topology topo(std::vector<int>{3, 1, 2}, LinkParams{1e-6, 1e-9},
                      LinkParams{1e-5, 1e-8});
  const size_t elems = 150;
  const Clocks clocks = check_golden(
      "gtopk/uneven_3_1_2", topo, elems, 44,
      [&](Cluster& c, const RankData& data) {
        GtopkOptions options;
        options.density = 0.05;
        return gtopk_comm(c, data, elems, options, 0.25);
      });
  EXPECT_EQ(clocks.rounds, 4u);  // q = 4: fold + 2 + unfold
}

// ------------------------------------------------------------ NaiveAG
TEST(NaiveAgEquivalence, RaggedSparsePayloads) {
  const Topology topo = fabric(3, 2);
  const size_t elems = 211;
  // Per-rank top-k with *different* k so the ring payloads are ragged.
  std::vector<Tensor> grads = random_buffers(topo.world_size(), elems, 91);
  std::vector<compress::SparseTensor> sparse;
  for (size_t r = 0; r < grads.size(); ++r) {
    sparse.push_back(compress::exact_topk(grads[r].span(), 3 + 5 * r));
  }
  check_golden("naive_ag/3x2", topo, elems, 92,
               [&](Cluster& c, const RankData& data) {
                 return naive_sparse_allgather(c, sparse, data, elems, 2,
                                               1e-4, 0.5);
               });
}

TEST(NaiveAgEquivalence, UnevenNodeTopologyTimingParity) {
  const Topology topo(std::vector<int>{2, 4, 1}, LinkParams{1e-6, 1e-9},
                      LinkParams{1e-5, 1e-8});
  check_golden("naive_ag_time/uneven_2_4_1", topo, 0, 0,
               [&](Cluster& c, const RankData&) {
                 return naive_sparse_allgather_time(c, 64, 2, 1e-4, 0.0);
               });
}

// Guard class from the ring_allgather_bytes_multi g == 0 fix: degenerate
// NaiveAG inputs must not crash and must cost only the local accumulate.
TEST(NaiveAgGuards, SingleRankWorldIsGatherFree) {
  const Topology topo = fabric(1, 1);
  Cluster cluster(topo);
  Tensor grad(50);
  grad.fill(2.0f);
  std::vector<compress::SparseTensor> sparse{
      compress::exact_topk(grad.span(), 5)};
  Tensor out(50);
  RankData data{out.span()};
  const auto r =
      naive_sparse_allgather(cluster, sparse, data, 50, 4, 1e-3, 0.0);
  EXPECT_DOUBLE_EQ(r.allgather, 0.0);  // no ring steps for one rank
  EXPECT_DOUBLE_EQ(r.accumulate, 1e-3);
  EXPECT_DOUBLE_EQ(r.total, 1e-3);
  float sum = 0.0f;
  for (size_t i = 0; i < 50; ++i) sum += out[i];
  EXPECT_FLOAT_EQ(sum, 10.0f);  // the rank's own top-5 of a constant tensor
  EXPECT_DOUBLE_EQ(
      naive_sparse_allgather_time(cluster, 100, 4, 0.0, 2.0).total, 0.0);
}

TEST(NaiveAgGuards, EmptySelectionsRideAsLatencyOnlyMessages) {
  const Topology topo = fabric(2, 2);
  const size_t elems = 40;
  // k == 0 everywhere: zero payload bytes, but the ring steps still pay
  // alpha.
  std::vector<compress::SparseTensor> sparse(4);
  for (auto& s : sparse) s.dense_size = elems;
  std::vector<Tensor> buffers = random_buffers(4, elems, 7);
  check_golden("naive_ag_empty/2x2", topo, buffers,
               [&](Cluster& c, const RankData& data) {
                 const NaiveAgResult r = naive_sparse_allgather(
                     c, sparse, data, elems, 4, 0.0, 0.0);
                 EXPECT_GT(r.allgather, 0.0);  // alpha per step survives
                 return r;
               });
  for (const auto& t : buffers) {
    for (size_t i = 0; i < elems; ++i) ASSERT_EQ(t[i], 0.0f);  // empty sum
  }
}

TEST(NaiveAgGuards, EmptyRankDataIsTimingOnly) {
  const Topology topo = fabric(2, 2);
  Cluster cluster(topo);
  std::vector<compress::SparseTensor> sparse(4);
  for (auto& s : sparse) s.dense_size = 16;
  const auto r =
      naive_sparse_allgather(cluster, sparse, RankData{}, 16, 4, 0.0, 0.0);
  EXPECT_GT(r.total, 0.0);  // clocks advance, no data is touched
}

// ------------------------------------------------------------ BlueConnect
// With factors = {P}, BlueConnect's recorded schedule must be *identical*
// to ring_allreduce's (clock and bitwise), which in turn is pinned to the
// golden rows above — that chain anchors the whole decomposition.
TEST(BlueConnect, SingleStageIsExactlyFlatRing) {
  const Topology topo = fabric(3, 2);
  const size_t elems = 151;
  std::vector<Tensor> buf_bc = random_buffers(topo.world_size(), elems, 120);
  std::vector<Tensor> buf_ring = buf_bc;
  Cluster c_bc(topo), c_ring(topo);
  BlueConnectOptions options;
  options.factors = {6};
  options.wire = coll::WireDtype::kFp32;
  const auto bc =
      blueconnect_allreduce(c_bc, spans_of(buf_bc), elems, options, 0.75);
  const double ring = ring_allreduce(c_ring, world_group(topo),
                                     spans_of(buf_ring), elems, coll::WireDtype::kFp32, 0.75);
  // Same expression shape on both sides (finish - start), so the doubles
  // must be identical, not merely close.
  EXPECT_DOUBLE_EQ(bc.total, ring - 0.75);
  EXPECT_EQ(golden::digest(buf_bc), golden::digest(buf_ring));
  // Timing-only too.
  Cluster c_bc2(topo), c_ring2(topo);
  EXPECT_DOUBLE_EQ(
      blueconnect_allreduce(c_bc2, {}, elems, options, 0.0).total,
      ring_allreduce(c_ring2, world_group(topo), {}, elems, coll::WireDtype::kFp32, 0.0));
}

class BlueConnectShapeTest
    : public ::testing::TestWithParam<
          std::pair<std::vector<int>, std::pair<std::pair<int, int>, size_t>>> {
};

TEST_P(BlueConnectShapeTest, AllRanksConvergeToTheSum) {
  const auto [factors, rest] = GetParam();
  const auto [shape, elems] = rest;
  const auto [m, n] = shape;
  const Topology topo = fabric(m, n);
  std::vector<Tensor> buffers =
      random_buffers(topo.world_size(), elems, 130 + elems);
  std::vector<double> expected(elems, 0.0);
  for (const auto& b : buffers) {
    for (size_t i = 0; i < elems; ++i) expected[i] += b[i];
  }
  Cluster cluster(topo);
  BlueConnectOptions options;
  options.factors = factors;
  const auto r =
      blueconnect_allreduce(cluster, spans_of(buffers), elems, options, 0.0);
  EXPECT_EQ(r.stages, options.factors.empty()
                          ? (m == 1 || n == 1 ? 1u : 2u)
                          : options.factors.size());
  EXPECT_GT(r.total, 0.0);
  EXPECT_DOUBLE_EQ(r.total, r.reduce_scatter + r.allgather);
  for (size_t rank = 0; rank < buffers.size(); ++rank) {
    for (size_t i = 0; i < elems; ++i) {
      ASSERT_EQ(buffers[rank][i], buffers[0][i]) << rank << "," << i;
      ASSERT_NEAR(buffers[rank][i], expected[i],
                  1e-4 * std::max(1.0, std::abs(expected[i])));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BlueConnectShapeTest,
    ::testing::Values(
        // Auto-derived {n, m} on a ragged element count.
        std::pair{std::vector<int>{}, std::pair{std::pair{3, 2}, size_t{157}}},
        std::pair{std::vector<int>{}, std::pair{std::pair{4, 4}, size_t{96}}},
        // Explicit three-stage rack-aware factorization {n, pod, pods}.
        std::pair{std::vector<int>{2, 2, 2},
                  std::pair{std::pair{4, 2}, size_t{203}}},
        std::pair{std::vector<int>{4, 2, 2},
                  std::pair{std::pair{4, 4}, size_t{129}}},
        // Factor-1 stages are legal no-ops.
        std::pair{std::vector<int>{1, 6, 1},
                  std::pair{std::pair{3, 2}, size_t{64}}}));

TEST(BlueConnect, RejectsFactorizationMismatch) {
  const Topology topo = fabric(2, 2);
  Cluster cluster(topo);
  BlueConnectOptions options;
  options.factors = {3};
  // A bad factorization is a recoverable runtime configuration, not a
  // broken invariant: the elastic layer catches ConfigError and re-derives.
  EXPECT_THROW(blueconnect_allreduce(cluster, {}, 10, options, 0.0),
               ConfigError);
}

// ------------------------------------------------------- engine unit tests
TEST(Schedule, SyncCollapseAndMarks) {
  const Topology topo = fabric(1, 2);
  Cluster cluster(topo);
  Schedule sched;
  const uint32_t slots = sched.add_slots(2);
  sched.send(0, 1, 1000, slots, slots + 1);
  sched.end_step();
  sched.sync(/*collapse=*/false);  // mark only: slot 0 still at start
  sched.send(1, 0, 1000, slots + 1, slots);
  sched.end_step();
  sched.sync(/*collapse=*/true);
  sched.send(0, 1, 1000, slots, slots + 1);
  const auto timing = sched.run_timing(cluster, 1.0);
  ASSERT_EQ(timing.sync_times.size(), 2u);
  // First hop: 1e-6 latency + 1000 * 1e-9 s/B.
  const double hop = 1e-6 + 1000e-9;
  EXPECT_DOUBLE_EQ(timing.sync_times[0], 1.0 + hop);
  EXPECT_DOUBLE_EQ(timing.sync_times[1], 1.0 + 2 * hop);
  EXPECT_DOUBLE_EQ(timing.finish, 1.0 + 3 * hop);
}

TEST(Schedule, DataPassKeepsPerDestinationOrder) {
  // Three reduces into one destination must apply in recorded order;
  // float addition is not associative, so order shows in the bits.
  Tensor a(1), b(1), c(1), dst(1);
  a[0] = 1e30f;
  b[0] = -1e30f;
  c[0] = 1.0f;
  dst[0] = 0.0f;
  Schedule sched;
  const uint32_t ba = sched.add_buffer(a.span());
  const uint32_t bb = sched.add_buffer(b.span());
  const uint32_t bc = sched.add_buffer(c.span());
  const uint32_t bd = sched.add_buffer(dst.span());
  sched.reduce(ba, bd, 0, 1);
  sched.reduce(bb, bd, 0, 1);
  sched.reduce(bc, bd, 0, 1);
  sched.run_data();
  // ((0 + 1e30) - 1e30) + 1 == 1; any other order collapses to 0.
  EXPECT_EQ(dst[0], 1.0f);
}

// --------------------------------------------------- elastic fault rescale
// The acceptance sweep: a preemption injected at *every* step index of the
// replayed schedule must never crash — it surfaces as a structured abort,
// and the elastic retry completes on the surviving world with buffers
// bitwise identical to a fresh run at that world (aborted attempts never
// run the data pass, so the retry consumes pristine inputs).  The sweep
// drives preemption times over a dense grid spanning the fault-free replay
// and asserts the observed abort steps cover the schedule gaplessly.
namespace elastic_sweep {

constexpr int kDeadRank = 1;
constexpr int kGridPoints = 120;

// Fresh-run oracle at the surviving world, mirroring the elastic layer's
// per-algorithm rebuild (ring builders; BlueConnect with re-derived
// factors; gTop-k fold/unfold).
void run_fresh(ElasticAlgorithm algorithm, const Topology& topo,
               const RankData& data, size_t elems) {
  Cluster cluster(topo);
  switch (algorithm) {
    case ElasticAlgorithm::kRing:
      ring_allreduce(cluster, world_group(topo), data, elems, coll::WireDtype::kFp32, 0.0);
      break;
    case ElasticAlgorithm::kBlueConnect: {
      BlueConnectOptions options;
      if (!topo.uniform()) options.factors = {topo.world_size()};
      blueconnect_allreduce(cluster, data, elems, options, 0.0);
      break;
    }
    case ElasticAlgorithm::kGtopk: {
      GtopkOptions options;
      options.density = 0.05;
      gtopk_comm(cluster, data, elems, options, 0.0);
      break;
    }
  }
}

// Runs the sweep for one algorithm; fills the set of abort steps seen.
// (void return: gtest's fatal ASSERT_* macros require it.)
void sweep(ElasticAlgorithm algorithm, const Topology& topo, size_t elems,
           std::vector<int>* abort_steps_out) {
  const int world = topo.world_size();
  ElasticOptions options;
  options.algorithm = algorithm;
  options.gtopk.density = 0.05;
  options.reschedule_seconds = 0.5;

  // Fault-free pass pins the sweep window and the baseline behavior.
  const simnet::FaultPlan no_faults;
  const auto clean = elastic_allreduce(topo, no_faults, {}, elems, options,
                                       0.0);
  EXPECT_TRUE(clean.completed);
  EXPECT_EQ(clean.surviving_world, world);
  EXPECT_EQ(clean.rescales, 0);
  const double finish = clean.finish;
  EXPECT_GT(finish, 0.0);

  // Dead at start (t = 0): the initial survivor filter excludes the rank
  // before any send, so the single attempt runs at p - 1 and its buffers
  // match the fresh shrunk-world oracle bitwise.
  {
    simnet::FaultPlan plan;
    plan.preempt(kDeadRank, 0.0);
    std::vector<Tensor> buffers = random_buffers(world, elems, 499);
    const auto result =
        elastic_allreduce(topo, plan, spans_of(buffers), elems, options, 0.0);
    ASSERT_TRUE(result.completed);
    EXPECT_EQ(result.surviving_world, world - 1);
    EXPECT_EQ(result.attempts.size(), 1u);
    EXPECT_EQ(result.rescales, 0);
    const SurvivorWorld survivor = shrink_topology(topo, {kDeadRank});
    std::vector<Tensor> fresh = random_buffers(world, elems, 499);
    RankData fresh_data;
    for (const int old_rank : survivor.old_rank) {
      fresh_data.push_back(fresh[static_cast<size_t>(old_rank)].span());
    }
    run_fresh(algorithm, survivor.topology, fresh_data, elems);
    for (const int old_rank : survivor.old_rank) {
      const auto r = static_cast<size_t>(old_rank);
      ASSERT_EQ(std::memcmp(buffers[r].data(), fresh[r].data(),
                            elems * sizeof(float)),
                0)
          << "dead-at-start survivor (old rank " << old_rank << ")";
    }
  }

  std::vector<int> abort_steps;
  for (int i = 0; i < kGridPoints; ++i) {
    const double t =
        finish * (static_cast<double>(i) + 0.5) / kGridPoints;
    simnet::FaultPlan plan;
    plan.preempt(kDeadRank, t);
    plan.set_detection_timeout(0.1);

    std::vector<Tensor> buffers =
        random_buffers(world, elems, 500 + static_cast<uint64_t>(i));
    const auto result =
        elastic_allreduce(topo, plan, spans_of(buffers), elems, options, 0.0);
    ASSERT_TRUE(result.completed);
    if (result.attempts.front().outcome.aborted()) {
      // Preemption hit mid-schedule: structured abort, then a completed
      // retry on the surviving world.
      abort_steps.push_back(result.attempts.front().outcome.abort_step);
      ASSERT_EQ(result.surviving_world, world - 1);
      ASSERT_EQ(result.rescales, 1);
      ASSERT_EQ(result.attempts.size(), 2u);
      ASSERT_TRUE(result.attempts.back().outcome.completed());
      ASSERT_GE(result.attempts.front().outcome.abort_step, 0);
      // The abort charged the detection timeout before the rebuild.
      ASSERT_GE(result.attempts.back().outcome.finish, t + 0.1 + 0.5);

      // Bitwise oracle: fresh buffers, fresh cluster, shrunk world.
      const SurvivorWorld survivor =
          shrink_topology(topo, {kDeadRank});
      std::vector<Tensor> fresh =
          random_buffers(world, elems, 500 + static_cast<uint64_t>(i));
      RankData fresh_data;
      for (const int old_rank : survivor.old_rank) {
        fresh_data.push_back(fresh[static_cast<size_t>(old_rank)].span());
      }
      run_fresh(algorithm, survivor.topology, fresh_data, elems);
      for (const int old_rank : survivor.old_rank) {
        const auto r = static_cast<size_t>(old_rank);
        ASSERT_EQ(std::memcmp(buffers[r].data(), fresh[r].data(),
                              elems * sizeof(float)),
                  0)
            << "survivor (old rank " << old_rank
            << ") differs from the fresh shrunk-world run at t=" << t;
      }
      // The dead rank's buffer is untouched by the retry.
      std::vector<Tensor> inputs =
          random_buffers(world, elems, 500 + static_cast<uint64_t>(i));
      const auto dead = static_cast<size_t>(kDeadRank);
      if (algorithm != ElasticAlgorithm::kGtopk) {
        // (gTop-k primes inputs in-place before the schedule runs, so only
        // the dense All-Reduce paths keep the dead buffer bit-pristine.)
        ASSERT_EQ(std::memcmp(buffers[dead].data(), inputs[dead].data(),
                              elems * sizeof(float)),
                  0);
      }
    } else {
      // The preemption landed after the last send started: the full-world
      // attempt completed before anyone observed the failure.
      ASSERT_EQ(result.surviving_world, world);
    }
  }
  std::sort(abort_steps.begin(), abort_steps.end());
  abort_steps.erase(std::unique(abort_steps.begin(), abort_steps.end()),
                    abort_steps.end());
  *abort_steps_out = abort_steps;
}

void expect_gapless(const std::vector<int>& steps, int expected_first,
                    int expected_last) {
  ASSERT_FALSE(steps.empty());
  EXPECT_EQ(steps.front(), expected_first);
  EXPECT_EQ(steps.back(), expected_last);
  for (size_t i = 0; i < steps.size(); ++i) {
    EXPECT_EQ(steps[i], expected_first + static_cast<int>(i))
        << "abort-step coverage gap";
  }
}

// A preemption is observable only by a send starting at or after it; every
// step-0 send of a dense All-Reduce starts exactly at the attempt's start
// time, so a "step 0" death is indistinguishable from dead-at-start and is
// handled by the survivor filter (asserted inside sweep()).  Hence the
// mid-schedule sweeps cover steps 1..last.
TEST(ElasticRescale, RingEveryStepIndex) {
  // p = 6: 2(p-1) = 10 ring steps, indices 0..9.
  std::vector<int> steps;
  sweep(ElasticAlgorithm::kRing, fabric(3, 2), 48, &steps);
  expect_gapless(steps, 1, 9);
}

TEST(ElasticRescale, BlueConnectEveryStepIndex) {
  const Topology topo = fabric(3, 2);
  // Auto-derived factors {2, 3} on 3x2: RS 1+2 steps descending, then
  // AG 2+1 ascending = 6 steps, indices 0..5.
  std::vector<int> steps;
  sweep(ElasticAlgorithm::kBlueConnect, topo, 48, &steps);
  expect_gapless(steps, 1, 5);
}

TEST(ElasticRescale, GtopkEveryStepIndex) {
  // p = 6 folds to q = 4: fold + 2 exchange rounds + unfold.  gTop-k's
  // step-0 sends start after the local compression compute, so even step 0
  // is killable mid-schedule here.
  std::vector<int> steps;
  sweep(ElasticAlgorithm::kGtopk, fabric(3, 2), 64, &steps);
  expect_gapless(steps, 0, static_cast<int>(steps.size()) - 1);
  EXPECT_GE(steps.size(), 3u);
}

TEST(ElasticRescale, SecondPreemptionShrinksTwice) {
  const Topology topo = fabric(3, 2);
  const size_t elems = 48;
  ElasticOptions options;
  options.reschedule_seconds = 0.5;

  // Probe: learn when the retry starts after rank 1 dies early.
  simnet::FaultPlan probe;
  probe.preempt(1, 1e-9);
  probe.set_detection_timeout(0.1);
  const auto first =
      elastic_allreduce(topo, probe, {}, elems, options, 0.0);
  ASSERT_TRUE(first.completed);
  ASSERT_EQ(first.surviving_world, 5);
  const double retry_start = first.attempts.front().outcome.finish + 0.5;

  // Kill rank 4 a hair after the retry begins — late enough that the
  // rescale's liveness check still sees it alive (so attempt 2 runs and
  // aborts mid-schedule), early enough to hit attempt 2's first steps.
  simnet::FaultPlan plan;
  plan.preempt(1, 1e-9);
  plan.preempt(4, retry_start + 1e-9);
  plan.set_detection_timeout(0.1);
  std::vector<Tensor> buffers = random_buffers(topo.world_size(), elems, 901);
  const auto result =
      elastic_allreduce(topo, plan, spans_of(buffers), elems, options, 0.0);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.surviving_world, 4);
  EXPECT_EQ(result.rescales, 2);
  EXPECT_EQ(result.survivors, (std::vector<int>{0, 2, 3, 5}));

  const SurvivorWorld survivor = shrink_topology(topo, {1, 4});
  std::vector<Tensor> fresh = random_buffers(topo.world_size(), elems, 901);
  RankData fresh_data;
  for (const int old_rank : survivor.old_rank) {
    fresh_data.push_back(fresh[static_cast<size_t>(old_rank)].span());
  }
  run_fresh(ElasticAlgorithm::kRing, survivor.topology, fresh_data, elems);
  for (const int old_rank : survivor.old_rank) {
    const auto r = static_cast<size_t>(old_rank);
    ASSERT_EQ(
        std::memcmp(buffers[r].data(), fresh[r].data(), elems * sizeof(float)),
        0)
        << "old rank " << old_rank;
  }
}

TEST(ElasticRescale, SingleSurvivorCompletesTrivially) {
  // All but one rank dead at start: the All-Reduce of one contribution is
  // the identity, so the attempt completes instantly — no schedule, no
  // traffic, no time, and the survivor's buffer is bit-untouched.
  const Topology topo = fabric(3, 2);
  const size_t elems = 48;
  for (const auto algorithm :
       {ElasticAlgorithm::kRing, ElasticAlgorithm::kBlueConnect,
        ElasticAlgorithm::kGtopk}) {
    simnet::FaultPlan plan;
    for (int r = 1; r < topo.world_size(); ++r) plan.preempt(r, 0.0);
    ElasticOptions options;
    options.algorithm = algorithm;
    options.gtopk.density = 0.05;
    std::vector<Tensor> buffers = random_buffers(topo.world_size(), elems, 77);
    const std::vector<Tensor> inputs =
        random_buffers(topo.world_size(), elems, 77);
    const auto result =
        elastic_allreduce(topo, plan, spans_of(buffers), elems, options, 0.0);
    ASSERT_TRUE(result.completed);
    EXPECT_EQ(result.surviving_world, 1);
    EXPECT_EQ(result.survivors, (std::vector<int>{0}));
    ASSERT_EQ(result.attempts.size(), 1u);
    EXPECT_EQ(result.finish, 0.0);
    EXPECT_EQ(result.rescales, 0);
    EXPECT_EQ(result.regrows, 0);
    EXPECT_EQ(std::memcmp(buffers[0].data(), inputs[0].data(),
                          elems * sizeof(float)),
              0);
  }
}

TEST(ElasticRescale, AllSurvivorsOnOneNodeRunHierarchyFree) {
  // Two whole nodes die, leaving both survivors on node 0: the rebuilt
  // world has no inter-node links, so every algorithm must run a flat,
  // hierarchy-free schedule — and match the fresh single-node oracle
  // bitwise.  (BlueConnect's auto factor derivation on one node already
  // yields the flat {p} ring; the elastic re-derivation must agree.)
  const Topology topo = fabric(3, 2);
  const size_t elems = 48;
  for (const auto algorithm :
       {ElasticAlgorithm::kRing, ElasticAlgorithm::kBlueConnect,
        ElasticAlgorithm::kGtopk}) {
    simnet::FaultPlan plan;
    for (int r = 2; r < topo.world_size(); ++r) plan.preempt(r, 0.0);
    ElasticOptions options;
    options.algorithm = algorithm;
    options.gtopk.density = 0.05;
    std::vector<Tensor> buffers = random_buffers(topo.world_size(), elems, 78);
    const auto result =
        elastic_allreduce(topo, plan, spans_of(buffers), elems, options, 0.0);
    ASSERT_TRUE(result.completed);
    EXPECT_EQ(result.surviving_world, 2);
    ASSERT_EQ(result.attempts.size(), 1u);

    const SurvivorWorld survivor = shrink_topology(topo, {2, 3, 4, 5});
    EXPECT_EQ(survivor.topology.nodes(), 1);
    std::vector<Tensor> fresh = random_buffers(topo.world_size(), elems, 78);
    RankData fresh_data;
    for (const int old_rank : survivor.old_rank) {
      fresh_data.push_back(fresh[static_cast<size_t>(old_rank)].span());
    }
    run_fresh(algorithm, survivor.topology, fresh_data, elems);
    for (const int old_rank : survivor.old_rank) {
      const auto r = static_cast<size_t>(old_rank);
      ASSERT_EQ(std::memcmp(buffers[r].data(), fresh[r].data(),
                            elems * sizeof(float)),
                0)
          << "old rank " << old_rank;
    }
  }
}

TEST(ElasticRescale, RecoveredRankRejoinsTheRetry) {
  // Grow path: rank 1 dies during attempt 1 and recovers while attempt 2
  // (which excluded it) is still running; when rank 4's death aborts
  // attempt 2, the third attempt re-derives membership from the full-world
  // plan and rank 1 rejoins.  The completed world is {0,1,2,3,5} and the
  // result matches a fresh run with only rank 4 removed.
  const Topology topo = fabric(3, 2);
  const size_t elems = 48;
  ElasticOptions options;
  options.reschedule_seconds = 0.5;

  // Probe 1: when does attempt 2 start after rank 1 dies immediately?
  simnet::FaultPlan probe1;
  probe1.preempt(1, 1e-9);
  probe1.set_detection_timeout(0.1);
  const auto first = elastic_allreduce(topo, probe1, {}, elems, options, 0.0);
  ASSERT_TRUE(first.completed);
  const double retry_start = first.attempts.front().outcome.finish + 0.5;

  // Probe 2: when does attempt 2 abort after rank 4 dies just past its
  // start?  Attempt 3 then begins at that finish plus the reschedule cost.
  simnet::FaultPlan probe2;
  probe2.preempt(1, 1e-9);
  probe2.preempt(4, retry_start + 1e-9);
  probe2.set_detection_timeout(0.1);
  const auto second = elastic_allreduce(topo, probe2, {}, elems, options, 0.0);
  ASSERT_TRUE(second.completed);
  ASSERT_EQ(second.attempts.size(), 3u);
  const double abort_finish = second.attempts[1].outcome.finish;
  ASSERT_GT(abort_finish, retry_start);

  // Real plan: rank 1's outage window is [1e-9, abort_finish) — it is dead
  // for all of attempt 2 but alive again when attempt 3 re-derives.
  simnet::FaultPlan plan;
  plan.preempt(1, 1e-9, abort_finish);
  plan.preempt(4, retry_start + 1e-9);
  plan.set_detection_timeout(0.1);
  std::vector<Tensor> buffers = random_buffers(topo.world_size(), elems, 902);
  const auto result =
      elastic_allreduce(topo, plan, spans_of(buffers), elems, options, 0.0);
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(result.attempts.size(), 3u);
  EXPECT_EQ(result.surviving_world, 5);
  EXPECT_EQ(result.survivors, (std::vector<int>{0, 1, 2, 3, 5}));
  EXPECT_EQ(result.rescales, 2);  // attempt 2 dropped 1; attempt 3 dropped 4
  EXPECT_EQ(result.regrows, 1);   // ... and regained 1
  EXPECT_GE(result.finish, abort_finish);

  // Aborted attempts never run the data pass, so the rejoined rank's input
  // is pristine and the final buffers match a fresh run without rank 4.
  const SurvivorWorld survivor = shrink_topology(topo, {4});
  std::vector<Tensor> fresh = random_buffers(topo.world_size(), elems, 902);
  RankData fresh_data;
  for (const int old_rank : survivor.old_rank) {
    fresh_data.push_back(fresh[static_cast<size_t>(old_rank)].span());
  }
  run_fresh(ElasticAlgorithm::kRing, survivor.topology, fresh_data, elems);
  for (const int old_rank : survivor.old_rank) {
    const auto r = static_cast<size_t>(old_rank);
    ASSERT_EQ(
        std::memcmp(buffers[r].data(), fresh[r].data(), elems * sizeof(float)),
        0)
        << "old rank " << old_rank;
  }
}

TEST(ElasticRescale, ShrinkTopologyMapsSurvivorsDensely) {
  const Topology topo = fabric(3, 2);  // ranks {0,1} {2,3} {4,5}
  const SurvivorWorld w = shrink_topology(topo, {1, 4});
  EXPECT_EQ(w.topology.world_size(), 4);
  EXPECT_EQ(w.topology.nodes(), 3);  // every node kept at least one GPU
  EXPECT_EQ(w.old_rank, (std::vector<int>{0, 2, 3, 5}));
  EXPECT_EQ(w.old_node, (std::vector<int>{0, 1, 2}));
  EXPECT_FALSE(w.topology.uniform());  // 1 + 2 + 1 GPUs

  // A whole node dying removes it from the node list too.
  const SurvivorWorld gone = shrink_topology(topo, {2, 3});
  EXPECT_EQ(gone.topology.nodes(), 2);
  EXPECT_EQ(gone.old_node, (std::vector<int>{0, 2}));
  EXPECT_TRUE(gone.topology.uniform());

  EXPECT_THROW(shrink_topology(fabric(1, 2), {0, 1}), ConfigError);
}

}  // namespace elastic_sweep

// ---------------------------------------------------------------------------
// Multi-tenant backward compatibility: a single job on an idle cluster must
// replay to the exact pre-refactor clocks whatever its job id — across the
// same seven cluster shapes the builder-validation suite sweeps.
// ---------------------------------------------------------------------------
namespace job_invariance {

class JobIdInvarianceTest
    : public ::testing::TestWithParam<std::tuple<int, int, size_t>> {};

TEST_P(JobIdInvarianceTest, SingleJobClocksIndependentOfJobId) {
  const auto [m, n, elems] = GetParam();
  const Topology topo = fabric(m, n);
  const Group world = world_group(topo);
  std::vector<Group> groups{world};

  Schedule sched;
  const RingGrid grid = ring_grid(sched, groups, {});
  build_ring_reduce_scatter(sched, groups, grid, elems, coll::WireDtype::kFp32,
                            /*fused_chains=*/true);
  sched.sync(/*collapse=*/true);
  build_ring_allgather(sched, groups, grid, elems, coll::WireDtype::kFp32);

  Cluster as_default(topo);
  Cluster as_tenant(topo);
  const auto a = sched.run_timing(as_default, 0.25);
  const auto b = sched.run_timing(as_tenant, 0.25, /*job=*/9);
  EXPECT_DOUBLE_EQ(a.finish, b.finish);
  ASSERT_EQ(a.sync_times.size(), b.sync_times.size());
  for (size_t i = 0; i < a.sync_times.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.sync_times[i], b.sync_times[i]);
  }
  EXPECT_DOUBLE_EQ(as_default.quiescent_time(), as_tenant.quiescent_time());
  EXPECT_EQ(as_default.inter_node_bytes(), as_tenant.inter_node_bytes());
  EXPECT_EQ(as_default.intra_node_bytes(), as_tenant.intra_node_bytes());

  // The abortable replay takes the same arithmetic path fault-free.
  Cluster abortable(topo);
  const ScheduleOutcome out = sched.run_timing_abortable(abortable, 0.25, 9);
  EXPECT_EQ(out.status, ScheduleStatus::kCompleted);
  EXPECT_DOUBLE_EQ(out.finish, a.finish);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, JobIdInvarianceTest,
    ::testing::Values(std::tuple<int, int, size_t>{1, 1, 16},
                      std::tuple<int, int, size_t>{1, 4, 64},
                      std::tuple<int, int, size_t>{2, 2, 37},
                      std::tuple<int, int, size_t>{3, 2, 96},
                      std::tuple<int, int, size_t>{2, 3, 41},
                      std::tuple<int, int, size_t>{4, 4, 256},
                      std::tuple<int, int, size_t>{5, 3, 128}));

}  // namespace job_invariance

}  // namespace
}  // namespace hitopk::coll
