// Collective outputs pinned to golden rows (collective_golden.h): for every
// case, the rank buffers (FNV-1a digest over the raw bytes, so -0.0 vs 0.0
// or NaN payload differences cannot hide), every clock and breakdown field
// (exact), and the timing-only clock must equal what the per-hop reference
// loops recorded.  Shapes include uneven chunk_range remainders,
// single-rank groups, and multi-chunk tree pipelining.  Also here:
// BlueConnect's reduction to the flat ring, engine unit tests, the
// survivor-world renumbering, and job-id invariance.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
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
// hitopk_comm writes the aggregate into data[0] only.  After step 4 every
// GPU holds it, and the golden rows digest that world: each case copies
// data[0] into the other rank buffers after every call, so a second call
// starts from what every GPU held after the first.
HiTopKBreakdown hitopk_replicated(Cluster& c, const RankData& data,
                                  size_t elems, const HiTopKOptions& options,
                                  double start) {
  const HiTopKBreakdown b = hitopk_comm(c, data, elems, options, start);
  for (size_t r = 1; r < data.size(); ++r) {
    std::copy(data[0].begin(), data[0].end(), data[r].begin());
  }
  return b;
}

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
        return hitopk_replicated(c, data, elems, options, 0.0);
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
                 return hitopk_replicated(c, data, elems, options, 0.0);
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
        const auto first = hitopk_replicated(c, data, elems, options, 0.0);
        const auto second =
            hitopk_replicated(c, data, elems, options, first.total);
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
                 return hitopk_replicated(c, data, elems, options, 0.25);
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

// --------------------------------------------------- elastic survivor world
// ConvergenceEngine runs every collective after a preemption on the world
// shrink_topology derives; the renumbering must keep survivors dense and in
// order.
namespace survivor_world {

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

  // Survivors that all share one node keep no inter-node link.
  const SurvivorWorld one = shrink_topology(topo, {2, 3, 4, 5});
  EXPECT_EQ(one.topology.nodes(), 1);
  EXPECT_EQ(one.old_rank, (std::vector<int>{0, 1}));

  EXPECT_THROW(shrink_topology(fabric(1, 2), {0, 1}), ConfigError);
}

}  // namespace survivor_world

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
