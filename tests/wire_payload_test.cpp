// Typed transfer payloads: wire-codec contract pins, the fp16-halves-bytes
// acceptance pins (simulated transfer bytes AND per-job accounted bytes),
// quantized error-feedback composition, the {8,8,4,4} uneven-fleet
// HiTopKComm regression, and the quantized collective fuzz: a pinned
// corpus checked against golden rows, plus an exact-sum oracle fuzz (CI
// runs this suite under ASan/UBSan and TSan with the seed pinned;
// HITOPK_WIRE_FUZZ_SEED / HITOPK_WIRE_FUZZ_SAMPLES drive the oracle fuzz).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "collective_golden.h"
#include "collectives/hier_allreduce.h"
#include "collectives/hitopkcomm.h"
#include "collectives/ring.h"
#include "collectives/schedule.h"
#include "collectives/tree_allreduce.h"
#include "compress/error_feedback.h"
#include "compress/wire_codec.h"
#include "core/half.h"
#include "core/rng.h"
#include "core/tensor.h"
#include "simnet/job_scheduler.h"
#include "train/tenant.h"

namespace hitopk {
namespace {

using coll::Group;
using coll::RankData;
using coll::WireDtype;
using compress::wire_payload_bytes;
using compress::wire_round_trip;
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

// Integer-valued buffers in [-bound, bound] make float addition exact (sums
// stay far below 2^24), so comparisons can demand equality, not closeness.
std::vector<Tensor> integer_buffers(int world, size_t elems, uint64_t seed,
                                    int bound = 512) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> values(-bound, bound);
  std::vector<Tensor> buffers;
  for (int r = 0; r < world; ++r) {
    Tensor t(elems);
    for (float& x : t.span()) x = static_cast<float>(values(rng));
    buffers.push_back(std::move(t));
  }
  return buffers;
}

RankData spans_of(std::vector<Tensor>& buffers) {
  RankData spans;
  for (auto& b : buffers) spans.push_back(b.span());
  return spans;
}

void expect_bitwise_equal(const std::vector<Tensor>& a,
                          const std::vector<Tensor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t r = 0; r < a.size(); ++r) {
    ASSERT_EQ(a[r].size(), b[r].size());
    ASSERT_EQ(
        std::memcmp(a[r].data(), b[r].data(), a[r].size() * sizeof(float)), 0)
        << "buffers of rank " << r << " differ";
  }
}

uint64_t env_u64(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  return value ? std::strtoull(value, nullptr, 10) : fallback;
}

// ----------------------------------------------------- codec contract

TEST(WireCodec, PayloadBytes) {
  EXPECT_EQ(wire_payload_bytes(WireDtype::kFp32, 1000), 4000u);
  EXPECT_EQ(wire_payload_bytes(WireDtype::kFp16, 1000), 2000u);
  // int8: one byte per element plus the 4-byte per-shard scale record.
  EXPECT_EQ(wire_payload_bytes(WireDtype::kInt8, 1000), 1004u);
  EXPECT_EQ(compress::wire_elem_bytes(WireDtype::kFp16), 2u);
  EXPECT_STREQ(compress::wire_dtype_name(WireDtype::kInt8), "int8");
}

TEST(WireCodec, Fp32IsBitwiseIdentity) {
  std::vector<float> values = {1.0f, -0.0f, 1e-30f,
                               std::numeric_limits<float>::quiet_NaN(),
                               std::numeric_limits<float>::infinity()};
  std::vector<float> before = values;
  wire_round_trip(WireDtype::kFp32, values);
  EXPECT_EQ(std::memcmp(values.data(), before.data(),
                        values.size() * sizeof(float)),
            0);
}

TEST(WireCodec, Fp16MatchesHalfRoundTrip) {
  Tensor a(257), b(257);
  Rng rng(5);
  a.fill_normal(rng, 0.0f, 3.0f);
  std::memcpy(b.data(), a.data(), a.size() * sizeof(float));
  wire_round_trip(WireDtype::kFp16, a.span());
  fp16_round_trip(b.span());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

TEST(WireCodec, Int8ScaleIsPowerOfTwoAndErrorBounded) {
  Tensor t(1000);
  Rng rng(7);
  t.fill_normal(rng, 0.0f, 2.0f);
  Tensor orig(1000);
  std::memcpy(orig.data(), t.data(), t.size() * sizeof(float));

  const float scale = compress::int8_wire_scale(t.span());
  ASSERT_GT(scale, 0.0f);
  int exp = 0;
  EXPECT_EQ(std::frexp(scale, &exp), 0.5f) << "scale must be a power of two";

  wire_round_trip(WireDtype::kInt8, t.span());
  for (size_t i = 0; i < t.size(); ++i) {
    // Every decoded value is q*scale for an integer q in [-127, 127], and
    // round-half-away keeps the error within scale/2.
    const float q = t[i] / scale;
    EXPECT_EQ(q, std::nearbyint(q)) << i;
    EXPECT_LE(std::fabs(q), 127.0f) << i;
    EXPECT_LE(std::fabs(t[i] - orig[i]), scale * 0.5f + 1e-12f) << i;
  }
}

TEST(WireCodec, RoundTripsAreIdempotent) {
  for (const WireDtype wire : {WireDtype::kFp16, WireDtype::kInt8}) {
    Tensor t(777);
    Rng rng(11);
    t.fill_normal(rng, 0.0f, 1.0f);
    wire_round_trip(wire, t.span());
    Tensor once(777);
    std::memcpy(once.data(), t.data(), t.size() * sizeof(float));
    wire_round_trip(wire, t.span());
    EXPECT_EQ(std::memcmp(t.data(), once.data(), t.size() * sizeof(float)), 0)
        << compress::wire_dtype_name(wire);
  }
}

TEST(WireCodec, Int8NonFiniteAndZeroShardsPassThrough) {
  std::vector<float> weird = {std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::quiet_NaN(), 1.5f,
                              0.0f};
  std::vector<float> before = weird;
  wire_round_trip(WireDtype::kInt8, weird);
  EXPECT_TRUE(std::isinf(weird[0]));
  EXPECT_TRUE(std::isnan(weird[1]));
  // The finite value still quantizes against the finite max magnitude.
  EXPECT_NEAR(weird[2], 1.5f, compress::int8_wire_scale(before) * 0.5f);

  std::vector<float> zeros(16, 0.0f);
  zeros[3] = -0.0f;
  std::vector<float> zeros_before = zeros;
  EXPECT_EQ(compress::int8_wire_scale(zeros), 0.0f);
  wire_round_trip(WireDtype::kInt8, zeros);
  EXPECT_EQ(std::memcmp(zeros.data(), zeros_before.data(),
                        zeros.size() * sizeof(float)),
            0);
}

// ------------------------------------------- fp16 halves bytes (pinned)

TEST(Fp16HalvesBytes, SimulatedTransferBytes) {
  // Acceptance pin: the fp16 wire halves the simulated transfer bytes of a
  // dense All-Reduce exactly — Send.bytes derives from the wire dtype.
  const Topology topo = fabric(3, 2);
  const size_t elems = 4096;
  Cluster fp32(topo), fp16(topo);
  coll::ring_allreduce(fp32, coll::world_group(topo), {}, elems,
                       WireDtype::kFp32, 0.0);
  coll::ring_allreduce(fp16, coll::world_group(topo), {}, elems,
                       WireDtype::kFp16, 0.0);
  EXPECT_GT(fp32.inter_node_bytes(), 0u);
  EXPECT_EQ(fp16.inter_node_bytes() * 2, fp32.inter_node_bytes());
  EXPECT_EQ(fp16.intra_node_bytes() * 2, fp32.intra_node_bytes());
  // And the timing pass sees the cheaper wire: fp16 finishes earlier.
  Cluster again32(topo), again16(topo);
  const double t32 = coll::ring_allreduce(again32, coll::world_group(topo), {},
                                          elems, WireDtype::kFp32, 0.0);
  const double t16 = coll::ring_allreduce(again16, coll::world_group(topo), {},
                                          elems, WireDtype::kFp16, 0.0);
  EXPECT_LT(t16, t32);
}

TEST(Fp16HalvesBytes, RecordedSendBytesHalve) {
  // The same pin at the schedule-record level: every recorded Send of the
  // fp16 build carries exactly half the bytes of its fp32 twin.
  const Topology topo = fabric(2, 2);
  const Group world = coll::world_group(topo);
  const size_t elems = 1024;
  auto record = [&](WireDtype wire) {
    coll::Schedule sched;
    std::vector<Group> groups{world};
    std::vector<RankData> group_data{{}};
    const coll::RingGrid grid =
        coll::ring_grid(sched, groups, group_data, wire);
    coll::build_ring_reduce_scatter(sched, groups, grid, elems, wire,
                                    /*fused_chains=*/true);
    sched.sync(/*collapse=*/true);
    coll::build_ring_allgather(sched, groups, grid, elems, wire);
    return sched;
  };
  const coll::Schedule a = record(WireDtype::kFp32);
  const coll::Schedule b = record(WireDtype::kFp16);
  ASSERT_EQ(a.sends().size(), b.sends().size());
  ASSERT_FALSE(a.sends().empty());
  for (size_t i = 0; i < a.sends().size(); ++i) {
    EXPECT_EQ(b.sends()[i].bytes * 2, a.sends()[i].bytes) << "send " << i;
  }
}

TEST(Fp16HalvesBytes, PerJobAccountedBytes) {
  // Acceptance pin: per-job byte accounting reflects the wire dtype — a
  // fp16 tenant places exactly half the bytes of an identical fp32 tenant.
  const Topology topo = fabric(2, 2);
  auto run = [&](WireDtype wire) {
    Cluster cluster(topo);
    simnet::JobScheduler sched(cluster, {});
    train::TenantWorkload workload;
    workload.resolution = 96;
    workload.wire = wire;
    std::vector<simnet::JobSpec> jobs(1);
    jobs[0] = {/*id=*/7, /*arrival=*/0.0, /*gpus=*/4, /*iterations=*/2,
               /*bytes=*/size_t{1} << 20, /*isolated_seconds=*/0.0};
    sched.run(jobs, train::make_tenant_body(workload));
    return std::pair<size_t, size_t>{cluster.inter_node_bytes(7),
                                     cluster.intra_node_bytes(7)};
  };
  const auto [inter32, intra32] = run(WireDtype::kFp32);
  const auto [inter16, intra16] = run(WireDtype::kFp16);
  EXPECT_GT(inter32, 0u);
  EXPECT_EQ(inter16 * 2, inter32);
  EXPECT_EQ(intra16 * 2, intra32);
}

// ------------------------------------------ quantized error feedback

TEST(QuantizedEf, ResidualAbsorbsQuantizationError) {
  // EF with a lossy wire: the residual at a sent coordinate is exactly the
  // quantization error (gradient minus the decoded wire value), and +0.0
  // where the send was exact.
  compress::ErrorFeedback ef;
  Tensor grad(64);
  Rng rng(3);
  grad.fill_normal(rng, 0.0f, 1.0f);
  Tensor acc(64);
  std::memcpy(acc.data(), grad.data(), 64 * sizeof(float));

  ef.apply_priming("g", grad.span());  // zero residual: grad unchanged
  compress::SparseTensor sent;
  sent.dense_size = 64;
  for (uint32_t i = 0; i < 64; i += 4) {
    sent.indices.push_back(i);
    sent.values.push_back(grad[i]);
  }
  wire_round_trip(WireDtype::kInt8, sent.values);
  ef.absorb_primed("g", sent);

  const auto residual = ef.residual("g");
  for (size_t i = 0; i < 64; ++i) {
    if (i % 4 == 0) {
      EXPECT_EQ(residual[i], acc[i] - sent.values[i / 4]) << i;
    } else {
      EXPECT_EQ(residual[i], acc[i]) << i;
    }
  }
}

TEST(QuantizedEf, HitopkQuantizedRunsAreBitwiseDeterministic) {
  // The quantized HiTopKComm pipeline under parallel_for: two identical
  // runs produce bitwise-identical buffers and residuals.
  const Topology topo = fabric(2, 3);
  for (const WireDtype wire : {WireDtype::kFp16, WireDtype::kInt8}) {
    std::vector<Tensor> a = random_buffers(topo.world_size(), 515, 21);
    std::vector<Tensor> b = a;
    compress::ErrorFeedback ef_a, ef_b;
    coll::HiTopKOptions options;
    options.density = 0.05;
    options.value_wire = wire;
    options.error_feedback = &ef_a;
    Cluster ca(topo);
    coll::hitopk_comm(ca, spans_of(a), 515, options, 0.0);
    options.error_feedback = &ef_b;
    Cluster cb(topo);
    coll::hitopk_comm(cb, spans_of(b), 515, options, 0.0);
    expect_bitwise_equal(a, b);
    EXPECT_EQ(ef_a.residual_sq_norm(), ef_b.residual_sq_norm());
    EXPECT_GT(ef_a.residual_sq_norm(), 0.0);  // lossy wire leaves residual
    for (const std::string& key : ef_a.keys()) {
      ASSERT_TRUE(ef_b.has(key));
      const auto ra = ef_a.residual(key);
      const auto rb = ef_b.residual(key);
      ASSERT_EQ(std::memcmp(ra.data(), rb.data(), ra.size() * sizeof(float)),
                0)
          << key;
    }
  }
}

TEST(QuantizedEf, RestoreAndContinueIdentity) {
  // Checkpoint the quantized EF state after step 1, restore it into a fresh
  // ErrorFeedback, and run step 2 on both: bitwise-identical trajectories.
  const Topology topo = fabric(2, 2);
  const size_t elems = 300;
  coll::HiTopKOptions options;
  options.density = 0.08;
  options.value_wire = WireDtype::kInt8;

  std::vector<Tensor> step1 = random_buffers(topo.world_size(), elems, 31);
  compress::ErrorFeedback live;
  options.error_feedback = &live;
  Cluster c1(topo);
  coll::hitopk_comm(c1, spans_of(step1), elems, options, 0.0);

  // Snapshot (keys + residuals), restore into a fresh instance.
  compress::ErrorFeedback restored;
  for (const std::string& key : live.keys()) {
    restored.set(key, live.residual(key));
  }

  std::vector<Tensor> next_live = random_buffers(topo.world_size(), elems, 32);
  std::vector<Tensor> next_restored = next_live;
  Cluster c2(topo);
  coll::hitopk_comm(c2, spans_of(next_live), elems, options, 0.0);
  options.error_feedback = &restored;
  Cluster c3(topo);
  coll::hitopk_comm(c3, spans_of(next_restored), elems, options, 0.0);

  expect_bitwise_equal(next_live, next_restored);
  EXPECT_EQ(live.residual_sq_norm(), restored.residual_sq_norm());
}

// --------------------------------------- uneven fleets ({8,8,4,4} pin)

TEST(HiTopKUneven, Fleet8844DenseSumExact) {
  // The ISSUE's regression fleet: two 8-GPU and two 4-GPU nodes.  With
  // density 1.0 every coordinate is selected, so the aggregated gradient
  // must equal the dense sum — exactly, on integer-valued inputs.
  const Topology topo(std::vector<int>{8, 8, 4, 4}, LinkParams{1e-6, 1e-9},
                      LinkParams{1e-5, 1e-8});
  const size_t elems = 4099;  // ragged against L = 8 shards
  std::vector<Tensor> grads = integer_buffers(topo.world_size(), elems, 41);
  Tensor reference(elems);
  for (const auto& g : grads) {
    for (size_t i = 0; i < elems; ++i) reference.span()[i] += g[i];
  }
  coll::HiTopKOptions options;
  options.density = 1.0;
  Cluster cluster(topo);
  coll::hitopk_comm(cluster, spans_of(grads), elems, options, 0.0);
  // The aggregate is written to rank 0 only; the other buffers are scratch.
  for (size_t i = 0; i < elems; ++i) {
    ASSERT_EQ(grads[0][i], reference[i]) << "elem " << i;
  }
}

TEST(HiTopKUneven, Fleet8844SparseConsistentAndShardKeyedEf) {
  const Topology topo(std::vector<int>{8, 8, 4, 4}, LinkParams{1e-6, 1e-9},
                      LinkParams{1e-5, 1e-8});
  const size_t elems = 2051;
  std::vector<Tensor> grads = random_buffers(topo.world_size(), elems, 43);
  compress::ErrorFeedback ef;
  coll::HiTopKOptions options;
  options.density = 0.02;
  options.value_wire = WireDtype::kFp16;
  options.error_feedback = &ef;
  Cluster cluster(topo);
  coll::hitopk_comm(cluster, spans_of(grads), elems, options, 0.0);
  // Every rank receives the one aggregate, held in rank 0's buffer: on each
  // of the L = 8 shards, at most one k~-block of nonzeros per node, and at
  // least one.
  const size_t shards = 8;
  for (size_t j = 0; j < shards; ++j) {
    const coll::ChunkRange shard = coll::chunk_range(elems, shards, j);
    const size_t k = static_cast<size_t>(
        std::llround(options.density * static_cast<double>(shard.count)));
    size_t nnz = 0;
    for (size_t i = shard.begin; i < shard.begin + shard.count; ++i) {
      nnz += grads[0][i] != 0.0f ? 1 : 0;
    }
    ASSERT_GT(nnz, 0u) << "shard " << j;
    ASSERT_LE(nnz, 4 * k) << "shard " << j;
  }
  // A GPU on a 4-GPU node owns L/g = 2 of the 8 shards; EF keys are
  // per-(rank, shard).
  EXPECT_TRUE(ef.has("grad:0:s0"));   // GPU 0 of node 0 owns shard 0
  EXPECT_TRUE(ef.has("grad:16:s0"));  // GPU 0 of node 2 owns shards 0 and 4
  EXPECT_TRUE(ef.has("grad:16:s4"));
  EXPECT_FALSE(ef.has("grad:0:s1"));
}

TEST(HiTopKUneven, TimingOnlyAdvancesClocksAndBytes) {
  const Topology topo(std::vector<int>{8, 8, 4, 4}, LinkParams{1e-6, 1e-9},
                      LinkParams{1e-5, 1e-8});
  coll::HiTopKOptions options;
  options.density = 0.01;
  Cluster cluster(topo);
  const auto breakdown =
      coll::hitopk_comm(cluster, {}, 1u << 18, options, 0.0);
  EXPECT_GT(breakdown.total, 0.0);
  EXPECT_GT(breakdown.reduce_scatter, 0.0);
  EXPECT_GT(breakdown.inter_allgather, 0.0);
  EXPECT_GT(cluster.inter_node_bytes(), 0u);
  EXPECT_LT(cluster.inter_node_bytes(), cluster.intra_node_bytes());
}

// ------------------------------------------- quantized collective fuzz

// One fuzz sample: a uniform fabric, a power-of-two size plus a ragged
// remainder, a wire dtype, and one of ring / tree / hier All-Reduce.
struct FuzzSample {
  int nodes = 1;
  int gpus = 1;
  size_t elems = 0;
  WireDtype wire = WireDtype::kFp32;
  int kind = 0;  // 0 ring, 1 tree, 2 hier

  std::string describe() const {
    return "nodes=" + std::to_string(nodes) + " gpus=" + std::to_string(gpus) +
           " elems=" + std::to_string(elems) +
           " wire=" + compress::wire_dtype_name(wire) +
           " kind=" + std::to_string(kind);
  }
};

FuzzSample draw_sample(std::mt19937_64& rng,
                       const std::vector<WireDtype>& wires) {
  std::uniform_int_distribution<int> nodes_dist(1, 4);
  std::uniform_int_distribution<int> gpus_dist(1, 3);
  std::uniform_int_distribution<int> log_elems(4, 11);
  std::uniform_int_distribution<size_t> ragged(0, 5);
  std::uniform_int_distribution<size_t> wire_dist(0, wires.size() - 1);
  std::uniform_int_distribution<int> kind_dist(0, 2);
  FuzzSample s;
  s.nodes = nodes_dist(rng);
  s.gpus = gpus_dist(rng);
  s.elems = (size_t{1} << log_elems(rng)) + ragged(rng);
  s.wire = wires[wire_dist(rng)];
  s.kind = kind_dist(rng);
  // Tree and hier need more than one rank; hier needs more than one node.
  if (s.nodes * s.gpus == 1 || (s.kind == 2 && s.nodes == 1)) s.kind = 0;
  return s;
}

double run_sample(const FuzzSample& s, Cluster& cluster, const RankData& data) {
  const Topology& topo = cluster.topology();
  switch (s.kind) {
    case 0:
      return coll::ring_allreduce(cluster, coll::world_group(topo), data,
                                  s.elems, s.wire, 0.0);
    case 1: {
      coll::TreeOptions tree;
      tree.wire = s.wire;
      return coll::tree_allreduce(cluster, coll::world_group(topo), data,
                                  s.elems, tree, 0.0);
    }
    default:
      return coll::hier_allreduce(cluster, data, s.elems, s.wire, 0.0).total;
  }
}

uint64_t sample_seed(uint64_t seed, uint64_t i) {
  return seed ^ (i * 0x9e3779b97f4a7c15ull);
}

TEST(WireFuzz, QuantizedEngineMatchesLegacyBitwise) {
  // The pinned corpus — random shapes x {fp16, int8} x {ring, tree, hier}
  // on Gaussian inputs — checked against golden rows recorded from the
  // per-hop reference loops: buffers bitwise, clocks exact.  Gaussian
  // sums round, so these rows catch a codec applied at the wrong hop,
  // which the exact-sum oracle below cannot see.
  constexpr uint64_t kSeed = 20260807;
  constexpr uint64_t kSamples = 60;
  std::mt19937_64 rng(kSeed);
  for (uint64_t i = 0; i < kSamples; ++i) {
    const FuzzSample s =
        draw_sample(rng, {WireDtype::kFp16, WireDtype::kInt8});
    SCOPED_TRACE("sample=" + std::to_string(i) + " " + s.describe());
    const Topology topo = fabric(s.nodes, s.gpus);
    std::vector<Tensor> buffers =
        random_buffers(topo.world_size(), s.elems, sample_seed(kSeed, i));
    Cluster cluster(topo);
    const double t = run_sample(s, cluster, spans_of(buffers));
    Cluster timing(topo);
    const double t_timing = run_sample(s, timing, {});
    golden::expect_golden({"wire_fuzz/" + std::to_string(i),
                           golden::digest(buffers), {t}, t_timing, 0.0, 0, 0});
  }
}

TEST(WireFuzz, IntegerInputsReduceExactlyOnEveryWire) {
  // Open-ended fuzz against an independent oracle.  Integer inputs with
  // world * max|x| <= 127 keep every partial sum an integer of magnitude
  // <= 127, which fp32, fp16 and int8 all carry exactly (the int8 scale is
  // a power of two <= 1 below 128).  So every rank must hold the exact
  // integer sum bitwise, and the functional replay must match the
  // timing-only clock.
  const uint64_t seed = env_u64("HITOPK_WIRE_FUZZ_SEED", 20260807);
  const uint64_t samples = env_u64("HITOPK_WIRE_FUZZ_SAMPLES", 60);
  std::mt19937_64 rng(seed);
  for (uint64_t i = 0; i < samples; ++i) {
    const FuzzSample s = draw_sample(
        rng, {WireDtype::kFp32, WireDtype::kFp16, WireDtype::kInt8});
    SCOPED_TRACE("seed=" + std::to_string(seed) + " sample=" +
                 std::to_string(i) + " " + s.describe());
    const Topology topo = fabric(s.nodes, s.gpus);
    const int world = topo.world_size();
    std::vector<Tensor> buffers = integer_buffers(
        world, s.elems, sample_seed(seed, i), /*bound=*/127 / world);
    Tensor expected(s.elems);
    for (size_t e = 0; e < s.elems; ++e) {
      int sum = 0;
      for (const Tensor& b : buffers) sum += static_cast<int>(b[e]);
      expected[e] = static_cast<float>(sum);
    }
    Cluster cluster(topo);
    const double t = run_sample(s, cluster, spans_of(buffers));
    Cluster timing(topo);
    EXPECT_EQ(t, run_sample(s, timing, {}));
    for (int r = 0; r < world; ++r) {
      ASSERT_EQ(std::memcmp(buffers[static_cast<size_t>(r)].data(),
                            expected.data(), s.elems * sizeof(float)),
                0)
          << "rank " << r << " differs from the exact sum";
    }
  }
}

}  // namespace
}  // namespace hitopk
