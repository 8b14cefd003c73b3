// ScheduleValidator coverage: every invariant class rejects a hand-built
// broken record with the recoverable ConfigError, and every schedule the
// repo's builders produce passes — including with the all-reduce full-
// coverage contract enabled.  The broken views are assembled directly from
// Send/Move structs because the Schedule recording API refuses to produce
// most of these states itself; that is exactly why the validator runs on a
// ScheduleView.
#include <gtest/gtest.h>

#include <vector>

#include "collectives/blueconnect.h"
#include "collectives/halving_doubling.h"
#include "collectives/hier_allreduce.h"
#include "collectives/ring.h"
#include "collectives/torus2d.h"
#include "collectives/tree_allreduce.h"
#include "collectives/validator.h"
#include "core/check.h"
#include "core/tensor.h"

namespace hitopk::coll {
namespace {

using simnet::Cluster;
using simnet::LinkParams;
using simnet::Topology;

Topology fabric(int nodes, int gpus) {
  return Topology(nodes, gpus, LinkParams{1e-6, 1e-9}, LinkParams{1e-5, 1e-8});
}

using Send = Schedule::Send;
using Move = Schedule::Move;
using Sync = Schedule::Sync;

// A view owning its primitive storage, for hand-assembled records.
struct OwnedView {
  std::vector<Send> sends;
  std::vector<Move> moves;
  std::vector<Sync> syncs;
  std::vector<Tensor> storage;
  std::vector<RankSpan> buffers;
  std::vector<WireDtype> wires;  // leave empty for all-fp32
  uint32_t num_slots = 0;

  uint32_t add_buffer(size_t elems, WireDtype wire = WireDtype::kFp32) {
    storage.reserve(16);  // keep spans stable across additions
    HITOPK_CHECK_LT(storage.size(), 16u);
    storage.emplace_back(elems);
    buffers.push_back(storage.back().span());
    if (wire != WireDtype::kFp32 || !wires.empty()) {
      wires.resize(buffers.size(), WireDtype::kFp32);
      wires.back() = wire;
    }
    return static_cast<uint32_t>(buffers.size() - 1);
  }
  ScheduleView view() const {
    return ScheduleView{sends, moves, syncs, buffers, wires, num_slots};
  }
};

void expect_rejected(const OwnedView& owned, ValidatorOptions options = {}) {
  EXPECT_THROW(ScheduleValidator(std::move(options)).validate(owned.view()),
               ConfigError);
}

// ------------------------------------------------------ send invariants

TEST(ValidatorSends, NonMonotoneStepRejected) {
  OwnedView v;
  v.num_slots = 2;
  v.sends.push_back({1, 0, 1, 0, 1, 64, 0.0});
  v.sends.push_back({0, 1, 0, 1, 0, 64, 0.0});  // steps back
  expect_rejected(v);
}

TEST(ValidatorSends, RankOutsideWorldRejected) {
  OwnedView v;
  v.num_slots = 2;
  v.sends.push_back({0, 0, 7, 0, 1, 64, 0.0});  // dst 7 of world 4
  ValidatorOptions opts;
  opts.world_size = 4;
  expect_rejected(v, opts);
}

TEST(ValidatorSends, SelfLoopRejected) {
  OwnedView v;
  v.num_slots = 1;
  v.sends.push_back({0, 3, 3, 0, 0, 64, 0.0});
  expect_rejected(v);
}

TEST(ValidatorSends, SlotOutOfRangeRejected) {
  OwnedView v;
  v.num_slots = 2;
  v.sends.push_back({0, 0, 1, 0, 2, 64, 0.0});  // dst slot 2 of 2
  expect_rejected(v);
}

// ------------------------------------------------------ move invariants

TEST(ValidatorMoves, BufferIdOutOfRangeRejected) {
  OwnedView v;
  v.add_buffer(8);
  v.moves.push_back({0, TransferOp::kCopy, 0, 1, 1, 0, 4});  // buffer 1 of 1
  expect_rejected(v);
}

TEST(ValidatorMoves, RangeOutsideBufferRejected) {
  OwnedView v;
  const uint32_t a = v.add_buffer(8);
  const uint32_t b = v.add_buffer(8);
  v.moves.push_back({0, TransferOp::kCopy, a, b, b, 6, 4});  // [6, 10) of 8
  expect_rejected(v);
}

TEST(ValidatorMoves, ZeroCountRejected) {
  OwnedView v;
  const uint32_t a = v.add_buffer(8);
  const uint32_t b = v.add_buffer(8);
  v.moves.push_back({0, TransferOp::kCopy, a, b, b, 0, 0});
  expect_rejected(v);
}

TEST(ValidatorMoves, NonMonotoneStepRejected) {
  OwnedView v;
  const uint32_t a = v.add_buffer(8);
  const uint32_t b = v.add_buffer(8);
  v.moves.push_back({2, TransferOp::kCopy, a, b, b, 0, 4});
  v.moves.push_back({1, TransferOp::kCopy, b, a, a, 0, 4});  // steps back
  expect_rejected(v);
}

TEST(ValidatorSyncs, NonMonotoneStepRejected) {
  OwnedView v;
  v.syncs.push_back({3, true});
  v.syncs.push_back({1, false});
  expect_rejected(v);
}

// ------------------------------------------------------ race invariants

TEST(ValidatorRaces, OverlappingCrossBucketWritesRejected) {
  OwnedView v;
  const uint32_t a = v.add_buffer(8);
  const uint32_t b = v.add_buffer(8);
  const uint32_t c = v.add_buffer(8);
  // Buckets a and b both write c[2, 6) in the same step.
  v.moves.push_back({0, TransferOp::kCopy, a, c, a, 2, 4});
  v.moves.push_back({0, TransferOp::kCopy, b, c, b, 2, 4});
  expect_rejected(v);

  // The identical moves one step apart are fine (last writer wins, in
  // order).
  v.moves[1].step = 1;
  EXPECT_NO_THROW(ScheduleValidator().validate(v.view()));
}

TEST(ValidatorRaces, SameBucketOverlappingWritesAllowed) {
  // One bucket runs serially in record order: overlap is ordered, not racy.
  OwnedView v;
  const uint32_t a = v.add_buffer(8);
  const uint32_t b = v.add_buffer(8);
  v.moves.push_back({0, TransferOp::kCopy, a, b, b, 0, 6});
  v.moves.push_back({0, TransferOp::kReduce, a, b, b, 2, 6});
  EXPECT_NO_THROW(ScheduleValidator().validate(v.view()));
}

TEST(ValidatorRaces, CrossBucketReadOfConcurrentWriteRejected) {
  OwnedView v;
  const uint32_t a = v.add_buffer(8);
  const uint32_t b = v.add_buffer(8);
  const uint32_t c = v.add_buffer(8);
  // Bucket b writes b[0, 4); bucket c concurrently reads b[2, 6).
  v.moves.push_back({0, TransferOp::kCopy, a, b, b, 0, 4});
  v.moves.push_back({0, TransferOp::kCopy, b, c, c, 2, 4});
  expect_rejected(v);
}

// ------------------------------------------------------ chain invariants

TEST(ValidatorChains, MidWithoutFirstRejected) {
  OwnedView v;
  const uint32_t a = v.add_buffer(8);
  const uint32_t b = v.add_buffer(8);
  v.moves.push_back({0, TransferOp::kChainMid, a, b, b, 0, 4});
  expect_rejected(v);
}

TEST(ValidatorChains, LeftOpenAtStepEndRejected) {
  OwnedView v;
  const uint32_t a = v.add_buffer(8);
  const uint32_t b = v.add_buffer(8);
  v.moves.push_back({0, TransferOp::kChainFirst, a, b, b, 0, 4});
  v.moves.push_back({0, TransferOp::kChainMid, a, b, b, 0, 4});
  // No kChainLast: the thread-local accumulator would be dropped.
  expect_rejected(v);
}

TEST(ValidatorChains, RangeDisagreementRejected) {
  OwnedView v;
  const uint32_t a = v.add_buffer(8);
  const uint32_t b = v.add_buffer(8);
  v.moves.push_back({0, TransferOp::kChainFirst, a, b, b, 0, 4});
  v.moves.push_back({0, TransferOp::kChainLast, a, b, b, 2, 4});  // shifted
  expect_rejected(v);
}

TEST(ValidatorChains, InterleavedPlainMoveRejected) {
  OwnedView v;
  const uint32_t a = v.add_buffer(8);
  const uint32_t b = v.add_buffer(8);
  v.moves.push_back({0, TransferOp::kChainFirst, a, b, b, 0, 4});
  v.moves.push_back({0, TransferOp::kReduce, a, b, b, 0, 4});  // mid-chain
  v.moves.push_back({0, TransferOp::kChainLast, a, b, b, 0, 4});
  expect_rejected(v);
}

TEST(ValidatorChains, WellFormedChainAccepted) {
  OwnedView v;
  const uint32_t a = v.add_buffer(8);
  const uint32_t b = v.add_buffer(8);
  const uint32_t c = v.add_buffer(8);
  v.moves.push_back({0, TransferOp::kChainFirst, a, c, c, 0, 4});
  v.moves.push_back({0, TransferOp::kChainMid, b, c, c, 0, 4});
  v.moves.push_back({0, TransferOp::kChainLast, a, c, c, 0, 4});
  EXPECT_NO_THROW(ScheduleValidator().validate(v.view()));
}

// ---------------------------------------------------- dtype invariants

TEST(ValidatorDtypes, WireCountMismatchRejected) {
  OwnedView v;
  v.add_buffer(8, WireDtype::kFp16);
  v.add_buffer(8);
  v.wires.pop_back();  // one dtype for two buffers
  expect_rejected(v);
}

TEST(ValidatorDtypes, MixedWireMoveRejected) {
  OwnedView v;
  const uint32_t a = v.add_buffer(8, WireDtype::kFp16);
  const uint32_t b = v.add_buffer(8);  // fp32
  v.moves.push_back({0, TransferOp::kCopy, a, b, b, 0, 4});
  expect_rejected(v);

  // The same move between same-dtype buffers is fine.
  OwnedView ok;
  const uint32_t c = ok.add_buffer(8, WireDtype::kFp16);
  const uint32_t d = ok.add_buffer(8, WireDtype::kFp16);
  ok.moves.push_back({0, TransferOp::kCopy, c, d, d, 0, 4});
  EXPECT_NO_THROW(ScheduleValidator().validate(ok.view()));
}

TEST(ValidatorDtypes, ChainWireFlipRejected) {
  // A reduction chain shares one accumulator; a link landing in a buffer of
  // a different wire dtype than the chain head would re-encode the partial
  // sum on a different grid mid-chain.
  OwnedView v;
  const uint32_t a = v.add_buffer(8, WireDtype::kInt8);
  const uint32_t b = v.add_buffer(8, WireDtype::kInt8);
  const uint32_t c = v.add_buffer(8, WireDtype::kInt8);
  v.moves.push_back({0, TransferOp::kChainFirst, a, b, b, 0, 4});
  v.moves.push_back({0, TransferOp::kChainLast, c, b, b, 0, 4});
  EXPECT_NO_THROW(ScheduleValidator().validate(v.view()));  // one dtype: fine

  OwnedView flip;
  const uint32_t d = flip.add_buffer(8, WireDtype::kInt8);
  const uint32_t e = flip.add_buffer(8, WireDtype::kInt8);
  const uint32_t f = flip.add_buffer(8, WireDtype::kFp16);
  const uint32_t g = flip.add_buffer(8, WireDtype::kFp16);
  flip.moves.push_back({0, TransferOp::kChainFirst, d, e, e, 0, 4});
  // Same-dtype endpoints (fp16 -> fp16), so only the chain rule can object:
  // the link's accumulator dtype flips away from the int8 chain head.
  flip.moves.push_back({0, TransferOp::kChainLast, g, f, e, 0, 4});
  expect_rejected(flip);
}

// --------------------------------------------------- coverage invariant

TEST(ValidatorCoverage, GapRejectedOnlyWhenRequired) {
  OwnedView v;
  const uint32_t a = v.add_buffer(8);
  const uint32_t b = v.add_buffer(8);
  // b[0, 3) and b[5, 8) written; [3, 5) never is.  a is never written at
  // all.
  v.moves.push_back({0, TransferOp::kCopy, a, b, b, 0, 3});
  v.moves.push_back({1, TransferOp::kCopy, a, b, b, 5, 3});
  EXPECT_NO_THROW(ScheduleValidator().validate(v.view()));
  ValidatorOptions opts;
  opts.require_full_coverage = true;
  expect_rejected(v, opts);
}

TEST(ValidatorCoverage, AliasedRegistrationsCountOnce) {
  // BlueConnect-style: the same span registered as several buffer ids.
  // Writing it through one id covers every alias.
  OwnedView v;
  const uint32_t a = v.add_buffer(8);
  const uint32_t b = v.add_buffer(8);
  v.buffers.push_back(v.buffers[b]);  // alias of b
  v.moves.push_back({0, TransferOp::kCopy, a, b, b, 0, 8});
  v.moves.push_back({1, TransferOp::kCopy, b, a, a, 0, 8});
  ValidatorOptions opts;
  opts.require_full_coverage = true;
  EXPECT_NO_THROW(ScheduleValidator(opts).validate(v.view()));
}

// ----------------------------------------- every real builder validates

std::vector<Tensor> buffers_of(int world, size_t elems) {
  std::vector<Tensor> buffers;
  for (int r = 0; r < world; ++r) {
    Tensor t(elems);
    for (size_t i = 0; i < elems; ++i) {
      t.span()[i] = static_cast<float>((r * 31 + static_cast<int>(i)) % 17);
    }
    buffers.push_back(std::move(t));
  }
  return buffers;
}

RankData spans_of(std::vector<Tensor>& buffers) {
  RankData spans;
  for (auto& b : buffers) spans.push_back(b.span());
  return spans;
}

void expect_valid(const Schedule& sched, const Topology& topo,
                  bool full_coverage) {
  ValidatorOptions opts;
  opts.world_size = topo.world_size();
  opts.require_full_coverage = full_coverage;
  EXPECT_NO_THROW(ScheduleValidator(std::move(opts)).validate(sched));
}

class BuilderValidationTest
    : public ::testing::TestWithParam<std::tuple<int, int, size_t>> {};

TEST_P(BuilderValidationTest, AllBuildersPass) {
  const auto [m, n, elems] = GetParam();
  const Topology topo = fabric(m, n);
  const Group world = world_group(topo);
  std::vector<Tensor> buffers = buffers_of(topo.world_size(), elems);
  const RankData data = spans_of(buffers);

  {  // flat ring All-Reduce (the planner's baseline candidate)
    Schedule sched;
    std::vector<Group> groups{world};
    std::vector<RankData> group_data{data};
    const RingGrid grid = ring_grid(sched, groups, group_data);
    build_ring_reduce_scatter(sched, groups, grid, elems, WireDtype::kFp32,
                              /*fused_chains=*/true);
    sched.sync(/*collapse=*/true);
    build_ring_allgather(sched, groups, grid, elems, WireDtype::kFp32);
    // A single-rank "All-Reduce" records no moves, so its buffer is
    // legitimately never written; coverage only binds real exchanges.
    expect_valid(sched, topo, /*full_coverage=*/topo.world_size() > 1);
  }
  {  // standalone RS leg: legitimately covers only the owner chunks
    Schedule sched;
    std::vector<Group> groups{world};
    std::vector<RankData> group_data{data};
    const RingGrid grid = ring_grid(sched, groups, group_data);
    build_ring_reduce_scatter(sched, groups, grid, elems, WireDtype::kFp32);
    expect_valid(sched, topo, /*full_coverage=*/false);
  }
  {  // halving-doubling (including fold/unfold worlds)
    Schedule sched;
    build_halving_doubling(sched, world, data, elems, WireDtype::kFp32);
    expect_valid(sched, topo, /*full_coverage=*/topo.world_size() > 1);
  }
  if (topo.world_size() > 1) {  // double binary tree
    Schedule sched;
    TreeOptions tree;
    tree.chunk_bytes = 64;  // force multi-chunk pipelining
    build_tree_allreduce(sched, topo, data, elems, tree);
    expect_valid(sched, topo, /*full_coverage=*/true);
  }
  if (topo.nodes() > 1) {  // hierarchical leader All-Reduce
    Schedule sched;
    build_hier_allreduce(sched, topo, data, elems, WireDtype::kFp32);
    expect_valid(sched, topo, /*full_coverage=*/true);
  }
  if (topo.nodes() > 1 && topo.gpus_per_node() > 1) {  // 2D torus
    Schedule sched;
    build_torus2d(sched, topo, data, elems, WireDtype::kFp32);
    expect_valid(sched, topo, /*full_coverage=*/true);
  }
  if (topo.world_size() > 1) {  // BlueConnect auto factorization
    Schedule sched;
    BlueConnectOptions bc;
    build_blueconnect(sched, topo, data, elems, bc);
    expect_valid(sched, topo, /*full_coverage=*/true);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BuilderValidationTest,
    ::testing::Values(std::tuple<int, int, size_t>{1, 1, 16},
                      std::tuple<int, int, size_t>{1, 4, 64},
                      std::tuple<int, int, size_t>{2, 2, 37},
                      std::tuple<int, int, size_t>{3, 2, 96},
                      std::tuple<int, int, size_t>{2, 3, 41},
                      std::tuple<int, int, size_t>{4, 4, 256},
                      std::tuple<int, int, size_t>{5, 3, 128}));

TEST(BuilderValidation, UnevenTopologyHierAndHd) {
  const Topology topo(std::vector<int>{3, 1, 2}, LinkParams{1e-6, 1e-9},
                      LinkParams{1e-5, 1e-8});
  const size_t elems = 50;
  std::vector<Tensor> buffers = buffers_of(topo.world_size(), elems);
  const RankData data = spans_of(buffers);
  {
    Schedule sched;
    build_hier_allreduce(sched, topo, data, elems, WireDtype::kFp32);
    expect_valid(sched, topo, /*full_coverage=*/true);
  }
  {
    Schedule sched;
    build_halving_doubling(sched, world_group(topo), data, elems, WireDtype::kFp32);
    expect_valid(sched, topo, /*full_coverage=*/true);
  }
}

TEST(BuilderValidation, QuantizedBuildersPass) {
  // Every builder's quantized schedule satisfies the dtype rules it is
  // validated against — the engine records one wire per buffer end to end.
  const Topology topo = fabric(3, 2);
  const Group world = world_group(topo);
  const size_t elems = 96;
  std::vector<Tensor> buffers = buffers_of(topo.world_size(), elems);
  const RankData data = spans_of(buffers);
  for (const WireDtype wire : {WireDtype::kFp16, WireDtype::kInt8}) {
    {
      Schedule sched;
      std::vector<Group> groups{world};
      std::vector<RankData> group_data{data};
      const RingGrid grid = ring_grid(sched, groups, group_data, wire);
      build_ring_reduce_scatter(sched, groups, grid, elems, wire,
                                /*fused_chains=*/true);
      sched.sync(/*collapse=*/true);
      build_ring_allgather(sched, groups, grid, elems, wire);
      expect_valid(sched, topo, /*full_coverage=*/true);
    }
    {
      Schedule sched;
      build_hier_allreduce(sched, topo, data, elems, wire);
      expect_valid(sched, topo, /*full_coverage=*/true);
    }
    {
      Schedule sched;
      build_halving_doubling(sched, world, data, elems, wire);
      expect_valid(sched, topo, /*full_coverage=*/true);
    }
  }
}

}  // namespace
}  // namespace hitopk::coll
