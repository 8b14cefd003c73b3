// Tests for the cluster timing engine: topology mapping, alpha-beta link
// costs, port serialization, and the shared-NIC contention model.
#include <gtest/gtest.h>

#include <vector>

#include "core/check.h"
#include "simnet/cluster.h"
#include "simnet/topology.h"

namespace hitopk::simnet {
namespace {

Topology tiny() {
  // 2 nodes x 2 GPUs, round numbers for hand-checkable costs:
  // intra 1 GB/s / 1 us, inter 0.1 GB/s / 10 us.
  return Topology(2, 2, LinkParams{1e-6, 1e-9}, LinkParams{1e-5, 1e-8});
}

// ------------------------------------------------------------ topology
TEST(Topology, RankMapping) {
  Topology t = tiny();
  EXPECT_EQ(t.world_size(), 4);
  EXPECT_EQ(t.node_of(0), 0);
  EXPECT_EQ(t.node_of(3), 1);
  EXPECT_EQ(t.local_rank(3), 1);
  EXPECT_EQ(t.rank_of(1, 0), 2);
  EXPECT_TRUE(t.same_node(0, 1));
  EXPECT_FALSE(t.same_node(1, 2));
}

TEST(Topology, LinkSelection) {
  Topology t = tiny();
  EXPECT_DOUBLE_EQ(t.link_between(0, 1).beta, 1e-9);
  EXPECT_DOUBLE_EQ(t.link_between(0, 2).beta, 1e-8);
}

TEST(Topology, TransferSeconds) {
  LinkParams link{2e-6, 1e-9};
  EXPECT_DOUBLE_EQ(link.transfer_seconds(1000), 2e-6 + 1e-6);
}

TEST(Topology, OutOfRangeRankThrows) {
  Topology t = tiny();
  EXPECT_THROW(t.node_of(4), CheckError);
  EXPECT_THROW(t.rank_of(2, 0), CheckError);
  EXPECT_THROW(t.rank_of(0, 2), CheckError);
}

TEST(Topology, PresetsOrderedByInterBandwidth) {
  // NIC aggregate capacity: 100G IB > 32GbE (Aliyun) > 25GbE (Tencent);
  // per-flow TCP rate is the same on both Ethernet clouds, and InfiniBand
  // flows reach line rate.
  auto tencent = Topology::tencent_cloud();
  auto aliyun = Topology::aliyun();
  auto ib = Topology::infiniband_100g();
  EXPECT_GT(tencent.nic_beta(), aliyun.nic_beta());
  EXPECT_GT(aliyun.nic_beta(), ib.nic_beta());
  EXPECT_EQ(tencent.inter().beta, aliyun.inter().beta);
  EXPECT_GT(tencent.inter().beta, ib.inter().beta);
  EXPECT_LT(tencent.intra().beta, tencent.inter().beta);
  EXPECT_EQ(tencent.world_size(), 128);
}

TEST(Topology, DescribeMentionsShape) {
  const std::string s = Topology::tencent_cloud().describe();
  EXPECT_NE(s.find("16 nodes"), std::string::npos);
  EXPECT_NE(s.find("8 GPUs"), std::string::npos);
}

// ------------------------------------------------ uneven gpus-per-node
TEST(Topology, UnevenRankMapping) {
  const Topology t(std::vector<int>{3, 1, 2}, LinkParams{1e-6, 1e-9},
                   LinkParams{1e-5, 1e-8});
  EXPECT_EQ(t.world_size(), 6);
  EXPECT_EQ(t.nodes(), 3);
  EXPECT_FALSE(t.uniform());
  EXPECT_EQ(t.gpus_on_node(0), 3);
  EXPECT_EQ(t.gpus_on_node(1), 1);
  EXPECT_EQ(t.gpus_on_node(2), 2);
  EXPECT_EQ(t.max_gpus_per_node(), 3);
  // Ranks 0-2 on node 0, rank 3 on node 1, ranks 4-5 on node 2.
  EXPECT_EQ(t.node_of(2), 0);
  EXPECT_EQ(t.node_of(3), 1);
  EXPECT_EQ(t.node_of(4), 2);
  EXPECT_EQ(t.local_rank(5), 1);
  EXPECT_EQ(t.rank_of(2, 1), 5);
  EXPECT_TRUE(t.same_node(4, 5));
  EXPECT_FALSE(t.same_node(2, 3));
  // The uniform accessor must fail loudly instead of mis-mapping ranks.
  EXPECT_THROW(t.gpus_per_node(), CheckError);
  EXPECT_THROW(t.rank_of(1, 1), CheckError);  // node 1 has a single GPU
  const std::string s = t.describe();
  EXPECT_NE(s.find("{3,1,2}"), std::string::npos);
}

TEST(Topology, UniformVectorCollapsesToUniform) {
  const Topology t(std::vector<int>{2, 2}, LinkParams{1e-6, 1e-9},
                   LinkParams{1e-5, 1e-8});
  EXPECT_TRUE(t.uniform());
  EXPECT_EQ(t.gpus_per_node(), 2);
}

TEST(Topology, FingerprintCoversEveryTimingParameter) {
  // The planner cache keys on the fingerprint: equal fingerprints must mean
  // "any schedule replays to the same clock", so every parameter the timing
  // model reads has to move the hash.
  const Topology base = tiny();
  EXPECT_EQ(base.fingerprint(), tiny().fingerprint());

  const LinkParams intra{1e-6, 1e-9};
  const LinkParams inter{1e-5, 1e-8};
  EXPECT_NE(base.fingerprint(),
            Topology(2, 2, LinkParams{2e-6, 1e-9}, inter).fingerprint());
  EXPECT_NE(base.fingerprint(),
            Topology(2, 2, intra, LinkParams{1e-5, 2e-8}).fingerprint());
  // Same world size, different node shape.
  EXPECT_NE(base.fingerprint(), Topology(4, 1, intra, inter).fingerprint());
  EXPECT_NE(base.fingerprint(),
            Topology(std::vector<int>{3, 1}, intra, inter).fingerprint());
  // NIC capacity, fat-tree oversubscription, pod tiling.
  EXPECT_NE(base.fingerprint(),
            Topology(2, 2, intra, inter, 0.5e-8).fingerprint());
  EXPECT_NE(base.fingerprint(),
            Topology(2, 2, intra, inter, 0.0, 2.0).fingerprint());
  EXPECT_NE(base.fingerprint(),
            Topology(2, 2, intra, inter, 0.0, 1.0, 1).fingerprint());
  // The nic_beta <= 0 default resolves to the per-flow rate before hashing.
  EXPECT_EQ(base.fingerprint(),
            Topology(2, 2, intra, inter, 1e-8).fingerprint());
}

TEST(Cluster, UnevenNodesShareTheirOwnNic) {
  // Node 0 has two GPUs whose inter-node flows share node 0's NIC; the
  // single-GPU node 1 is unaffected.
  const Topology t(std::vector<int>{2, 1, 1}, LinkParams{0.0, 1e-9},
                   LinkParams{0.0, 1e-8});
  Cluster c(t);
  const double a = c.submit({.src = 0, .dst = 2, .bytes = 1000}).time;
  const double b = c.submit({.src = 1, .dst = 3, .bytes = 1000}).time;
  EXPECT_DOUBLE_EQ(a, 1e-5);
  EXPECT_DOUBLE_EQ(b, 2e-5);  // serialized behind a on node 0's NIC
}

// ------------------------------------------------ fat-tree oversubscription
TEST(Cluster, SingleLayerCoreCapsAggregateInterNodeRate) {
  // 4 nodes, nic == per-flow rate, core oversubscribed 2:1: the core's
  // aggregate capacity is 4 * nic / 2 = 2 flows' worth, so four concurrent
  // single-hop flows from distinct nodes stagger in pairs.
  const Topology t(4, 2, LinkParams{0.0, 1e-9}, LinkParams{0.0, 1e-8},
                   /*nic_beta=*/1e-8, /*oversubscription=*/2.0);
  Cluster c(t);
  const size_t bytes = 1'000'000;
  // Distinct (src node, dst node) pairs: no NIC is shared.
  // node 0 -> 1, then node 2 -> 3.
  const double f1 = c.submit({.src = 0, .dst = 2, .bytes = bytes}).time;
  const double f2 = c.submit({.src = 4, .dst = 6, .bytes = bytes}).time;
  // Per-flow time 10 ms; core service per flow = bytes * nic*2/4 = 5 ms.
  EXPECT_DOUBLE_EQ(f1, 1e-2);
  EXPECT_DOUBLE_EQ(f2, 5e-3 + 1e-2);
}

TEST(Cluster, NonBlockingFabricIgnoresOversubscriptionKnob) {
  // f == 1 must leave timings bit-for-bit identical to the plain topology.
  const Topology plain(4, 2, LinkParams{0.0, 1e-9}, LinkParams{0.0, 1e-8});
  const Topology f1(4, 2, LinkParams{0.0, 1e-9}, LinkParams{0.0, 1e-8}, 0.0,
                    1.0, /*nodes_per_pod=*/2);
  Cluster a(plain), b(f1);
  for (int g = 0; g < 4; ++g) {
    const Flow flow{.src = g, .dst = 7 - g, .bytes = 12345};
    EXPECT_DOUBLE_EQ(a.submit(flow).time, b.submit(flow).time);
  }
}

TEST(Cluster, PodUplinksConstrainOnlyCrossPodFlows) {
  // 4 nodes in pods of 2, uplink oversubscribed 4:1 (uplink capacity =
  // 2 * nic / 4 = nic / 2).  Intra-pod inter-node flows never touch the
  // uplink; cross-pod flows serialize through it at half NIC rate.
  const Topology t(4, 1, LinkParams{0.0, 1e-9}, LinkParams{0.0, 1e-8},
                   /*nic_beta=*/1e-8, /*oversubscription=*/4.0,
                   /*nodes_per_pod=*/2);
  EXPECT_EQ(t.pods(), 2);
  EXPECT_EQ(t.pod_of(1), 0);
  EXPECT_EQ(t.pod_of(2), 1);
  Cluster c(t);
  const size_t bytes = 1'000'000;
  // Intra-pod: nodes 0 -> 1, full per-flow rate (10 ms), uplink untouched.
  EXPECT_DOUBLE_EQ(c.submit({.src = 0, .dst = 1, .bytes = bytes}).time, 1e-2);
  c.reset();
  // Cross-pod: node 0 -> 2 then node 1 -> 3.  Distinct NICs, but both
  // occupy pod 0's uplink send port: service = bytes * nic * 4 / 2 = 20 ms.
  const double x1 = c.submit({.src = 0, .dst = 2, .bytes = bytes}).time;
  const double x2 = c.submit({.src = 1, .dst = 3, .bytes = bytes}).time;
  EXPECT_DOUBLE_EQ(x1, 1e-2);
  EXPECT_DOUBLE_EQ(x2, 2e-2 + 1e-2);
  // An intra-pod flow inside pod 1 is still free to start at once.
  EXPECT_DOUBLE_EQ(
      c.submit({.src = 3, .dst = 2, .bytes = bytes, .ready = 1e-2}).time,
      1e-2 + 1e-2);
}

// ------------------------------------------------------------ cluster
TEST(Cluster, SingleTransferCost) {
  Cluster c(tiny());
  // Intra-node: 1000 bytes at 1 GB/s + 1 us = 2 us.
  EXPECT_DOUBLE_EQ(c.submit({.src = 0, .dst = 1, .bytes = 1000}).time, 2e-6);
  c.reset();
  // Inter-node: 1000 bytes at 0.1 GB/s + 10 us = 20 us.
  EXPECT_DOUBLE_EQ(c.submit({.src = 0, .dst = 2, .bytes = 1000}).time, 2e-5);
}

TEST(Cluster, DataReadyDelaysStart) {
  Cluster c(tiny());
  EXPECT_DOUBLE_EQ(
      c.submit({.src = 0, .dst = 1, .bytes = 1000, .ready = 5e-6}).time,
      5e-6 + 2e-6);
}

TEST(Cluster, SendPortSerializesSameSource) {
  Cluster c(tiny());
  const double first = c.submit({.src = 0, .dst = 1, .bytes = 1000}).time;
  // Second send from rank 0 must wait for the first to finish.
  const double second = c.submit({.src = 0, .dst = 1, .bytes = 1000}).time;
  EXPECT_DOUBLE_EQ(second, first + 2e-6);
}

TEST(Cluster, RecvPortSerializesSameDestination) {
  Cluster c(Topology(1, 3, LinkParams{1e-6, 1e-9}, LinkParams{1e-5, 1e-8}));
  const double first = c.submit({.src = 0, .dst = 2, .bytes = 1000}).time;
  const double second = c.submit({.src = 1, .dst = 2, .bytes = 1000}).time;
  EXPECT_DOUBLE_EQ(second, first + 2e-6);
}

TEST(Cluster, DisjointIntraNodePairsRunInParallel) {
  Cluster c(Topology(1, 4, LinkParams{1e-6, 1e-9}, LinkParams{1e-5, 1e-8}));
  const double a = c.submit({.src = 0, .dst = 1, .bytes = 1000}).time;
  const double b = c.submit({.src = 2, .dst = 3, .bytes = 1000}).time;
  // NVLink peer links are independent: both finish at the same time.
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(Cluster, SharedNicSerializesInterNodeStreams) {
  // Two GPUs of node 0 each send to their peer in node 1: both cross the
  // node-0 NIC, so the second flow starts only after the NIC has *serviced*
  // the first flow's bytes (here nic_beta == flow beta: 1000 B * 1e-8 =
  // 10 us of service), even though the first flow itself completes at 20 us.
  Cluster c(tiny());
  const double a = c.submit({.src = 0, .dst = 2, .bytes = 1000}).time;
  const double b = c.submit({.src = 1, .dst = 3, .bytes = 1000}).time;
  EXPECT_DOUBLE_EQ(a, 2e-5);
  EXPECT_DOUBLE_EQ(b, 1e-5 + 2e-5);
}

TEST(Cluster, NicCapacityAllowsFlowAggregation) {
  // With NIC capacity 4x the per-flow rate, four concurrent flows pipeline
  // through the NIC: each starts one service quantum after the previous.
  Topology topo(2, 4, LinkParams{0.0, 1e-9}, LinkParams{0.0, 1e-8},
                /*nic_beta=*/2.5e-9);
  Cluster c(topo);
  const size_t bytes = 1'000'000;
  double last = 0.0;
  for (int g = 0; g < 4; ++g) {
    last = std::max(last,
                    c.submit({.src = g, .dst = 4 + g, .bytes = bytes}).time);
  }
  // Pure serialization would take 4 * 10 ms = 40 ms; aggregation finishes
  // the last flow at 3 * 2.5 ms (service staggering) + 10 ms = 17.5 ms.
  EXPECT_NEAR(last, 3.0 * 2.5e-3 + 1e-2, 1e-9);
}

TEST(Cluster, InterNodeStreamsFromDifferentNodesDoNotContend) {
  Cluster c(Topology(3, 1, LinkParams{1e-6, 1e-9}, LinkParams{1e-5, 1e-8}));
  const double a = c.submit({.src = 0, .dst = 1, .bytes = 1000}).time;
  c.reset();
  const double b0 = c.submit({.src = 0, .dst = 1, .bytes = 1000}).time;
  // Same destination node: the receiving NIC is busy.
  const double b1 = c.submit({.src = 2, .dst = 1, .bytes = 1000}).time;
  EXPECT_DOUBLE_EQ(b0, a);
  EXPECT_GT(b1, b0);
}

TEST(Cluster, SelfSendThrows) {
  Cluster c(tiny());
  EXPECT_THROW(c.submit({.src = 1, .dst = 1, .bytes = 10}).time, CheckError);
}

TEST(Cluster, TrafficAccounting) {
  Cluster c(tiny());
  c.submit({.src = 0, .dst = 1, .bytes = 100});
  c.submit({.src = 0, .dst = 2, .bytes = 200});
  EXPECT_EQ(c.intra_node_bytes(), 100u);
  EXPECT_EQ(c.inter_node_bytes(), 200u);
  c.reset();
  EXPECT_EQ(c.intra_node_bytes(), 0u);
  EXPECT_EQ(c.quiescent_time(), 0.0);
}

TEST(Cluster, QuiescentTimeIsMaxPortTime) {
  Cluster c(tiny());
  c.submit({.src = 0, .dst = 1, .bytes = 1000});
  c.submit({.src = 0, .dst = 2, .bytes = 1000});
  EXPECT_DOUBLE_EQ(c.quiescent_time(), 2e-6 + 2e-5);
}

TEST(Cluster, ResetReplaysBitIdentically) {
  auto drive = [](Cluster& c) {
    std::vector<double> times;
    times.push_back(c.submit({.src = 0, .dst = 2, .bytes = 4096}).time);
    times.push_back(c.submit({.src = 1, .dst = 3, .bytes = 4096}).time);
    times.push_back(c.submit({.src = 0, .dst = 1, .bytes = 4096}).time);
    times.push_back(
        c.submit({.job = 2, .src = 2, .dst = 0, .bytes = 8192}).time);
    return times;
  };
  Cluster fresh(tiny()), reused(tiny());
  fresh.enable_tracing();
  reused.enable_tracing();
  drive(reused);  // dirty run
  reused.reset();
  const auto a = drive(fresh);
  const auto b = drive(reused);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  // Identical clocks, counters and traces: reset == fresh.
  EXPECT_EQ(fresh.quiescent_time(), reused.quiescent_time());
  EXPECT_EQ(fresh.inter_node_bytes(), reused.inter_node_bytes());
  EXPECT_EQ(fresh.intra_node_bytes(), reused.intra_node_bytes());
  EXPECT_EQ(fresh.traffic_jobs(), reused.traffic_jobs());
  ASSERT_EQ(fresh.trace().size(), reused.trace().size());
  for (size_t i = 0; i < fresh.trace().size(); ++i) {
    EXPECT_EQ(fresh.trace()[i].src, reused.trace()[i].src);
    EXPECT_EQ(fresh.trace()[i].dst, reused.trace()[i].dst);
    EXPECT_EQ(fresh.trace()[i].bytes, reused.trace()[i].bytes);
    EXPECT_EQ(fresh.trace()[i].start, reused.trace()[i].start);
    EXPECT_EQ(fresh.trace()[i].duration, reused.trace()[i].duration);
  }
}

TEST(Cluster, ComputeIsPureDelay) {
  EXPECT_DOUBLE_EQ(Cluster::compute(1.0, 0.25), 1.25);
}

}  // namespace
}  // namespace hitopk::simnet
