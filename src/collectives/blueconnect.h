// BlueConnect-style multi-ring decomposition All-Reduce (Cho et al. 2019).
//
// Factor the P-rank world into nested ring stages along the node/NIC
// hierarchy: P = f_0 * f_1 * ... * f_{S-1} with rank mixed-radix decomposed
// as rank = d_0 + f_0 * (d_1 + f_1 * (d_2 + ...)).  Stage s runs P / f_s
// concurrent rings of size f_s among ranks that differ only in digit d_s.
// Reduce-Scatter descends the stages — each stage splits the range owned
// after the previous stage into f_s chunks, so stage s moves only
// 1/(f_0...f_{s-1}) of the gradient — then All-Gather ascends them in
// reverse.  Compared to the flat P-rank ring this (a) keeps the bulk of the
// bytes on the fast intra-node stage, (b) opens f_0 concurrent inter-node
// flows per node (NIC aggregation, like 2DTAR), and (c) pushes f_0-fold
// fewer bytes through the fabric core — the property that wins on
// oversubscribed fat trees (Topology::oversubscription).
//
// The whole collective is a single transfer schedule built from ring.h's
// range-aware builders.  With factors = {P} the recorded schedule is
// identical to ring_allreduce's (pinned by schedule_equivalence_test),
// which ties it to the ring's golden rows.
#pragma once

#include "collectives/common.h"
#include "collectives/schedule.h"

namespace hitopk::coll {

struct BlueConnectOptions {
  // Ring sizes from the fastest-varying digit outward; the product must
  // equal the world size.  Empty = derive from the (uniform) topology:
  // {gpus_per_node, nodes}, degenerating to a single stage when either
  // dimension is 1.  Extra inter-node factors ({n, m1, m2} with
  // m = m1 * m2) express rack/pod hierarchies inside the fat tree.
  std::vector<int> factors;
  WireDtype wire = WireDtype::kFp32;
};

struct BlueConnectBreakdown {
  double total = 0.0;
  double reduce_scatter = 0.0;  // all descending stages
  double allgather = 0.0;       // all ascending stages
  size_t stages = 0;
};

// Records the complete BlueConnect schedule (descending Reduce-Scatter
// stages, then ascending All-Gather stages, with a collapse sync between
// consecutive stages) into `sched` and returns the stage count S; replaying
// it, sync_times[S-1] is the RS/AG midpoint.  Throws ConfigError when the
// factors do not multiply to the world size (or auto-factorization meets an
// uneven topology).  Exposed so the elastic layer can rebuild the schedule
// for a surviving world after a preemption.
size_t build_blueconnect(Schedule& sched, const simnet::Topology& topo,
                         const RankData& data, size_t elems,
                         const BlueConnectOptions& options);

// In-place All-Reduce over the whole cluster.  Functional mode: every
// data[rank] (full `elems` floats) ends up holding the global sum (the
// stage-wise float-add order: intra-stage ring order first, outer stages
// over partial node sums).  Timing-only mode: data empty.
BlueConnectBreakdown blueconnect_allreduce(simnet::Cluster& cluster,
                                           const RankData& data, size_t elems,
                                           const BlueConnectOptions& options,
                                           double start);

}  // namespace hitopk::coll
