// 2D-Torus All-Reduce ("2DTAR", Mikami et al. 2018; Cho et al. 2019).
//
// The hierarchical dense baseline the paper implements inside CommLib
// (§5.3): exploit the bandwidth imbalance by keeping the big flows on
// NVLink and sending only 1/n of the data per GPU across the slow NIC.
//   1. intra-node ring Reduce-Scatter   (each GPU owns a d/n shard summed
//      over its node),
//   2. inter-node ring All-Reduce of each shard across nodes — n concurrent
//      rings, one per local rank, sharing each node's NIC,
//   3. intra-node ring All-Gather to rebuild the full buffer everywhere.
#pragma once

#include "collectives/common.h"
#include "collectives/schedule.h"

namespace hitopk::coll {

struct Torus2dBreakdown {
  double reduce_scatter = 0.0;
  double inter_allreduce = 0.0;
  double intra_allgather = 0.0;
  double total = 0.0;
};

// In-place 2D-torus All-Reduce over the whole cluster: runs build_torus2d's
// schedule, and the breakdown is read off its two phase-boundary syncs.
// data (when functional) holds one full-size buffer per world rank, in rank
// order.  Requires a uniform topology.
Torus2dBreakdown torus2d_allreduce(simnet::Cluster& cluster,
                                   const RankData& data, size_t elems,
                                   WireDtype wire, double start);

// Records the whole collective into a caller-owned schedule, with collapse
// syncs at the two phase boundaries.  Phase 2 uses per-stream extents over
// the full rank buffers, so ragged shards (n does not divide elems) run at
// their exact per-stream sizes inside the one schedule, in both timing-only
// and functional mode.  Requires a uniform topology.  The planner
// (collectives/planner.h) times this same schedule.
void build_torus2d(Schedule& sched, const simnet::Topology& topo,
                   const RankData& data, size_t elems, WireDtype wire);

}  // namespace hitopk::coll
