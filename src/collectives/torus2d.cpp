#include "collectives/torus2d.h"

#include <algorithm>

#include "collectives/ring.h"

namespace hitopk::coll {
namespace {

// One schedule for the whole collective: the three phases are legs of the
// same schedule separated by collapse syncs (scalar phase hand-offs), and
// the sync times are the breakdown.  Phase 2 runs n concurrent inter-node
// rings, one per local rank, on that rank's shard; with a ragged split (n
// does not divide elems) the timing-only form simulates the largest shard
// for every ring (an upper bound).  The one exception is a ragged
// functional phase 2: it runs the rings as sequential ring_allreduce calls,
// each on its exact shard, between two single-phase schedules.  That issue
// order is NIC-visible, so its clocks differ from build_torus2d's.
Torus2dBreakdown schedule_torus2d(simnet::Cluster& cluster,
                                  const RankData& data, size_t elems,
                                  WireDtype wire, double start) {
  const simnet::Topology& topo = cluster.topology();
  const int m = topo.nodes();
  const int n = topo.gpus_per_node();
  const bool functional = !data.empty();

  std::vector<Group> node_groups;
  std::vector<RankData> node_data;
  for (int node = 0; node < m; ++node) {
    node_groups.push_back(node_group(topo, node));
    if (functional) {
      RankData nd;
      for (int rank : node_groups.back()) {
        nd.push_back(data[static_cast<size_t>(rank)]);
      }
      node_data.push_back(std::move(nd));
    }
  }

  const size_t max_shard = chunk_range(elems, static_cast<size_t>(n), 0).count;
  std::vector<Group> stream_groups;
  std::vector<RankData> stream_data;
  if (max_shard > 0) {
    for (int local = 0; local < n; ++local) {
      const ChunkRange shard = chunk_range(elems, static_cast<size_t>(n),
                                           static_cast<size_t>(local));
      if (shard.count == 0) continue;
      stream_groups.push_back(cross_node_group(topo, local));
      if (functional) {
        RankData shard_data;
        for (int rank : stream_groups.back()) {
          shard_data.push_back(data[static_cast<size_t>(rank)].subspan(
              shard.begin, shard.count));
        }
        stream_data.push_back(std::move(shard_data));
      }
    }
  }
  const bool ragged_functional =
      functional && elems % static_cast<size_t>(n) != 0;

  Torus2dBreakdown out;
  if (!ragged_functional) {
    Schedule sched;
    const RingGrid node_grid = ring_grid(sched, node_groups, node_data, wire);
    build_ring_reduce_scatter(sched, node_groups, node_grid, elems, wire,
                              /*fused_chains=*/true);
    sched.sync(/*collapse=*/true);  // phase 1 done
    if (!stream_groups.empty()) {
      const RingGrid stream_grid = ring_grid(sched, stream_groups, stream_data, wire);
      build_ring_reduce_scatter(sched, stream_groups, stream_grid, max_shard,
                                wire, /*fused_chains=*/true);
      build_ring_allgather(sched, stream_groups, stream_grid, max_shard,
                           wire);
    }
    sched.sync(/*collapse=*/true);  // phase 2 done
    build_ring_allgather(sched, node_groups, node_grid, elems, wire);
    const Schedule::TimingResult timing = sched.run_timing(cluster, start);
    sched.run_data();
    const double t1 = timing.sync_times[0];
    const double t2 = timing.sync_times[1];
    out.reduce_scatter = t1 - start;
    out.inter_allreduce = t2 - t1;
    out.intra_allgather = timing.finish - t2;
    out.total = timing.finish - start;
    return out;
  }

  // Ragged functional: phase 2 as sequential per-stream calls.
  Schedule phase1_sched;
  const RingGrid node_grid1 = ring_grid(phase1_sched, node_groups, node_data, wire);
  build_ring_reduce_scatter(phase1_sched, node_groups, node_grid1, elems,
                            wire, /*fused_chains=*/true);
  const double phase1 = phase1_sched.run_timing(cluster, start).finish;
  phase1_sched.run_data();
  out.reduce_scatter = phase1 - start;

  double phase2 = phase1;
  for (size_t q = 0; q < stream_groups.size(); ++q) {
    const ChunkRange shard = chunk_range(elems, static_cast<size_t>(n), q);
    phase2 = std::max(
        phase2, ring_allreduce(cluster, stream_groups[q], stream_data[q],
                               shard.count, wire, phase1));
  }
  out.inter_allreduce = phase2 - phase1;

  Schedule phase3_sched;
  const RingGrid node_grid3 = ring_grid(phase3_sched, node_groups, node_data, wire);
  build_ring_allgather(phase3_sched, node_groups, node_grid3, elems,
                       wire);
  const double phase3 = phase3_sched.run_timing(cluster, phase2).finish;
  phase3_sched.run_data();
  out.intra_allgather = phase3 - phase2;
  out.total = phase3 - start;
  return out;
}

}  // namespace

void build_torus2d(Schedule& sched, const simnet::Topology& topo,
                   const RankData& data, size_t elems, WireDtype wire) {
  HITOPK_VALIDATE(topo.uniform())
      << "torus2d's node-major grid needs a uniform topology";
  check_data(world_group(topo), data, elems);
  const int m = topo.nodes();
  const int n = topo.gpus_per_node();
  const bool functional = !data.empty();

  std::vector<Group> node_groups;
  std::vector<RankData> node_data;
  for (int node = 0; node < m; ++node) {
    node_groups.push_back(node_group(topo, node));
    if (functional) {
      RankData nd;
      for (int rank : node_groups.back()) {
        nd.push_back(data[static_cast<size_t>(rank)]);
      }
      node_data.push_back(std::move(nd));
    }
  }

  // Phase 2 operates on full rank buffers through per-stream extents
  // (stream `local` owns chunk `local` of the node partition), so ragged
  // shard sizes are exact and the whole collective stays one schedule.
  std::vector<Group> stream_groups;
  std::vector<RankData> stream_data;
  std::vector<ChunkRange> stream_extents;
  for (int local = 0; local < n; ++local) {
    const ChunkRange shard =
        chunk_range(elems, static_cast<size_t>(n), static_cast<size_t>(local));
    if (shard.count == 0) continue;
    stream_groups.push_back(cross_node_group(topo, local));
    stream_extents.push_back(shard);
    if (functional) {
      RankData shard_data;
      for (int rank : stream_groups.back()) {
        shard_data.push_back(data[static_cast<size_t>(rank)]);
      }
      stream_data.push_back(std::move(shard_data));
    }
  }

  const RingGrid node_grid = ring_grid(sched, node_groups, node_data, wire);
  build_ring_reduce_scatter(sched, node_groups, node_grid, elems, wire,
                            /*fused_chains=*/true);
  sched.sync(/*collapse=*/true);  // phase 1 done
  if (!stream_groups.empty()) {
    const RingGrid stream_grid = ring_grid(sched, stream_groups, stream_data, wire);
    build_ring_reduce_scatter(sched, stream_groups, stream_grid,
                              stream_extents, wire,
                              /*fused_chains=*/true);
    build_ring_allgather(sched, stream_groups, stream_grid, stream_extents,
                         wire);
  }
  sched.sync(/*collapse=*/true);  // phase 2 done
  build_ring_allgather(sched, node_groups, node_grid, elems, wire);
}

Torus2dBreakdown torus2d_allreduce(simnet::Cluster& cluster,
                                   const RankData& data, size_t elems,
                                   WireDtype wire, double start) {
  const simnet::Topology& topo = cluster.topology();
  HITOPK_VALIDATE(topo.uniform())
      << "torus2d's node-major grid needs a uniform topology";
  check_data(world_group(topo), data, elems);
  return schedule_torus2d(cluster, data, elems, wire, start);
}

}  // namespace hitopk::coll
