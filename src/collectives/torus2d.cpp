#include "collectives/torus2d.h"

#include "collectives/ring.h"

namespace hitopk::coll {

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
  Schedule sched;
  build_torus2d(sched, cluster.topology(), data, elems, wire);
  const ScheduleOutcome timing = sched.run_timing(cluster, start);
  sched.run_data();
  // The two collapse syncs close phases 1 and 2.
  const double t1 = timing.sync_times[0];
  const double t2 = timing.sync_times[1];
  Torus2dBreakdown out;
  out.reduce_scatter = t1 - start;
  out.inter_allreduce = t2 - t1;
  out.intra_allgather = timing.finish - t2;
  out.total = timing.finish - start;
  return out;
}

}  // namespace hitopk::coll
