#include "collectives/hier_allreduce.h"

#include "collectives/ring.h"

namespace hitopk::coll {

// One schedule: leader fan-in step, collapse sync, leaders' ring
// Reduce-Scatter + collapse + resolved All-Gather, collapse sync, broadcast
// step with resolved leader->local copies.
void build_hier_allreduce(Schedule& sched, const simnet::Topology& topo,
                          const RankData& data, size_t elems, WireDtype wire) {
  const int m = topo.nodes();
  const bool functional = !data.empty();

  const uint32_t rank_slot0 =
      sched.add_slots(static_cast<uint32_t>(topo.world_size()));
  auto rank_slot = [&](int rank) {
    return rank_slot0 + static_cast<uint32_t>(rank);
  };
  std::vector<uint32_t> bufs;
  if (functional) {
    for (const auto& span : data) bufs.push_back(sched.add_buffer(span, wire));
  }

  // Phase 1: fan-in to the leaders.  The leader's recv port serializes the
  // incoming transfers; each leader adds its node's buffers in local-rank
  // order (one bucket per leader).
  for (int node = 0; node < m; ++node) {
    const int leader = topo.rank_of(node, 0);
    for (int local = 1; local < topo.gpus_on_node(node); ++local) {
      const int src = topo.rank_of(node, local);
      sched.send(src, leader, wire_payload_bytes(wire, elems), rank_slot(src),
                 rank_slot(leader));
      if (functional) {
        sched.reduce(bufs[static_cast<size_t>(src)],
                     bufs[static_cast<size_t>(leader)], 0, elems);
      }
    }
  }
  sched.end_step();
  sched.sync(/*collapse=*/true);  // phase 1 done

  // Phase 2: ring All-Reduce among the leaders (Reduce-Scatter, a collapse
  // at the mid-point, then the resolved All-Gather reusing the scattered
  // sums in place).
  std::vector<Group> leader_groups(1);
  for (int node = 0; node < m; ++node) {
    leader_groups[0].push_back(topo.rank_of(node, 0));
  }
  std::vector<RankData> leader_data;
  if (functional) {
    RankData ld;
    for (int rank : leader_groups[0]) {
      ld.push_back(data[static_cast<size_t>(rank)]);
    }
    leader_data.push_back(std::move(ld));
  }
  const RingGrid grid = ring_grid(sched, leader_groups, leader_data, wire);
  build_ring_reduce_scatter(sched, leader_groups, grid, elems, wire,
                            /*fused_chains=*/true);
  sched.sync(/*collapse=*/true);  // ring mid-point
  build_ring_allgather(sched, leader_groups, grid, elems, wire);
  sched.sync(/*collapse=*/true);  // phase 2 done

  // Phase 3: leaders broadcast inside their node (resolved copies).
  for (int node = 0; node < m; ++node) {
    const int leader = topo.rank_of(node, 0);
    for (int local = 1; local < topo.gpus_on_node(node); ++local) {
      const int dst = topo.rank_of(node, local);
      sched.send(leader, dst, wire_payload_bytes(wire, elems),
                 rank_slot(leader), rank_slot(dst));
      if (functional) {
        // Source-major bucket: the leader's buffer streams hot to its
        // node's destinations (one bucket per node, so nodes still run
        // concurrently on the pool).
        sched.copy(bufs[static_cast<size_t>(leader)],
                   bufs[static_cast<size_t>(dst)], 0, elems,
                   /*bucket=*/bufs[static_cast<size_t>(leader)]);
      }
    }
  }
}

HierArBreakdown hier_allreduce(simnet::Cluster& cluster, const RankData& data,
                               size_t elems, WireDtype wire, double start) {
  check_data(world_group(cluster.topology()), data, elems);
  Schedule sched;
  build_hier_allreduce(sched, cluster.topology(), data, elems, wire);
  const ScheduleOutcome timing = sched.run_timing(cluster, start);
  sched.run_data();

  HierArBreakdown out;
  const double t1 = timing.sync_times[0];
  const double t2 = timing.sync_times[2];
  out.intra_reduce = t1 - start;
  out.inter_allreduce = t2 - t1;
  out.intra_broadcast = timing.finish - t2;
  out.total = timing.finish - start;
  return out;
}

}  // namespace hitopk::coll
