#include "collectives/param_server.h"

#include <vector>

#include "collectives/schedule.h"

namespace hitopk::coll {

// Two steps: push (fan-in, reduce moves per server bucket in worker order)
// and pull (fan-out, resolved copies).  Shard readiness gets its own slot
// per server — pulls of shard s start at shard s's push completion, not at
// a global barrier, so the sync between the steps is a non-collapsing mark
// that only records push_done for the breakdown.
ParamServerResult param_server_allreduce(simnet::Cluster& cluster,
                                         const RankData& data, size_t elems,
                                         WireDtype wire, double start) {
  const simnet::Topology& topo = cluster.topology();
  check_data(world_group(topo), data, elems);
  const int m = topo.nodes();
  const int world = topo.world_size();
  const bool functional = !data.empty();
  auto server_rank = [&](int s) { return topo.rank_of(s, 0); };

  Schedule sched;
  const uint32_t worker_slot0 = sched.add_slots(static_cast<uint32_t>(world));
  const uint32_t shard_slot0 = sched.add_slots(static_cast<uint32_t>(m));
  std::vector<uint32_t> bufs;
  if (functional) {
    for (const auto& span : data) bufs.push_back(sched.add_buffer(span, wire));
  }

  // ---- Push.
  for (int s = 0; s < m; ++s) {
    const ChunkRange shard =
        chunk_range(elems, static_cast<size_t>(m), static_cast<size_t>(s));
    if (shard.count == 0) continue;
    for (int worker = 0; worker < world; ++worker) {
      if (worker == server_rank(s)) continue;  // server's own shard is local
      sched.send(worker, server_rank(s), wire_payload_bytes(wire, shard.count),
                 worker_slot0 + static_cast<uint32_t>(worker),
                 shard_slot0 + static_cast<uint32_t>(s));
      if (functional) {
        sched.reduce(bufs[static_cast<size_t>(worker)],
                     bufs[static_cast<size_t>(server_rank(s))], shard.begin,
                     shard.count);
      }
    }
  }
  sched.end_step();
  sched.sync(/*collapse=*/false);  // record push_done only

  // ---- Pull.
  for (int s = 0; s < m; ++s) {
    const ChunkRange shard =
        chunk_range(elems, static_cast<size_t>(m), static_cast<size_t>(s));
    if (shard.count == 0) continue;
    for (int worker = 0; worker < world; ++worker) {
      if (worker == server_rank(s)) continue;
      sched.send(server_rank(s), worker, wire_payload_bytes(wire, shard.count),
                 shard_slot0 + static_cast<uint32_t>(s),
                 worker_slot0 + static_cast<uint32_t>(worker));
      if (functional) {
        // Source-major bucket: shard s streams hot from its server to all
        // workers; the m shards fan out concurrently.
        sched.copy(bufs[static_cast<size_t>(server_rank(s))],
                   bufs[static_cast<size_t>(worker)], shard.begin,
                   shard.count,
                   /*bucket=*/bufs[static_cast<size_t>(server_rank(s))]);
      }
    }
  }

  const ScheduleOutcome timing = sched.run_timing(cluster, start);
  sched.run_data();

  ParamServerResult out;
  const double push_done = timing.sync_times[0];
  out.push = push_done - start;
  out.pull = timing.finish - push_done;
  out.total = timing.finish - start;
  return out;
}

}  // namespace hitopk::coll
