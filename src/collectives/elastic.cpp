#include "collectives/elastic.h"

#include <algorithm>

#include "collectives/ring.h"

namespace hitopk::coll {

// Attempts before giving up with completed = false.
constexpr int kMaxAttempts = 8;

SurvivorWorld shrink_topology(const simnet::Topology& topology,
                              const std::vector<int>& dead_ranks) {
  std::vector<bool> dead(static_cast<size_t>(topology.world_size()), false);
  for (int r : dead_ranks) {
    HITOPK_CHECK(r >= 0 && r < topology.world_size());
    dead[static_cast<size_t>(r)] = true;
  }

  SurvivorWorld out{simnet::Topology(1, 1, topology.intra(), topology.inter()),
                    {}, {}};
  std::vector<int> gpus;
  for (int node = 0; node < topology.nodes(); ++node) {
    int alive_here = 0;
    for (int local = 0; local < topology.gpus_on_node(node); ++local) {
      const int rank = topology.rank_of(node, local);
      if (dead[static_cast<size_t>(rank)]) continue;
      ++alive_here;
      out.old_rank.push_back(rank);
    }
    if (alive_here > 0) {
      gpus.push_back(alive_here);
      out.old_node.push_back(node);
    }
  }
  HITOPK_VALIDATE(!out.old_rank.empty())
      << "no rank survives the preemption set";
  // nodes_per_pod is a count of *original* node positions; once nodes drop
  // out the pod grouping no longer tiles, so the shrunk fabric keeps the
  // oversubscription factor but collapses to a single switch layer (the
  // conservative model: every inter-node flow sees the oversubscribed
  // core).  A uniform original topology that loses whole nodes only stays
  // podded when the grouping still tiles exactly.
  int nodes_per_pod = topology.nodes_per_pod();
  if (nodes_per_pod > 0) {
    bool tiles = static_cast<int>(gpus.size()) % nodes_per_pod == 0;
    for (size_t i = 0; tiles && i < out.old_node.size(); ++i) {
      tiles = out.old_node[i] / nodes_per_pod ==
              static_cast<int>(i) / nodes_per_pod;
    }
    if (!tiles) nodes_per_pod = 0;
  }
  out.topology = simnet::Topology(std::move(gpus), topology.intra(),
                                  topology.inter(), topology.nic_beta(),
                                  topology.oversubscription(), nodes_per_pod);
  return out;
}

ElasticResult elastic_allreduce(const simnet::Topology& topology,
                                const simnet::FaultPlan& plan,
                                const RankData& data, size_t elems,
                                const ElasticOptions& options, double start) {
  check_data(world_group(topology), data, elems);
  const bool functional = !data.empty();

  ElasticResult result;
  double now = start;
  // Survivors of the previous attempt (original ranks); membership of each
  // new attempt is re-derived from full-world liveness so recovered ranks
  // rejoin (grow) just as dead ones drop out (shrink).
  std::vector<int> previous;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    std::vector<int> survivors;
    std::vector<int> dead;
    for (int r = 0; r < topology.world_size(); ++r) {
      (plan.alive(r, now) ? survivors : dead).push_back(r);
    }
    if (survivors.empty()) break;
    if (attempt > 0) {
      const bool dropped =
          std::any_of(previous.begin(), previous.end(), [&](int r) {
            return std::find(survivors.begin(), survivors.end(), r) ==
                   survivors.end();
          });
      const bool gained =
          std::any_of(survivors.begin(), survivors.end(), [&](int r) {
            return std::find(previous.begin(), previous.end(), r) ==
                   previous.end();
          });
      if (dropped) ++result.rescales;
      if (gained) ++result.regrows;
    }
    previous = survivors;

    if (survivors.size() == 1) {
      // Degenerate world: one survivor needs no collective (the All-Reduce
      // of a single contribution is the identity).  Complete instantly with
      // no cluster, schedule, or traffic — and no abort risk.
      ScheduleOutcome outcome;
      outcome.finish = now;
      result.attempts.push_back(ElasticAttempt{outcome, 1});
      result.surviving_world = 1;
      result.survivors = survivors;
      result.completed = true;
      result.finish = now;
      return result;
    }

    const SurvivorWorld world = shrink_topology(topology, dead);
    const simnet::FaultPlan local_plan =
        plan.remap(world.old_rank, world.old_node);
    simnet::Cluster cluster(world.topology);
    cluster.set_fault_plan(&local_plan);
    const int p = world.topology.world_size();

    RankData attempt_data;
    if (functional) {
      for (int r : world.old_rank) {
        attempt_data.push_back(data[static_cast<size_t>(r)]);
      }
    }

    ScheduleOutcome outcome;
    switch (options.algorithm) {
      case ElasticAlgorithm::kRing: {
        Schedule sched;
        build_ring_allreduce(sched, world_group(world.topology), attempt_data,
                             elems, options.wire);
        outcome = sched.run_timing_abortable(cluster, now);
        if (outcome.completed()) sched.run_data();
        break;
      }
      case ElasticAlgorithm::kBlueConnect: {
        BlueConnectOptions bc = options.blueconnect;
        int product = 1;
        for (int f : bc.factors) product *= f;
        if (bc.factors.empty() || product != p) {
          // Rescale invalidated the caller's factorization: re-derive (auto
          // on uniform multi-node survivors; a flat hierarchy-free ring on
          // uneven worlds and on all-on-one-node worlds, where a multi-stage
          // hierarchy has nothing to exploit).
          bc.factors = world.topology.uniform() && world.topology.nodes() > 1
                           ? std::vector<int>{}
                           : std::vector<int>{p};
        }
        Schedule sched;
        build_blueconnect(sched, world.topology, attempt_data, elems, bc);
        outcome = sched.run_timing_abortable(cluster, now);
        if (outcome.completed()) sched.run_data();
        break;
      }
      case ElasticAlgorithm::kGtopk: {
        GtopkOptions gt = options.gtopk;
        gt.outcome = &outcome;
        gtopk_comm(cluster, attempt_data, elems, gt, now);
        break;
      }
    }

    result.attempts.push_back(ElasticAttempt{outcome, p});
    result.surviving_world = p;
    result.survivors = world.old_rank;
    if (outcome.completed()) {
      result.completed = true;
      result.finish = outcome.finish;
      return result;
    }

    // Abort: the failure was detected at outcome.finish; survivors
    // rendezvous and the next attempt re-derives its membership from
    // full-world liveness at the rebuilt start time.
    now = outcome.finish + options.reschedule_seconds;
  }

  result.finish = now;
  return result;
}

}  // namespace hitopk::coll
