#include "collectives/elastic.h"

#include <utility>

#include "core/check.h"

namespace hitopk::coll {

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

}  // namespace hitopk::coll
