// Survivor worlds for elastic training.
//
// When a training driver (train::FaultDriver) removes preempted workers
// between iterations, train::ConvergenceEngine renumbers the survivors into
// a dense world over a shrunk Topology and runs every later collective on
// it.  shrink_topology is that renumbering; old_rank/old_node map the dense
// world back to the original.  Faults never interrupt a collective
// mid-flight: the transfer engine is fault-free (simnet/cluster.h).
#pragma once

#include <vector>

#include "simnet/topology.h"

namespace hitopk::coll {

// A shrunk, densely renumbered world plus its mapping to the original.
// Surviving ranks keep their relative order; nodes that lose every GPU
// disappear (the shrunk topology may be uneven even if the original was
// uniform — one node keeps 3 of its 4 GPUs).
struct SurvivorWorld {
  simnet::Topology topology;
  std::vector<int> old_rank;  // new rank  -> original rank
  std::vector<int> old_node;  // new node  -> original node
};

// Throws ConfigError when no rank survives.
SurvivorWorld shrink_topology(const simnet::Topology& topology,
                              const std::vector<int>& dead_ranks);

}  // namespace hitopk::coll
