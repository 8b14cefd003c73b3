// Double-binary-tree All-Reduce (the paper's "TreeAR" baseline).
//
// NCCL's large-scale All-Reduce (Sanders et al. 2009): two complementary
// binary trees each handle half of the buffer; each tree reduces leaf-to-root
// then broadcasts root-to-leaf, pipelined over chunks.  The trees are built
// over the flat rank order, so edges freely cross node boundaries — exactly
// why TreeAR underuses NVLink and oversubscribes the slow NIC on cloud
// clusters (§5.3).
#pragma once

#include "collectives/common.h"
#include "collectives/schedule.h"

namespace hitopk::coll {

struct TreeOptions {
  // Pipelining granularity; NCCL uses fine-grained chunks.
  size_t chunk_bytes = 4 << 20;
  // Wire dtype of every hop's payload (compress/wire_codec.h).
  WireDtype wire = WireDtype::kFp32;
};

// In-place tree All-Reduce over `group`.  After completion every rank holds
// the element-wise sum.  Returns the completion time of the slowest rank.
double tree_allreduce(simnet::Cluster& cluster, const Group& group,
                      const RankData& data, size_t elems,
                      const TreeOptions& options, double start);

// Records the whole collective — tree 0 over [0, elems/2), then tree 1 over
// the rest — into one caller-owned schedule; tree_allreduce replays exactly
// this record.  Both trees start from the same slot epoch and the replay
// issues tree 0's sends first.  Requires a uniform topology and operates
// on the full world in rank order; data may be empty for timing-only.
// Exposed for the planner (collectives/planner.h).
void build_tree_allreduce(Schedule& sched, const simnet::Topology& topo,
                          const RankData& data, size_t elems,
                          const TreeOptions& options);

}  // namespace hitopk::coll
