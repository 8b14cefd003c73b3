#include "collectives/tree_allreduce.h"

#include <algorithm>

#include "collectives/schedule.h"

namespace hitopk::coll {
namespace {

// NCCL's tree All-Reduce is hierarchical: inside each node a pipelined chain
// over NVLink funnels data to a leader GPU, and the double binary tree runs
// across the node leaders only.  Two complementary trees (one per half of
// the buffer) balance the leader roles: tree 0 uses local rank 0 leaders and
// the identity node order; tree 1 uses the last local rank and the reversed
// node order, so a root/interior node of one tree is a leaf of the other.

struct TreeShape {
  int leader_local;            // local rank acting as node leader
  std::vector<int> node_perm;  // heap position -> node id
};

TreeShape tree_shape(const simnet::Topology& topo, int tree) {
  TreeShape shape;
  shape.leader_local = tree == 0 ? 0 : topo.gpus_per_node() - 1;
  shape.node_perm.resize(static_cast<size_t>(topo.nodes()));
  for (int p = 0; p < topo.nodes(); ++p) {
    shape.node_perm[static_cast<size_t>(p)] =
        tree == 0 ? p : topo.nodes() - 1 - p;
  }
  return shape;
}

// One tree as a schedule.  Readiness slots are per-(node, chunk) pipeline
// clocks; each dependent hop sits in a later step, and independent nodes
// share steps (their transfers touch disjoint ports, so the clocks do not
// depend on the order nodes are issued in).  Per destination the reduce
// moves add the chain predecessor in phase A, then the left and right
// child leaders in phase B; the phase C+D broadcast is resolved to one
// copy per rank from the root leader's fully-reduced half.
void build_one_tree(Schedule& sched, const simnet::Topology& topo,
                    const RankData& data, size_t half_begin, size_t half_elems,
                    const TreeOptions& options, int tree) {
  const int m = topo.nodes();
  const int n = topo.gpus_per_node();
  if (half_elems == 0 || topo.world_size() <= 1) return;

  const TreeShape shape = tree_shape(topo, tree);
  const size_t chunk_elems = std::max<size_t>(
      1, options.chunk_bytes / wire_elem_bytes(options.wire));
  const size_t n_chunks = (half_elems + chunk_elems - 1) / chunk_elems;
  auto chunk_bytes = [&](size_t c) {
    return wire_payload_bytes(options.wire,
                              chunk_range(half_elems, n_chunks, c).count);
  };
  // Chain order within a node, leader last: tree 0 runs (n-1) -> ... -> 0,
  // tree 1 runs 0 -> ... -> (n-1).  pos 0 is the chain head.
  auto chain_rank = [&](int node, int pos) {
    const int local = tree == 0 ? n - 1 - pos : pos;
    return topo.rank_of(node, local);
  };
  auto leader_rank = [&](size_t p) {
    return topo.rank_of(shape.node_perm[p], shape.leader_local);
  };

  // slot(node, c): the pipeline clock of chunk c in node `node` — the chain
  // wavefront in phases A/D, the leader's subtree readiness in B/C.
  const uint32_t slot0 = sched.add_slots(
      static_cast<uint32_t>(static_cast<size_t>(m) * n_chunks));
  auto slot = [&](int node, size_t c) {
    return slot0 +
           static_cast<uint32_t>(static_cast<size_t>(node) * n_chunks + c);
  };
  auto heap_slot = [&](size_t p, size_t c) {
    return slot(shape.node_perm[p], c);
  };
  std::vector<uint32_t> bufs;
  if (!data.empty()) {
    bufs.reserve(data.size());
    for (const auto& span : data) {
      bufs.push_back(sched.add_buffer(span, options.wire));
    }
  }
  auto rank_buf = [&](int rank) { return bufs[static_cast<size_t>(rank)]; };

  // ---- Phase A: intra-node chain reduce, one step per chain position.
  for (int pos = 0; pos + 1 < n; ++pos) {
    for (int node = 0; node < m; ++node) {
      const int src = chain_rank(node, pos);
      const int dst = chain_rank(node, pos + 1);
      for (size_t c = 0; c < n_chunks; ++c) {
        sched.send(src, dst, chunk_bytes(c), slot(node, c), slot(node, c));
      }
      if (!data.empty()) {
        sched.reduce(rank_buf(src), rank_buf(dst), half_begin, half_elems);
      }
    }
    sched.end_step();
  }

  // ---- Phase B: tree reduce across leaders, one step per heap position
  // (children sit at larger positions, so their slots are final before the
  // parent's step reads them).
  for (size_t p = static_cast<size_t>(m); p-- > 0;) {
    bool any = false;
    for (size_t c = 0; c < n_chunks; ++c) {
      for (size_t child : {2 * p + 1, 2 * p + 2}) {
        if (child >= static_cast<size_t>(m)) continue;
        sched.send(leader_rank(child), leader_rank(p), chunk_bytes(c),
                   heap_slot(child, c), heap_slot(p, c));
        any = true;
      }
    }
    if (!data.empty()) {
      for (size_t child : {2 * p + 1, 2 * p + 2}) {
        if (child >= static_cast<size_t>(m)) continue;
        sched.reduce(rank_buf(leader_rank(child)), rank_buf(leader_rank(p)),
                     half_begin, half_elems);
      }
    }
    if (any) sched.end_step();
  }

  // ---- Phase C: broadcast down the leader tree, one step per heap
  // position.  (A parent's phase-C arrival can only be later than every
  // clock its children accumulated in phase B — each transfer into a rank
  // serializes through its recv port — so max-combining the child's slot
  // equals overwriting it with the arrival.)  Functional movement for C and D is resolved
  // below: every copy forwards the root leader's finished half verbatim.
  if (!data.empty() && m * n > 1) {
    const int root = leader_rank(0);
    for (int rank = 0; rank < m * n; ++rank) {
      if (rank == root) continue;
      sched.copy(rank_buf(root), rank_buf(rank), half_begin, half_elems);
    }
  }
  for (size_t p = 0; p < static_cast<size_t>(m); ++p) {
    bool any = false;
    for (size_t c = 0; c < n_chunks; ++c) {
      for (size_t child : {2 * p + 1, 2 * p + 2}) {
        if (child >= static_cast<size_t>(m)) continue;
        sched.send(leader_rank(p), leader_rank(child), chunk_bytes(c),
                   heap_slot(p, c), heap_slot(child, c));
        any = true;
      }
    }
    if (any) sched.end_step();
  }

  // ---- Phase D: intra-node chain broadcast, one step per chain hop.
  for (int pos = n - 1; pos > 0; --pos) {
    for (int node = 0; node < m; ++node) {
      const int src = chain_rank(node, pos);
      const int dst = chain_rank(node, pos - 1);
      for (size_t c = 0; c < n_chunks; ++c) {
        sched.send(src, dst, chunk_bytes(c), slot(node, c), slot(node, c));
      }
    }
    sched.end_step();
  }
}

}  // namespace

void build_tree_allreduce(Schedule& sched, const simnet::Topology& topo,
                          const RankData& data, size_t elems,
                          const TreeOptions& options) {
  HITOPK_VALIDATE(topo.uniform())
      << "tree_allreduce's leader layout needs a uniform topology";
  check_data(world_group(topo), data, elems);
  const size_t half = elems / 2;
  // Tree 1's record follows tree 0's at strictly later steps, so the replay
  // issues tree 0's sends first against fresh slots for both: the two trees
  // start together and contend only through the cluster's ports.
  build_one_tree(sched, topo, data, 0, half, options, 0);
  build_one_tree(sched, topo, data, half, elems - half, options, 1);
}

double tree_allreduce(simnet::Cluster& cluster, const Group& group,
                      const RankData& data, size_t elems,
                      const TreeOptions& options, double start) {
  const simnet::Topology& topo = cluster.topology();
  // TreeAR is a whole-cluster collective (it is NCCL's All-Reduce): the
  // group must be the full world in rank order.
  HITOPK_VALIDATE(group.size() == static_cast<size_t>(topo.world_size()))
      << "tree_allreduce group has" << group.size()
      << "ranks, world size is" << topo.world_size();
  for (size_t i = 0; i < group.size(); ++i) {
    HITOPK_VALIDATE(group[i] == static_cast<int>(i))
        << "tree_allreduce group must be the full world in rank order";
  }
  Schedule sched;
  build_tree_allreduce(sched, topo, data, elems, options);
  // An empty record (degenerate world or halves) replays to `start`.
  const double finish = sched.run_timing(cluster, start).finish;
  sched.run_data();
  return finish;
}

}  // namespace hitopk::coll
