// Ring collectives (the NCCL-style building blocks).
//
// All three run over an arbitrary rank group on per-rank buffers of `elems`
// floats, transferred as typed payloads of `wire` dtype (fp32 / fp16 /
// int8-quantized; compress/wire_codec.h).  The simulated bytes per hop are
// wire_payload_bytes(wire, chunk) and the functional values are rounded
// through the codec at every hop, exactly like a real mixed-precision ring.
// Data spans may be empty for timing-only simulation (see common.h).  Every function takes a simulated start time (all group ranks
// aligned — the training loop synchronizes per gradient bucket) and returns
// the completion time of the slowest rank.
#pragma once

#include "collectives/schedule.h"

namespace hitopk::coll {

// In-place ring Reduce-Scatter.  After completion, group rank i's chunk i
// (chunk_range(elems, G, i)) holds the sum over all group ranks; other
// chunks hold partial sums.  Cost: (G-1) steps of elems/G elements.
double ring_reduce_scatter(simnet::Cluster& cluster, const Group& group,
                           const RankData& data, size_t elems, WireDtype wire,
                           double start);

// In-place ring All-Gather.  Requires group rank i's chunk i to be valid;
// replicates every chunk to every rank.
double ring_allgather(simnet::Cluster& cluster, const Group& group,
                      const RankData& data, size_t elems, WireDtype wire,
                      double start);

// Reduce-Scatter followed by All-Gather: the classic bandwidth-optimal ring
// All-Reduce.  After completion every rank holds the full sum.
double ring_allreduce(simnet::Cluster& cluster, const Group& group,
                      const RankData& data, size_t elems, WireDtype wire,
                      double start);

// All-Gather of variable-size opaque blocks: group rank i contributes
// payload_bytes[i]; every rank ends up having seen every block.  Used for
// sparse (value, index) payloads where the data movement is tracked by the
// caller.  step_overhead is an optional per-step protocol cost (see
// models/calibration.h, flat world-scale rings).  Returns completion time.
double ring_allgather_bytes(simnet::Cluster& cluster, const Group& group,
                            const std::vector<size_t>& payload_bytes,
                            double start, double step_overhead = 0.0);

// Concurrent multi-group variants.  Several equally-sized ring groups run
// *simultaneously* — their per-step transfers are interleaved in issue
// order so the Cluster's port clocks model NIC capacity sharing across the
// streams (the n parallel inter-node rings of 2DTAR and HiTopKComm step 3).
// Issuing the groups sequentially instead would serialize them at the NIC
// high-water marks and underestimate the aggregation the paper relies on.
// data[g] is group g's RankData (all empty for timing-only).
double ring_allreduce_multi(simnet::Cluster& cluster,
                            const std::vector<Group>& groups,
                            const std::vector<RankData>& data, size_t elems,
                            WireDtype wire, double start);

double ring_allgather_bytes_multi(
    simnet::Cluster& cluster, const std::vector<Group>& groups,
    const std::vector<std::vector<size_t>>& payload_bytes, double start,
    double step_overhead = 0.0);

// ---- schedule-engine builders --------------------------------------------
// The hierarchical collectives (2DTAR, HierAR, HiTopKComm) compose their
// phases from ring legs; these builders append one leg to a caller-owned
// Schedule so a whole collective becomes a single schedule with sync()
// phase boundaries.  RingGrid carries the per-(group, rank) readiness slots
// and data-pass buffer ids; allocate it with ring_grid() once per leg (or
// reuse it across an RS+AG pair operating on the same groups/buffers).
struct RingGrid {
  size_t g = 0;                // group size (equal across groups)
  size_t nq = 0;               // number of concurrent groups
  uint32_t slot0 = 0;          // slot(q, i) = slot0 + q * g + i
  std::vector<uint32_t> bufs;  // buf(q, i), kNoBuf for timing-only groups
  static constexpr uint32_t kNoBuf = UINT32_MAX;
  uint32_t buf(size_t q, size_t i) const { return bufs[q * g + i]; }
  uint32_t slot(size_t q, size_t i) const {
    return slot0 + static_cast<uint32_t>(q * g + i);
  }
};

// data may be empty (all groups timing-only) or hold one RankData per group
// (individually empty for timing-only groups).
RingGrid ring_grid(Schedule& sched, const std::vector<Group>& groups,
                   const std::vector<RankData>& data,
                   WireDtype wire = WireDtype::kFp32);

// Range-aware leg builders: group q's ring operates on its own sub-range
// extents[q] of the rank buffers, with chunk c = chunk_range(extents[q].count,
// G, c) shifted by extents[q].begin.  This is what lets nested-ring
// decompositions (BlueConnect) reduce a progressively narrower slice per
// stage; the whole-buffer builders below are the extents = {0, elems}
// special case.
void build_ring_reduce_scatter(Schedule& sched,
                               const std::vector<Group>& groups,
                               const RingGrid& grid,
                               const std::vector<ChunkRange>& extents,
                               WireDtype wire, bool fused_chains = false);

void build_ring_allgather(Schedule& sched, const std::vector<Group>& groups,
                          const RingGrid& grid,
                          const std::vector<ChunkRange>& extents,
                          WireDtype wire);

// Reduce-Scatter leg: G-1 snapshot steps.  With fused_chains=false the data
// pass mirrors the wire per step (kReduce moves): every hop's partial sum
// lands in the receiving rank's buffer.  With
// fused_chains=true each owner chunk reduces through a scratch-accumulator
// chain (see TransferOp::kChain*): same float-add order, owner chunks
// bitwise identical, but nothing is written to non-owned chunks — only
// valid when the caller overwrites or ignores them (an All-Reduce's
// resolved gather, 2DTAR phase 3, HiTopKComm, which rebuilds rank 0's
// buffer and leaves the others as scratch).
void build_ring_reduce_scatter(Schedule& sched,
                               const std::vector<Group>& groups,
                               const RingGrid& grid, size_t elems,
                               WireDtype wire, bool fused_chains = false);

// All-Gather leg: G-1 timed forwarding steps, but the data pass is
// *resolved* — each destination chunk is copied once from its final origin
// (group rank c's chunk c) instead of forwarded G-1 times.
void build_ring_allgather(Schedule& sched, const std::vector<Group>& groups,
                          const RingGrid& grid, size_t elems, WireDtype wire);

// The one-group ring All-Reduce that ring_allreduce runs: fused-chain
// Reduce-Scatter, a collapse sync (the gather starts for everyone at the
// Reduce-Scatter completion maximum), then the resolved All-Gather reusing
// the owner chunks in place.  data may be empty (timing-only); records
// nothing for groups of one rank or fewer.  Every ring All-Reduce that must
// time like ring_allreduce (elastic retries, planner ring candidates,
// multi-tenant bodies) records through this builder.
void build_ring_allreduce(Schedule& sched, const Group& group,
                          const RankData& data, size_t elems, WireDtype wire);

// Variable-payload All-Gather leg (timing only; sparse payload data
// movement is tracked by the caller).
void build_ring_allgather_bytes(
    Schedule& sched, const std::vector<Group>& groups, const RingGrid& grid,
    const std::vector<std::vector<size_t>>& payload_bytes,
    double step_overhead);

}  // namespace hitopk::coll
