// Shared helpers for collective implementations.
//
// Collectives operate on a *group* of ranks (a subset of the cluster, e.g.
// one node's GPUs, or "GPU j of every node") and on per-rank buffers passed
// as spans.  Every collective has two modes:
//   functional — data.size() == group.size(): real bytes are reduced/copied,
//                so tests and convergence experiments see true results;
//   timing-only — data is empty: only the Cluster port clocks advance, so
//                benches can model 128-rank x 110M-element transfers without
//                materializing the buffers.
#pragma once

#include <span>
#include <vector>

#include "compress/wire_codec.h"
#include "core/check.h"
#include "simnet/cluster.h"

namespace hitopk::coll {

using RankSpan = std::span<float>;
using RankData = std::vector<RankSpan>;

// Typed transfer payloads (compress/wire_codec.h): every collective takes
// the wire dtype its bytes travel in.  fp32 is the bitwise-identity
// baseline; fp16/int8 shrink the simulated bytes *and* round the functional
// values through the codec at every hop: a reduce adds the rounded chunk to
// its fp32 destination, a copy stores the rounded chunk (see
// Schedule::add_buffer).
using compress::WireDtype;
using compress::wire_dtype_name;
using compress::wire_elem_bytes;
using compress::wire_payload_bytes;
using compress::wire_round_trip;
using compress::wire_scale_bytes;

// Balanced partition of `total` elements into `parts` chunks: the first
// (total % parts) chunks get one extra element.
struct ChunkRange {
  size_t begin = 0;
  size_t count = 0;
};

inline ChunkRange chunk_range(size_t total, size_t parts, size_t index) {
  HITOPK_CHECK_GT(parts, 0u);
  HITOPK_CHECK_LT(index, parts);
  const size_t base = total / parts;
  const size_t extra = total % parts;
  const size_t begin = index * base + std::min(index, extra);
  const size_t count = base + (index < extra ? 1 : 0);
  return {begin, count};
}

// Group of world ranks participating in one collective call.
using Group = std::vector<int>;

// All ranks of one node, in local-rank order.
Group node_group(const simnet::Topology& topology, int node);

// Rank j of every node ("stream j" of HiTopKComm step 3), in node order.
Group cross_node_group(const simnet::Topology& topology, int local_rank);

// All world ranks in rank order.
Group world_group(const simnet::Topology& topology);

// Pod-aware ring-membership reordering: the group's ranks stably sorted by
// (pod, node, rank).  A ring over the sorted order crosses each pod
// boundary once per direction instead of scattering hops across the
// oversubscribed core — for an arbitrarily-permuted membership (elastic
// survivor sets, shuffled placements) this recovers the locality a
// rank-ordered world gets for free.  Identity on already-sorted groups.
Group locality_sorted_group(const simnet::Topology& topology,
                            const Group& group);

// Validates a functional data vector against a group.  Throws the
// recoverable ConfigError: buffer/group shape mismatches arrive from
// callers' runtime configuration (world size, payload layout), not from
// internal invariants.
inline void check_data(const Group& group, const RankData& data, size_t elems) {
  if (data.empty()) return;  // timing-only
  HITOPK_VALIDATE(data.size() == group.size())
      << "got" << data.size() << "rank buffers for a group of"
      << group.size();
  for (const auto& span : data) {
    HITOPK_VALIDATE(span.size() == elems)
        << "rank buffer has" << span.size() << "elements, expected" << elems;
  }
}

}  // namespace hitopk::coll
