// HiTopKComm: the paper's hierarchical top-k communication (Algorithm 2).
//
// Four steps (Fig. 3):
//   1. intra-node ring Reduce-Scatter of the dense gradients — GPU j of each
//      node owns shard j (d/n elements) summed over its node,
//   2. per-GPU MSTopK on the owned shard, selecting k~ = rho * d / n
//      elements (an n-times smaller selection than whole-tensor top-k),
//   3. n concurrent inter-node All-Gathers — stream j exchanges the sparse
//      (values, indices) blocks among "GPU j of every node", and each GPU
//      scatter-adds the m blocks into its shard (duplicate indices
//      accumulate, Alg. 2 line 18),
//   4. intra-node All-Gather of the accumulated sparse shards to rebuild the
//      full aggregated gradient on every GPU.  The clocks time this leg to
//      every GPU; the functional path materialises the result once, in rank
//      0's buffer (see hitopk_comm).
//
// Because step 1 aggregates densely inside the node, only cross-node
// information is sparsified — the property that makes MSTopK-SGD converge
// slightly better than plain TopK-SGD (Table 2).
//
// One pipeline serves every fleet, including uneven ones whose nodes carry
// different GPU counts ({8, 8, 4, 4}-style spot fleets).  The gradient is
// partitioned into L = max gpus-per-node shards; on a node with g GPUs,
// GPU j owns every shard s with s % g == j, so each node still covers the
// whole gradient and shard s's inter-node stream runs among its per-node
// owners.  On a uniform fleet that is exactly the layout above.  Only three
// things depend on whether the fleet is uniform: step 1 is a ring
// Reduce-Scatter per node there and a one-step fan-in schedule to each
// shard's owner otherwise (a ring needs one chunk per member; both are
// recorded Schedules, timed and run by the same engine); the MSTopK seed is
// seed + rank there and seed + rank * L + s otherwise (one selection
// stream per owned shard); and the error-feedback keys (hitopk_ef_entries).
#pragma once

#include <string>
#include <vector>

#include "collectives/common.h"
#include "compress/error_feedback.h"
#include "simgpu/gpu_model.h"

namespace hitopk::coll {

struct HiTopKOptions {
  // rho: fraction of the full gradient selected overall.
  double density = 0.01;
  // Wire dtype of the transferred gradient values (compress/wire_codec.h).
  // The dense step-1 leg travels at this dtype, and the sparse legs' values
  // are rounded through the codec right after selection — before error
  // feedback absorbs the send, so the residual keeps the quantization error
  // (EF-SGD with compressed messages).  Indices are always 4 bytes.  kFp32
  // keeps the whole pipeline bitwise-exact.
  WireDtype value_wire = WireDtype::kFp32;
  // N of Algorithm 1.  The device timing model always scales with N; the
  // functional selection consumes it only in legacy multi-pass mode.
  int mstopk_samplings = 30;
  // Selection operator for the functional path: the single-pass histogram
  // MSTopK (default) or the legacy multi-pass binary search (validation
  // reference; see MsTopKMode).
  bool mstopk_histogram = true;
  uint64_t seed = 42;
  // Device model for compression / scatter-add timing; nullptr times pure
  // communication (Fig. 7 mode).
  const simgpu::GpuCostModel* gpu = nullptr;
  // Optional shard-level error feedback (functional mode only): residuals
  // are added to each GPU's owned shard before selection and the unsent
  // remainder is stored back, one residual per hitopk_ef_entries() entry.
  compress::ErrorFeedback* error_feedback = nullptr;
  std::string ef_key_prefix = "grad";
};

struct HiTopKBreakdown {
  double reduce_scatter = 0.0;
  double mstopk = 0.0;
  double inter_allgather = 0.0;
  double intra_allgather = 0.0;
  double total = 0.0;
  // k~ actually used for (the largest) shard.
  size_t selected_per_shard = 0;
};

// One error-feedback residual of hitopk_comm: the key it is stored under
// and the gradient coordinates it covers.
struct HiTopKEfEntry {
  std::string key;
  ChunkRange range;
};

// The residuals hitopk_comm keeps on `topo` for an `elems`-element gradient,
// one per owned non-empty (shard, node) pair, shard-major then node order.
// Keys are "<prefix>:<rank>" on uniform fleets (one shard per GPU) and
// "<prefix>:<rank>:s<shard>" on uneven ones (a GPU may own several shards).
// This is the only definition of the layout: a caller that must move the
// residuals of a world that no longer exists (an elastic rescale) reads
// the key set and the ranges from here.
std::vector<HiTopKEfEntry> hitopk_ef_entries(const simnet::Topology& topo,
                                             size_t elems,
                                             const std::string& prefix);

// In-place hierarchical sparse aggregation over the whole cluster.  In
// functional mode (data non-empty, one full-size buffer per world rank)
// data[0] is replaced by the aggregated sparse gradient, the one every GPU
// holds after step 4.  The other buffers are scratch: on return they hold
// what step 1 left there (each owned shard's node sum), not the aggregate.
// In timing-only mode (data empty) only the clocks advance.
HiTopKBreakdown hitopk_comm(simnet::Cluster& cluster, const RankData& data,
                            size_t elems, const HiTopKOptions& options,
                            double start);

}  // namespace hitopk::coll
