// Analytical V100 device cost model.
//
// Substitution for real GPU hardware (see DESIGN.md): every operator the
// paper times on a V100 is described by its kernel-pass structure — how many
// passes over how many bytes, and whether each pass is coalesced (streaming)
// or irregular (sort/gather).  Time = sum over passes of
//     launch_latency + bytes_touched / (hbm_bandwidth * access_efficiency).
//
// This reproduces the architectural argument of Fig. 6: exact top-k needs
// O(log^2 d) data-wide sort passes at poor (irregular) efficiency, DGC needs
// two smaller exact selections plus compaction, and MSTopK needs only N
// coalesced counting passes.  The device constants are the V100 anchors of
// models/calibration.h, so the absolute numbers land near the paper's.
#pragma once

#include <cstddef>

namespace hitopk::simgpu {

class GpuCostModel {
 public:
  // One streaming pass reading (and optionally writing) `bytes`.
  double coalesced_pass_seconds(size_t bytes) const;

  // One sort-network pass over `bytes` (irregular access).
  double sort_pass_seconds(size_t bytes) const;

  // Exact top-k (TF nn.topk): bitonic-style full sort, ceil(log2 d) stages
  // of increasing length => L(L+1)/2 passes over the data.
  double exact_topk_seconds(size_t d) const;

  // DGC double sampling: exact selection over an effective fraction of the
  // input (sample sort + hierarchical candidate re-selection + stream
  // compaction) plus host syncs.  effective_fraction is calibrated; the
  // paper gives relative, not absolute, DGC cost.
  double dgc_topk_seconds(size_t d, double effective_fraction = 0.5) const;

  // MSTopK (Alg. 1): 3 setup passes (abs/mean/max), n_samplings coalesced
  // counting passes, 2 compaction passes, one gather of k elements.
  double mstopk_seconds(size_t d, size_t k, int n_samplings = 30) const;

  // Elementwise kernel touching n_tensors inputs + one output of d elements.
  double elementwise_seconds(size_t d, int n_tensors = 1) const;

  // Scatter-add of nnz sparse elements into a dense buffer.
  double scatter_add_seconds(size_t nnz) const;

  // Layer-wise LARS (Eq. 11) over `layers` tensors totalling `total_params`
  // elements: per layer, two norms plus a handful of scalar ops; per-op
  // framework overhead dominates (ops_per_layer calibrated to §5.4).
  double lars_seconds(size_t layers, size_t total_params,
                      int ops_per_layer = 12) const;
};

}  // namespace hitopk::simgpu
