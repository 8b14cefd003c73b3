#include "simgpu/gpu_model.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "models/calibration.h"

namespace hitopk::simgpu {
namespace {

using models::Calibration;

// FP32 element size on the device.
constexpr size_t kFp32 = 4;
constexpr double kLaunch = Calibration::gpu_kernel_launch;
// Effective bandwidth of each access pattern (bytes / second).
constexpr double kCoalescedBandwidth =
    Calibration::gpu_hbm_bandwidth * Calibration::gpu_coalesced_efficiency;
constexpr double kSortBandwidth =
    Calibration::gpu_hbm_bandwidth * Calibration::gpu_sort_pass_efficiency;
constexpr double kGatherBandwidth =
    Calibration::gpu_hbm_bandwidth * Calibration::gpu_gather_efficiency;

// ceil(log2(n)) for n >= 1.
int ceil_log2(size_t n) {
  int bits = 0;
  size_t v = 1;
  while (v < n) {
    v <<= 1;
    ++bits;
  }
  return bits;
}

}  // namespace

double GpuCostModel::coalesced_pass_seconds(size_t bytes) const {
  return kLaunch + static_cast<double>(bytes) / kCoalescedBandwidth;
}

double GpuCostModel::sort_pass_seconds(size_t bytes) const {
  return kLaunch + static_cast<double>(bytes) / kSortBandwidth;
}

double GpuCostModel::exact_topk_seconds(size_t d) const {
  if (d == 0) return 0.0;
  // Bitonic sort: stage s has s merge passes; total L(L+1)/2 passes, each
  // reading + writing the full key array.
  const int levels = std::max(1, ceil_log2(d));
  const int passes = levels * (levels + 1) / 2;
  const size_t bytes_per_pass = d * kFp32 * 2;  // read+write
  return static_cast<double>(passes) * sort_pass_seconds(bytes_per_pass);
}

double GpuCostModel::dgc_topk_seconds(size_t d, double effective_fraction) const {
  if (d == 0) return 0.0;
  HITOPK_CHECK(effective_fraction > 0.0 && effective_fraction <= 1.0);
  // Sample + hierarchical re-selection modelled as one exact selection over
  // the calibrated effective volume, plus the full-input threshold scan,
  // stream compaction of candidates, and two host syncs for the retry logic.
  const auto effective = static_cast<size_t>(
      std::max(1.0, effective_fraction * static_cast<double>(d)));
  const double selection = exact_topk_seconds(effective);
  const double scan = coalesced_pass_seconds(d * kFp32);
  const double compaction =
      kLaunch + static_cast<double>(d) * kFp32 / (kGatherBandwidth * 4.0);
  return selection + scan + compaction + Calibration::gpu_host_sync;
}

double GpuCostModel::mstopk_seconds(size_t d, size_t k, int n_samplings) const {
  if (d == 0) return 0.0;
  const size_t pass_bytes = d * kFp32;
  // abs + mean + max fused statistics (3 passes in the worst case).
  double t = 3.0 * coalesced_pass_seconds(pass_bytes);
  // N counting passes; each is a coalesced read with a block-local popcount.
  t += static_cast<double>(n_samplings) * coalesced_pass_seconds(pass_bytes);
  // Two compaction passes (certain set + band) and the k-element gather.
  t += 2.0 * coalesced_pass_seconds(pass_bytes);
  t += kLaunch + static_cast<double>(k) * kFp32 / kGatherBandwidth;
  return t;
}

double GpuCostModel::elementwise_seconds(size_t d, int n_tensors) const {
  const size_t bytes = d * kFp32 * (static_cast<size_t>(n_tensors) + 1);
  return coalesced_pass_seconds(bytes);
}

double GpuCostModel::scatter_add_seconds(size_t nnz) const {
  return kLaunch +
         static_cast<double>(nnz) * (kFp32 + 4) / kGatherBandwidth;
}

double GpuCostModel::lars_seconds(size_t layers, size_t total_params,
                                  int ops_per_layer) const {
  // Memory traffic: read weights + gradients once each.
  const double traffic =
      static_cast<double>(total_params) * kFp32 * 2.0 / kCoalescedBandwidth;
  // Per-layer op scheduling: norms, divisions, clips — launched per layer.
  const double op_overhead = static_cast<double>(layers) *
                             static_cast<double>(ops_per_layer) *
                             Calibration::gpu_framework_op_overhead;
  return traffic + op_overhead;
}

}  // namespace hitopk::simgpu
