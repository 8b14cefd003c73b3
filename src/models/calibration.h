// Central calibration constants for the simulated substrate.
//
// Every constant that anchors simulated time to the paper's measurements
// lives here, so the calibration story is auditable in one place.  Sources:
//   - Table 1 / §5.1: instance NICs (25 GbE Tencent, 32 GbE Aliyun) and
//     V100 + NVLink nodes;
//   - §5.5.2: single-GPU mixed-precision throughputs (ResNet-50 1150,
//     VGG-19 560, Transformer 32 samples/s);
//   - Table 4: single-GPU throughput per input resolution;
//   - Fig. 6: nn.topk ~1.2 s at 128 M elements; MSTopK negligible;
//   - Fig. 1: exact top-k compression 0.239 s vs FF&BP 0.204 s at 224^2;
//   - §5.4: LARS 11 ms (ResNet-50) / 30 ms (Transformer) on one GPU;
//   - Fig. 1 / Fig. 9: naive NFS input ~50 ms per 256-sample batch, ~10x
//     less through the DataCache;
//   - Table 3: per-iteration framework overheads.
#pragma once

#include <cstddef>

namespace hitopk::models {

struct Calibration {
  // ---- network (see simnet/topology.cpp presets)
  // NCCL sparse All-Gather over a *flat world-scale ring* on cloud TCP
  // reaches only ~20-30% of line rate (consistent with Fig. 7's NaiveAG
  // series): per-ring-step proxy/synchronization overhead at P = 128.
  // Hierarchical schemes (2DTAR, HiTopKComm) run short m-rank rings and do
  // not pay it.
  static constexpr double flat_ring_step_overhead = 1.0e-3;  // seconds

  // ---- V100 device model (simgpu::GpuCostModel).  Fig. 6 and §5.4.
  // V100-SXM2: 900 GB/s HBM2.
  static constexpr double gpu_hbm_bandwidth = 900e9;  // bytes / second
  // Achievable fraction of peak for fully coalesced streaming passes.
  static constexpr double gpu_coalesced_efficiency = 0.80;
  // Achievable fraction during sort-network passes (irregular strides,
  // bank conflicts); calibrated so nn.topk(128M) lands near Fig. 6's 1.2 s
  // and nn.topk(25.6M) near Fig. 1's 0.239 s compression bar.
  static constexpr double gpu_sort_pass_efficiency = 0.34;
  // Random gather/scatter efficiency (index-driven access).
  static constexpr double gpu_gather_efficiency = 0.08;
  // Kernel launch + scheduling latency per pass.
  static constexpr double gpu_kernel_launch = 5e-6;  // seconds
  // Host<->device synchronization (needed when a selection result must be
  // inspected on the host, as DGC's retry loop does).
  static constexpr double gpu_host_sync = 0.5e-3;  // seconds
  // Framework (TF graph executor) per-op overhead; dominates many-small-op
  // computations such as layer-wise LARS (§5.4: 11 ms for 161 layers).
  static constexpr double gpu_framework_op_overhead = 5.5e-6;  // s per op

  // ---- storage tiers and preprocessing, per node (data::DataCache).
  // Networked file system (CFS in Table 1).
  static constexpr double nfs_latency = 2e-3;  // seconds
  static constexpr double nfs_bandwidth = 600e6;  // bytes / second
  // Local SSD (instance store): 1 TiB.
  static constexpr double ssd_latency = 1e-4;
  static constexpr double ssd_bandwidth = 1.5e9;
  static constexpr size_t ssd_capacity_bytes = size_t{1} << 40;
  // Host memory (key/value store of pre-processed samples).
  static constexpr double ram_latency = 2e-6;
  static constexpr double ram_bandwidth = 10e9;
  // Outstanding parallel read requests (latency amortization across the
  // node's async input pipelines).
  static constexpr int io_parallel_requests = 64;
  // JPEG decode cost per image on one core (source-resolution bound).
  static constexpr double decode_seconds_per_image = 6e-3;
  // Augmentation (crop/mirror/normalize) per image per core at 96x96;
  // scales with output pixel count.
  static constexpr double augment_seconds_per_image_96 = 5e-4;
  // Pre-processing cores per node.
  static constexpr int io_cpu_cores = 32;

  // ---- single-GPU training throughput anchors (samples/s, mixed precision,
  // local batch 256 unless noted).  §5.5.2 and Table 4.
  static constexpr double resnet50_224_throughput = 1150.0;
  static constexpr double vgg19_224_throughput = 560.0;
  static constexpr double transformer_throughput = 32.0;
  // Table 4 anchors (ResNet-50, without LARS/IO overlap accounting).
  static constexpr double resnet50_96_throughput = 4400.0;
  static constexpr double resnet50_128_throughput = 3010.0;
  static constexpr double resnet50_224_dawnbench_throughput = 1240.0;
  static constexpr double resnet50_288_throughput = 710.0;  // batch 128

  // ---- §5.4 LARS anchors (seconds, single GPU, full model).
  static constexpr double lars_resnet50_seconds = 11e-3;
  static constexpr double lars_transformer_seconds = 30e-3;
  // PTO residual framework overhead at 128 GPUs (seconds): the measured PTO
  // times (7 ms / 14 ms) sit far above compute/P + all-gather, reflecting
  // TF graph-partitioning overhead.
  static constexpr double pto_framework_overhead_resnet50 = 6e-3;
  static constexpr double pto_framework_overhead_transformer = 13e-3;

  // ---- per-iteration framework overheads (seconds).  Dense-SGD
  // (stock Horovod) pays per-tensor negotiation on top of a flat cost; the
  // CommLib schemes fuse aggressively (flat only); the sparse path adds
  // bookkeeping kernels (zero/extract/scatter) per iteration.
  static constexpr double framework_overhead_dense = 3e-3;
  static constexpr double framework_overhead_per_tensor = 0.8e-3;
  static constexpr double framework_overhead_torus = 3e-3;
  static constexpr double framework_overhead_sparse = 22e-3;
};

}  // namespace hitopk::models
