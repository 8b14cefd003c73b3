// Iteration timeline simulator: the end-to-end training-system model.
//
// Composes every substrate — PerfModel (FF&BP), DataCache (I/O), the
// compression cost models, the cluster collectives, and LARS/PTO — into one
// simulated training iteration with the paper's pipelining structure:
// prefetched I/O, wait-free backpropagation (per-bucket collectives launched
// as gradients materialize), a compression stream, and the LARS + update
// tail.  Produces the Fig. 1 breakdown (elapsed time that cannot be
// overlapped) and the Table 3/4 throughput / scaling-efficiency numbers.
// Gradients travel as FP16 (§5.3), prefetched I/O overlaps the pipeline,
// and the framework overheads are Table 3's (models/calibration.h).
#pragma once

#include <string>

#include "collectives/common.h"
#include "data/datacache.h"
#include "simgpu/gpu_model.h"
#include "simnet/cluster.h"
#include "simnet/topology.h"

namespace hitopk::train {

enum class Algorithm {
  kDenseTree,     // Dense-SGD: Horovod/NCCL double-binary-tree All-Reduce
  kDense2dTorus,  // 2DTAR-SGD: hierarchical dense All-Reduce (CommLib)
  kTopkNaiveAg,   // TopK-SGD: exact top-k + flat sparse All-Gather
  kMstopkHitopk,  // MSTopK-SGD: MSTopK + HiTopKComm (the paper's system)
};

std::string algorithm_name(Algorithm algorithm);

struct TrainerOptions {
  std::string model = "resnet50";
  int resolution = 224;
  int local_batch = 256;
  Algorithm algorithm = Algorithm::kMstopkHitopk;
  // Gradient density for the sparse algorithms.
  double density = 0.001;
  bool use_datacache = true;
  bool use_pto = true;
  bool overlap_comm = true;  // wait-free backpropagation
  size_t fusion_bytes = size_t{64} << 20;
  int mstopk_samplings = 30;
  // Coefficient of variation of per-GPU compute time (virtualization
  // jitter).  Synchronous SGD waits for the slowest of P workers; the
  // expected straggler penalty is modelled by the Gaussian order statistic
  // E[max of P] ~ 1 + cv * sqrt(2 ln P).  0 disables straggler modelling.
  double straggler_cv = 0.0;
};

struct IterationBreakdown {
  // Exposed (non-overlapped) seconds per phase; they sum to `total`.
  double io = 0.0;
  double ffbp = 0.0;
  double compression = 0.0;
  double communication = 0.0;
  double lars = 0.0;      // LARS rates + weight update
  double overhead = 0.0;  // framework tax
  double total = 0.0;
  // Cluster-wide samples/second.
  double throughput = 0.0;
};

class TrainingSimulator {
 public:
  // Raises ConfigError when an option is out of range: a non-positive
  // resolution, local batch or mstopk_samplings, a density outside (0, 1],
  // or a negative or non-finite straggler_cv.
  TrainingSimulator(simnet::Topology topology, TrainerOptions options);

  // Steady-state training iteration (caches warm when DataCache is on).
  IterationBreakdown simulate_iteration();

  // Same pipeline with an externally supplied raw (pre-overlap) per-
  // iteration I/O time — the DAWNBench simulator drives this with a
  // persistent DataCache whose state evolves across epochs.
  // `compute_multiplier` scales the (straggler-adjusted) FF&BP time: the
  // fault-scenario simulator drives it with the slowest pod's bursty-jitter
  // factor (>= 1), on top of the steady-state straggler_cv model.
  IterationBreakdown simulate_with_io(double raw_io,
                                      double compute_multiplier = 1.0);

  // Raw (pre-overlap) I/O seconds per iteration for one node's workers —
  // public so timeline drivers (DAWNBench, fault scenarios) can price it
  // once and replay simulate_with_io many times.
  double raw_io_seconds();

  // The same workload on one GPU (no communication, no compression) — the
  // scaling-efficiency denominator.
  IterationBreakdown simulate_single_gpu();

  // throughput(P GPUs) / (P * throughput(1 GPU)).
  double scaling_efficiency();

  const TrainerOptions& options() const { return options_; }
  const simnet::Topology& topology() const { return topology_; }

 private:
  simnet::Topology topology_;
  TrainerOptions options_;
  simgpu::GpuCostModel gpu_;
};

}  // namespace hitopk::train
