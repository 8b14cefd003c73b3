// Fault-injected training timeline: the public-cloud scenario axis.
//
// Wraps TrainingSimulator's per-iteration model in a wall-clock event loop
// driven by a seeded fault script: node-granularity preemptions (spot
// revocations) arriving as a Poisson process, optional node return after a
// provisioning delay, and bursty *correlated-per-pod* compute jitter — a
// whole pod of nodes slows down together for a window (noisy neighbor,
// thermal event), which the constant-cv Gaussian straggler model cannot
// express because it assumes independent per-worker noise.  The burst
// windows are a simnet::FaultPlan degradation script (one entry per pod),
// so this timeline and train::FaultDriver read one event-script format
// under one determinism contract: same seed, same timeline, bit-identical
// metrics.
//
// Two recovery policies, the checkpoint-interval trade-off between them
// being the point of bench_fig11_faults:
//
//   kAbortRestart — the classic fixed-world job: a preemption kills the
//     run, work since the last checkpoint is lost, and the job restarts on
//     a re-provisioned full world after a fixed restart cost.  Short
//     checkpoint intervals bound the lost work but pay the checkpoint
//     write often.
//
//   kElasticContinue — the elastic job: only the in-flight iteration is
//     lost; the survivors re-shard the model state (one full parameter pass
//     over the fabric), re-derive their collectives for the shrunk world
//     (collectives/elastic.h), and continue at the smaller world — at
//     proportionally lower throughput — until the preempted node returns
//     and re-shards back in.
//
// The recovery costs are fixed model constants (scenario.cpp): a 1 s
// keepalive timeout before survivors declare a node dead, 120 s to
// re-provision and reload an aborted job, 2 s of elastic rendezvous and
// re-derivation, and a flat 5 s per checkpoint write unless
// `checkpoint_write_gbps` prices it from the snapshot size.
#pragma once

#include "simnet/fault.h"
#include "train/timeline.h"

namespace hitopk::train {

enum class RecoveryPolicy { kAbortRestart, kElasticContinue };

struct ScenarioOptions {
  TrainerOptions trainer;
  int iterations = 1000;  // useful iterations the job must complete

  // ---- preemption process
  double preempt_rate_per_node_hour = 0.0;  // Poisson intensity per up-node
  // Preempted node returns (re-provisioned spot capacity) after this long;
  // simnet::kNever = never.  Elastic only — abort-restart always restarts
  // on a full world.
  double node_return_seconds = simnet::kNever;

  // ---- recovery policy costs
  RecoveryPolicy policy = RecoveryPolicy::kElasticContinue;
  int checkpoint_interval = 100;     // iterations between checkpoints
  // When positive, the checkpoint write is priced from the snapshot size
  // instead of the flat 5 s: the state a fault-tolerant run
  // snapshots is ~3 parameter planes (weights + optimizer momentum +
  // error-feedback residuals, the ConvergenceEngine serialization) at 4
  // bytes each, streamed to durable storage at this rate.  0 keeps the
  // legacy flat cost.
  double checkpoint_write_gbps = 0.0;

  // ---- bursty correlated-per-pod jitter (FaultPlan degradation script)
  double burst_rate_per_pod_hour = 0.0;
  double burst_duration_seconds = 30.0;
  double burst_factor = 1.25;  // compute multiplier while a pod bursts
  int nodes_per_pod = 4;       // pod grouping for the burst correlation

  uint64_t seed = 42;
};

struct ScenarioResult {
  double wall_seconds = 0.0;
  // Useful samples per wall second vs the fault-free full-world rate.
  double goodput = 0.0;
  double ideal_throughput = 0.0;
  double goodput_fraction = 0.0;
  // Compute seconds thrown away (partial iterations at preemptions plus
  // rolled-back work under abort-restart) as a fraction of wall time.
  double lost_work_fraction = 0.0;
  // Mean seconds from a preemption to training running again.
  double mean_time_to_recover = 0.0;
  int preemptions = 0;
  int rescales = 0;   // elastic world-size changes (shrink + regrow)
  int restarts = 0;   // abort-restart recoveries
  double checkpoint_seconds_total = 0.0;
  // Wall-time share spent writing checkpoints (the interval trade-off axis
  // of bench_fig11_faults: short intervals bound lost work but raise this).
  double checkpoint_overhead_fraction = 0.0;
  int min_world_nodes = 0;  // smallest node count the job ran at
  int useful_iterations = 0;
  bool completed = true;  // false if the world died out with no returns
};

// Simulates the job on a uniform `topology`.  Throws ConfigError on an
// uneven topology, on non-positive iterations, checkpoint_interval or
// nodes_per_pod, on negative rates, write rate or node_return_seconds, and
// on burst_factor < 1.  Deterministic in options.seed.
ScenarioResult simulate_scenario(const simnet::Topology& topology,
                                 const ScenarioOptions& options);

}  // namespace hitopk::train
