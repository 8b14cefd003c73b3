// Distributed convergence harness (Fig. 10 / Table 2).
//
// Runs real data-parallel SGD over the simulated cluster: every worker rank
// computes a real mini-batch gradient (autodiff), gradients are aggregated
// through the *functional* collectives — dense ring All-Reduce, exact top-k
// + NaiveAG, or MSTopK + HiTopKComm with shard-level error feedback — and
// the shared parameters are updated.  Because HiTopKComm aggregates densely
// inside each node before sparsifying, MSTopK-SGD sees less selection noise
// than flat TopK-SGD, the mechanism behind the paper's Table 2 ordering.
//
// The loop is factored into ConvergenceEngine, a stepwise core that the
// fault-tolerant layers drive one iteration at a time: it checkpoints its
// complete state (parameters, optimizer momentum, error-feedback residuals,
// RNG streams, epoch bookkeeping) into checksummed blobs, and it supports
// elastic worker preemption/return mid-run with a documented residual remap
// policy (docs/INTERNALS.md); MSTopK-SGD runs HiTopKComm on every survivor
// world, uneven ones included.  run_convergence() is the fault-free wrapper
// (outputs frozen by EngineGolden rows in tests/checkpoint_test.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "collectives/common.h"
#include "collectives/elastic.h"
#include "compress/error_feedback.h"
#include "core/rng.h"
#include "pto/lars.h"
#include "simnet/topology.h"
#include "train/synthetic.h"

namespace hitopk::train {

enum class ConvergenceAlgorithm {
  kDense,    // ring All-Reduce of full gradients (Dense-SGD with TreeAR/2DTAR)
  kTopk,     // per-worker exact top-k + error feedback + NaiveAG (TopK-SGD)
  kMstopk,   // Alg. 2: intra-node dense + per-shard MSTopK + EF (MSTopK-SGD)
  kRandomk,  // random-k + error feedback (ablation: magnitude matters)
  kGtopk,    // global top-k via recursive doubling (Shi et al. 2019c)
  kLocalSgd, // H local steps, then parameter averaging (comm-avoidance
             // baseline orthogonal to compression)
};

std::string convergence_algorithm_name(ConvergenceAlgorithm algorithm);

struct ConvergenceOptions {
  int nodes = 4;
  int gpus_per_node = 4;
  ConvergenceAlgorithm algorithm = ConvergenceAlgorithm::kDense;
  double density = 0.01;
  int epochs = 40;
  int local_batch = 8;
  double learning_rate = 0.08;
  double momentum = 0.9;
  int warmup_epochs = 3;
  bool use_error_feedback = true;
  int mstopk_samplings = 30;
  // MSTopK selection (MsTopKMode): the histogram bracket search, or with
  // false the paper-literal multi-pass binary search (docs/INTERNALS.md).
  bool mstopk_histogram = true;
  // Optimizer: plain momentum SGD, or LARS with per-layer trust ratios
  // (Eq. 11) applied over the task's layer segments — the large-batch
  // regime of §2.2.
  bool use_lars = false;
  // Synchronization period H for kLocalSgd (average parameters every H
  // iterations).
  int local_sgd_period = 4;
  // Round every worker gradient through this wire dtype before aggregation
  // (the mixed-precision wire of §5.3, generalized to the typed-payload
  // codecs of compress/wire_codec.h: kFp16 or the int8 quantizer);
  // validates that communication precision does not change the convergence
  // story.  kFp32 is the exact baseline.  kLocalSgd sends parameters, not
  // gradients, so it rejects any other wire with a ConfigError.
  compress::WireDtype gradient_wire = compress::WireDtype::kFp32;
  uint64_t seed = 42;

  int world() const { return nodes * gpus_per_node; }
};

struct EpochPoint {
  int epoch = 0;
  double train_loss = 0.0;
  double quality = 0.0;        // held-out metric in [0, 1]
  double residual_norm = 0.0;  // error-feedback residual magnitude
};

struct ConvergenceResult {
  std::vector<EpochPoint> curve;
  double final_quality = 0.0;
  double best_quality = 0.0;
  // Simulated communication seconds accumulated over all iterations (lets
  // benches plot quality against simulated wall-clock, not just epochs).
  double simulated_comm_seconds = 0.0;
};

// The stepwise convergence core.  Epochs are explicit brackets —
//
//   while (!engine.done()) {
//     if (!engine.epoch_open()) engine.begin_epoch();
//     engine.step();
//     if (engine.step_in_epoch() == engine.iters_per_epoch())
//       engine.end_epoch();
//   }
//
// — so a driver can interleave fault events, checkpoints, and rescales at
// iteration boundaries.  Elastic world control: preempt_worker() removes a
// worker (its batch shard is simply skipped — the global batch shrinks —
// and its error-feedback residual is folded into survivors or flushed into
// a pending correction; see docs/INTERNALS.md "EF residual remap policy"),
// restore_worker() brings one back with the shared model and cold optimizer
// state.  serialize()/restore() round-trip the complete training state
// bitwise: a restored engine continues the exact run, including RNG streams
// and mid-epoch position.
class ConvergenceEngine {
 public:
  // Throws ConfigError on options it cannot run: an empty world, a
  // non-positive local batch, negative epochs or warmup, a learning rate
  // that is not finite and positive, a momentum outside [0, 1), a global
  // batch larger than the training set, a sparse density outside (0, 1],
  // non-positive MSTopK samplings or LocalSGD period, or a non-fp32
  // gradient wire with LocalSGD.
  ConvergenceEngine(ConvergenceTask& task, const ConvergenceOptions& options);

  // ---- loop structure
  int iters_per_epoch() const { return iters_per_epoch_; }
  int iter() const { return iter_; }
  int epoch() const { return epoch_; }  // completed epochs
  int step_in_epoch() const { return step_in_epoch_; }
  bool epoch_open() const { return epoch_open_; }
  bool done() const { return epoch_ >= options_.epochs; }

  void begin_epoch();
  // One training iteration: per-worker gradients over the active workers,
  // aggregation through the functional collectives on the (possibly shrunk)
  // simulated cluster, optimizer step.  Requires an open epoch and at least
  // one active worker.
  void step();
  EpochPoint end_epoch();

  // ---- wall-model hooks
  double comm_seconds() const { return comm_seconds_; }
  // Simulated communication seconds of the most recent step() (what a
  // wall-clock fault driver adds to its timeline per iteration).
  double last_step_comm_seconds() const { return last_step_comm_seconds_; }

  // ---- elastic world control
  int world() const { return world_; }
  int active_workers() const { return active_count_; }
  bool worker_active(int w) const;
  // Removes worker `w` from the active set (idempotent).  May leave zero
  // active workers; step() then refuses to run until restore_worker().
  void preempt_worker(int w);
  // Returns worker `w` to the active set (idempotent): it rejoins with the
  // shared model parameters and cold (zero) per-worker optimizer state.
  void restore_worker(int w);

  // ---- checkpointing
  // Complete state as a checksummed checkpoint blob (train/checkpoint.h).
  std::vector<uint8_t> serialize() const;
  // Restores a serialize() blob; throws ConfigError on corruption or on a
  // blob from an incompatible run (different world/task/algorithm).
  void restore(std::span<const uint8_t> blob);

  // ---- LTFB tournament support
  // Overwrites the model with `params` (the tournament winner) and clears
  // optimizer momentum + EF residuals, which describe the replaced model.
  void adopt_params(std::span<const float> params);

  ConvergenceResult result() const;
  const ConvergenceOptions& options() const { return options_; }
  ConvergenceTask& task() { return task_; }
  const simnet::Topology& topology() const { return topology_; }
  // The world the active workers form: topology() while every worker is
  // active, the densely renumbered survivor world otherwise.  Requires at
  // least one active worker.
  const simnet::Topology& active_topology() const;

 private:
  void rebuild_active_caches();
  void remap_ef_for_world_change(const std::vector<int>& old_active,
                                 const std::vector<int>& new_active);
  void flush_residual_to_pending(std::span<const float> values, size_t begin);
  void ensure_worker_keys();
  double lr_at(int iter) const;
  void average_worker_params(simnet::Cluster& cluster);
  void aggregate_dense(simnet::Cluster& cluster);
  void aggregate_sparse_workers(simnet::Cluster& cluster, bool random_k);
  void aggregate_gtopk(simnet::Cluster& cluster);
  void aggregate_mstopk(simnet::Cluster& cluster);

  ConvergenceTask& task_;
  ConvergenceOptions options_;
  int world_ = 0;
  size_t d_ = 0;
  size_t global_batch_ = 0;
  simnet::Topology topology_;
  int iters_per_epoch_ = 0;
  int warmup_iters_ = 0;
  int total_iters_ = 0;
  bool local_sgd_ = false;

  std::vector<Tensor> worker_grads_;
  compress::ErrorFeedback error_feedback_;
  pto::SgdOptimizer sgd_;
  pto::LarsOptimizer lars_;
  std::vector<Tensor> worker_params_;  // kLocalSgd per-worker copies
  Rng shuffle_rng_;
  Rng compressor_rng_;
  std::vector<std::string> worker_keys_;
  std::vector<size_t> order_;
  std::vector<double> worker_loss_;

  // Elastic state.  active_idx_ lists active original worker ids ascending
  // and active_grads_ their gradient buffers, in the same order: the rank
  // data of active_topology().  shrunk_ is the dense survivor world (valid
  // while active_count_ < world_ and > 0).  pending_correction_ carries
  // error-feedback mass flushed at a rescale until the next update delivers
  // it.
  std::vector<uint8_t> active_;
  int active_count_ = 0;
  std::vector<int> active_idx_;
  coll::RankData active_grads_;
  coll::SurvivorWorld shrunk_;
  Tensor pending_correction_;
  bool has_pending_correction_ = false;

  double comm_seconds_ = 0.0;
  double last_step_comm_seconds_ = 0.0;
  int iter_ = 0;
  int epoch_ = 0;
  int step_in_epoch_ = 0;
  bool epoch_open_ = false;
  double epoch_loss_ = 0.0;
  ConvergenceResult result_;
};

// Trains `task` in place (its parameters are updated).  Fault-free: drives
// a ConvergenceEngine through every epoch.
ConvergenceResult run_convergence(ConvergenceTask& task,
                                  const ConvergenceOptions& options);

}  // namespace hitopk::train
