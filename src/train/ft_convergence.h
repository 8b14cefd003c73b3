// Fault-tolerant convergence: run_convergence through a FaultPlan script.
//
// Drives a ConvergenceEngine one iteration at a time along a simulated wall
// clock, consuming the plan's preemption script as timed events and applying
// one of the two recovery policies of scenario.h at *worker* granularity:
//
//   kAbortRestart — a preemption kills the job; the driver charges
//     detection + restart, rolls the engine back to the newest *valid*
//     checkpoint in the CheckpointStore (a corrupt newest version falls back
//     to the previous one — never a crash), and re-runs the lost iterations
//     on a full world.  Every preemption event inside the recovery window is
//     absorbed: no job was running for it to kill.
//
//   kElasticContinue — only the in-flight iteration's time is lost; the
//     engine drops the worker (its error-feedback residual folds into the
//     survivors per the documented remap policy) and continues at the
//     smaller world.  Scripted recover_times re-grow the world.  If every
//     worker dies the driver stalls to the first scripted return, or ends
//     with completed = false when there is none.
//
// Checkpoints are committed every checkpoint_interval iterations under both
// policies into a two-version CheckpointStore ring; the write cost is priced
// from the *actual serialized blob size* against checkpoint_write_gbps
// (0 = free writes, the pure-convergence view).  Compute time per iteration is scaled by the worst fault-plan
// degradation factor over the active workers' nodes, and communication time
// is the engine's own simulated collective time — so the wall clock, the
// convergence curve, and the fault script stay one deterministic story.
// An elastic regrow or shrink charges a fixed 0.5 s of rendezvous and
// re-derivation on top of the plan's detection timeout.
#pragma once

#include <functional>

#include "simnet/fault.h"
#include "train/checkpoint.h"
#include "train/convergence.h"
#include "train/scenario.h"

namespace hitopk::train {

struct FtOptions {
  ConvergenceOptions training;
  simnet::FaultPlan faults;
  RecoveryPolicy policy = RecoveryPolicy::kElasticContinue;

  int checkpoint_interval = 50;   // iterations between checkpoint commits
  double checkpoint_write_gbps = 0.0;  // 0 = free checkpoint writes

  // Wall-clock model: seconds of compute per iteration (scaled by the fault
  // plan's degradation factor) on top of the engine's simulated
  // communication seconds.
  double compute_seconds_per_iter = 0.05;
  double restart_seconds = 30.0;     // abort-restart: re-provision + reload

  // Called after every checkpoint commit (fault-injection hook: corruption
  // tests flip bytes in the just-committed blob via store.mutable_blob and
  // watch the next restore fall back).
  std::function<void(CheckpointStore&, uint64_t version)> after_commit;
};

struct FtResult {
  ConvergenceResult convergence;
  double wall_seconds = 0.0;
  int preemptions = 0;         // preemption events that hit a live worker
  int regrows = 0;             // elastic: workers that rejoined
  int restores = 0;            // abort-restart: checkpoint rollbacks
  int lost_iterations = 0;     // iterations re-run after rollbacks
  int checkpoint_commits = 0;
  int checkpoint_fallbacks = 0;  // corrupt versions skipped on restore
  double checkpoint_seconds_total = 0.0;
  int min_active_workers = 0;
  bool completed = true;  // false if the world died with no scripted return
};

// Trains `task` under the fault script.  Deterministic: same task, options,
// and plan give a bit-identical result.  With an empty plan and default
// costs the convergence curve is bitwise-identical to run_convergence.
// `store` is the checkpoint ring the run commits to and restores from;
// passing it in lets tests corrupt blobs between iterations (and callers
// warm-start from a previous run's snapshots).
FtResult run_convergence_ft(ConvergenceTask& task, const FtOptions& options,
                            CheckpointStore* store = nullptr);

// One scripted preemption of worker `rank`, or its return when `recovery`.
struct WorkerEvent {
  double time = 0.0;
  int rank = 0;
  bool recovery = false;
};

// The plan's preemption script over workers [0, world) as a time-ordered,
// consumed-once event list: each scripted window contributes a death event
// and, when it recovers inside the horizon, a return event.  Equal times
// keep script order.
std::vector<WorkerEvent> worker_events(const simnet::FaultPlan& plan,
                                       int world);

// The plan's worst degradation factor (>= 1) at time `t` over the nodes of
// `engine`'s active workers, where local worker w is global worker
// first_worker + w.
double worst_degradation(const ConvergenceEngine& engine,
                         const simnet::FaultPlan& plan, int first_worker,
                         double t);

}  // namespace hitopk::train
