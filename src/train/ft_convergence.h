// Fault-tolerant convergence: run_convergence through a FaultPlan script.
//
// Drives a ConvergenceEngine one iteration at a time along a simulated wall
// clock, consuming the plan's preemption script as timed events and applying
// one of the two recovery policies of scenario.h at *worker* granularity:
//
//   kAbortRestart — a preemption kills the job; the driver charges
//     detection + a fixed 5 s restart, rolls the engine back to the newest
//     *valid* checkpoint in the CheckpointStore (a corrupt newest version
//     falls back to the previous one — never a crash), and re-runs the lost
//     iterations on a full world.  Every preemption event inside the
//     recovery window is absorbed: no job was running for it to kill.
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
// (0 = free writes, the pure-convergence view).  The wall clock is the
// FaultDriver's (below), shared with LTFB (ltfb.h), so the clock, the
// convergence curve, and the fault script stay one deterministic story.
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

// The fault-event driver of run_convergence_ft and run_ltfb: the plan's
// preemption script replayed once, in time order, against one or more
// engines ("populations") that step in lockstep.  Population p's local
// worker w is global worker p * world + w; script entries past the last
// population are dropped.  Every elastic regrow or shrink charges a fixed
// 0.5 s of rendezvous and re-derivation on top of the plan's detection
// timeout, and a lockstep iteration costs 0.05 s of compute scaled by the
// plan's worst degradation factor over the active workers' nodes, plus the
// engine's own simulated collective time.
class FaultDriver {
 public:
  // `engines` share one world size and outlive the driver.
  FaultDriver(const simnet::FaultPlan& plan,
              std::vector<ConvergenceEngine*> engines);

  // Applies the next event due at or before `t` and charges its cost to
  // `t`: a return restores its worker, a preemption of an active worker
  // removes it.  Returns the event's population, or -1 when none is due.
  // Events for a population marked out are consumed with no effect.
  int consume(double& t);
  // Abort-restart's view of the same cursor: consumes due events up to and
  // including the next preemption, touching no engine.  False when none.
  bool consume_preemption(double t);
  void skip_through(double t);  // consumes every due event with no effect
  double next_return() const;   // first pending return; kNever when none

  // One lockstep iteration, at wall time `t`, of every population not
  // marked out, opening and closing epochs as needed.  Returns its cost:
  // the slowest population's step.
  double step(double t);

  void mark_out(int population) { out_[population] = true; }
  bool out(int population) const { return out_[population]; }
  // Preemptions of live workers (abort-restart: every one consumed).
  int preemptions() const { return preemptions_; }
  int regrows() const { return regrows_; }

 private:
  struct Event {
    double time = 0.0;
    int rank = 0;  // global worker
    bool recovery = false;
  };

  const simnet::FaultPlan& plan_;
  std::vector<ConvergenceEngine*> engines_;
  std::vector<bool> out_;
  std::vector<Event> events_;  // stable-sorted by time
  size_t next_ = 0;
  int preemptions_ = 0;
  int regrows_ = 0;
};

}  // namespace hitopk::train
