#include "train/ft_convergence.h"

#include <algorithm>

#include "core/check.h"

namespace hitopk::train {

// Elastic: rendezvous + re-derivation per regrow or shrink (seconds).
constexpr double kRescheduleSeconds = 0.5;

std::vector<WorkerEvent> worker_events(const simnet::FaultPlan& plan,
                                       int world) {
  std::vector<WorkerEvent> events;
  for (const simnet::Preemption& p : plan.preemptions()) {
    if (p.rank >= world) continue;
    events.push_back(WorkerEvent{p.time, p.rank, false});
    if (p.recover_time < simnet::kNever) {
      events.push_back(WorkerEvent{p.recover_time, p.rank, true});
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const WorkerEvent& a, const WorkerEvent& b) {
                     return a.time < b.time;
                   });
  return events;
}

double worst_degradation(const ConvergenceEngine& engine,
                         const simnet::FaultPlan& plan, int first_worker,
                         double t) {
  const int gpus = engine.options().gpus_per_node;
  double degrade = 1.0;
  for (int w = 0; w < engine.world(); ++w) {
    if (!engine.worker_active(w)) continue;
    degrade =
        std::max(degrade, plan.degrade_factor((first_worker + w) / gpus, t));
  }
  return degrade;
}

FtResult run_convergence_ft(ConvergenceTask& task, const FtOptions& options,
                            CheckpointStore* store_ptr) {
  HITOPK_VALIDATE(options.checkpoint_interval > 0);
  HITOPK_VALIDATE(options.compute_seconds_per_iter >= 0.0);
  HITOPK_VALIDATE(options.checkpoint_write_gbps >= 0.0);

  CheckpointStore local_store;
  CheckpointStore& store = store_ptr ? *store_ptr : local_store;
  ConvergenceEngine engine(task, options.training);
  const simnet::FaultPlan& plan = options.faults;

  // Consuming the script's events exactly once — rather than polling
  // alive() — is what lets abort-restart make progress against a permanent
  // preemption: the restarted full world stands for re-provisioned
  // capacity, not the same doomed machine.
  const std::vector<WorkerEvent> events = worker_events(plan, engine.world());

  FtResult out;
  out.min_active_workers = engine.world();
  double t = 0.0;
  size_t next_event = 0;
  int since_checkpoint = 0;
  const int fallbacks_before = store.fallbacks();

  auto commit_checkpoint = [&] {
    std::vector<uint8_t> blob = engine.serialize();
    if (options.checkpoint_write_gbps > 0.0) {
      const double cost = static_cast<double>(blob.size()) /
                          (options.checkpoint_write_gbps * 1e9);
      t += cost;
      out.checkpoint_seconds_total += cost;
    }
    const uint64_t version = store.commit(std::move(blob));
    ++out.checkpoint_commits;
    if (options.after_commit) options.after_commit(store, version);
  };
  // The initial state doubles as the rollback target of last resort: if
  // every retained checkpoint version fails validation, a restart
  // re-provisions from the job spec instead of crashing.
  const std::vector<uint8_t> genesis = engine.serialize();
  commit_checkpoint();  // t = 0 snapshot: the first rollback target

  while (!engine.done()) {
    while (next_event < events.size() && events[next_event].time <= t) {
      const WorkerEvent ev = events[next_event++];
      if (ev.recovery) {
        if (options.policy == RecoveryPolicy::kElasticContinue &&
            !engine.worker_active(ev.rank)) {
          engine.restore_worker(ev.rank);
          ++out.regrows;
          t += kRescheduleSeconds;
        }
        // Abort-restart ignores returns: restarts already re-provision a
        // full world.
        continue;
      }
      if (options.policy == RecoveryPolicy::kAbortRestart) {
        ++out.preemptions;
        t += plan.detection_timeout() + options.restart_seconds;
        const auto snapshot = store.newest_valid();
        const int iter_before = engine.iter();
        engine.restore(snapshot ? *snapshot->blob : genesis);
        ++out.restores;
        out.lost_iterations += iter_before - engine.iter();
        since_checkpoint = 0;
        // Absorb events inside the recovery window: no job was running for
        // them to kill.
        while (next_event < events.size() && events[next_event].time <= t) {
          ++next_event;
        }
      } else if (engine.worker_active(ev.rank)) {
        ++out.preemptions;
        engine.preempt_worker(ev.rank);
        t += plan.detection_timeout() + kRescheduleSeconds;
        // Record the shrunken world here, not just after a step: the
        // detection + reschedule cost can carry t past a scripted return,
        // in which case the smallest world never takes a step.  An empty
        // world is a stall, not a world size.
        if (engine.active_workers() > 0) {
          out.min_active_workers =
              std::min(out.min_active_workers, engine.active_workers());
        }
      }
    }

    if (options.policy == RecoveryPolicy::kElasticContinue &&
        engine.active_workers() == 0) {
      // Whole world gone: stall until the first scripted return, or give up.
      double stall = simnet::kNever;
      for (size_t i = next_event; i < events.size(); ++i) {
        if (events[i].recovery) {
          stall = events[i].time;
          break;
        }
      }
      if (stall == simnet::kNever) {
        out.completed = false;
        break;
      }
      t = std::max(t, stall);
      continue;
    }

    if (!engine.epoch_open()) engine.begin_epoch();
    const double degrade = worst_degradation(engine, plan, 0, t);
    engine.step();
    t += options.compute_seconds_per_iter * degrade +
         engine.last_step_comm_seconds();
    out.min_active_workers =
        std::min(out.min_active_workers, engine.active_workers());
    if (engine.step_in_epoch() == engine.iters_per_epoch()) {
      engine.end_epoch();
    }
    ++since_checkpoint;
    if (since_checkpoint >= options.checkpoint_interval && !engine.done()) {
      commit_checkpoint();
      since_checkpoint = 0;
    }
  }

  out.convergence = engine.result();
  out.wall_seconds = t;
  out.checkpoint_fallbacks = store.fallbacks() - fallbacks_before;
  return out;
}

}  // namespace hitopk::train
