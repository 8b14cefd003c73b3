#include "train/ft_convergence.h"

#include <algorithm>

#include "core/check.h"

namespace hitopk::train {
namespace {

// Elastic: rendezvous + re-derivation per regrow or shrink (seconds).
constexpr double kRescheduleSeconds = 0.5;
// Compute seconds per iteration, before the plan's degradation factor.
constexpr double kComputeSecondsPerIter = 0.05;
// Abort-restart: re-provision a full world and reload the checkpoint.
constexpr double kRestartSeconds = 5.0;

}  // namespace

FaultDriver::FaultDriver(const simnet::FaultPlan& plan,
                         std::vector<ConvergenceEngine*> engines)
    : plan_(plan), engines_(std::move(engines)), out_(engines_.size(), false) {
  const int workers =
      static_cast<int>(engines_.size()) * engines_.front()->world();
  for (const simnet::Preemption& p : plan.preemptions()) {
    if (p.rank >= workers) continue;
    events_.push_back(Event{p.time, p.rank, false});
    if (p.recover_time < simnet::kNever) {
      events_.push_back(Event{p.recover_time, p.rank, true});
    }
  }
  std::stable_sort(events_.begin(), events_.end(),
                   [](const Event& a, const Event& b) {
                     return a.time < b.time;
                   });
}

int FaultDriver::consume(double& t) {
  if (next_ == events_.size() || events_[next_].time > t) return -1;
  const Event ev = events_[next_++];
  const int world = engines_.front()->world();
  const int pop = ev.rank / world;
  if (out(pop)) return pop;
  ConvergenceEngine& engine = *engines_[static_cast<size_t>(pop)];
  const int local = ev.rank % world;
  if (ev.recovery) {
    if (!engine.worker_active(local)) {
      engine.restore_worker(local);
      ++regrows_;
      t += kRescheduleSeconds;
    }
  } else if (engine.worker_active(local)) {
    engine.preempt_worker(local);
    ++preemptions_;
    t += plan_.detection_timeout() + kRescheduleSeconds;
  }
  return pop;
}

bool FaultDriver::consume_preemption(double t) {
  while (next_ < events_.size() && events_[next_].time <= t) {
    if (!events_[next_++].recovery) {
      ++preemptions_;
      return true;
    }
  }
  return false;
}

void FaultDriver::skip_through(double t) {
  while (next_ < events_.size() && events_[next_].time <= t) ++next_;
}

double FaultDriver::next_return() const {
  for (size_t i = next_; i < events_.size(); ++i) {
    if (events_[i].recovery) return events_[i].time;
  }
  return simnet::kNever;
}

double FaultDriver::step(double t) {
  double dt = 0.0;
  for (size_t p = 0; p < engines_.size(); ++p) {
    if (out_[p]) continue;
    ConvergenceEngine& engine = *engines_[p];
    const int gpus = engine.options().gpus_per_node;
    const int first_worker = static_cast<int>(p) * engine.world();
    double degrade = 1.0;
    for (int w = 0; w < engine.world(); ++w) {
      if (!engine.worker_active(w)) continue;
      degrade =
          std::max(degrade, plan_.degrade_factor((first_worker + w) / gpus, t));
    }
    if (!engine.epoch_open()) engine.begin_epoch();
    engine.step();
    dt = std::max(dt, kComputeSecondsPerIter * degrade +
                          engine.last_step_comm_seconds());
    if (engine.step_in_epoch() == engine.iters_per_epoch()) {
      engine.end_epoch();
    }
  }
  return dt;
}

FtResult run_convergence_ft(ConvergenceTask& task, const FtOptions& options,
                            CheckpointStore* store_ptr) {
  HITOPK_VALIDATE(options.checkpoint_interval > 0);
  HITOPK_VALIDATE(options.checkpoint_write_gbps >= 0.0);

  CheckpointStore local_store;
  CheckpointStore& store = store_ptr ? *store_ptr : local_store;
  ConvergenceEngine engine(task, options.training);
  // Consuming the script's events exactly once — rather than polling
  // whether a rank is inside a preemption window — is what lets
  // abort-restart make progress against a permanent preemption: the
  // restarted full world stands for re-provisioned capacity, not the same
  // doomed machine.
  FaultDriver faults(options.faults, {&engine});
  const bool elastic = options.policy == RecoveryPolicy::kElasticContinue;

  FtResult out;
  out.min_active_workers = engine.world();
  double t = 0.0;
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
    if (elastic) {
      // Record each shrunken world at its event, not just after a step: the
      // detection + reschedule cost can carry t past a scripted return, in
      // which case the smallest world never takes a step.  An empty world
      // is a stall, not a world size.
      while (faults.consume(t) >= 0) {
        if (engine.active_workers() > 0) {
          out.min_active_workers =
              std::min(out.min_active_workers, engine.active_workers());
        }
      }
      if (engine.active_workers() == 0) {
        // Whole world gone: stall until the first scripted return, or give up.
        const double stall = faults.next_return();
        if (stall == simnet::kNever) {
          out.completed = false;
          break;
        }
        t = std::max(t, stall);
        continue;
      }
    } else {
      // Abort-restart ignores returns: restarts already re-provision a
      // full world.
      while (faults.consume_preemption(t)) {
        t += options.faults.detection_timeout() + kRestartSeconds;
        const auto snapshot = store.newest_valid();
        const int iter_before = engine.iter();
        engine.restore(snapshot ? *snapshot->blob : genesis);
        ++out.restores;
        out.lost_iterations += iter_before - engine.iter();
        since_checkpoint = 0;
        // Absorb events inside the recovery window: no job was running for
        // them to kill.
        faults.skip_through(t);
      }
    }

    t += faults.step(t);
    out.min_active_workers =
        std::min(out.min_active_workers, engine.active_workers());
    ++since_checkpoint;
    if (since_checkpoint >= options.checkpoint_interval && !engine.done()) {
      commit_checkpoint();
      since_checkpoint = 0;
    }
  }

  out.convergence = engine.result();
  out.wall_seconds = t;
  out.preemptions = faults.preemptions();
  out.regrows = faults.regrows();
  out.checkpoint_fallbacks = store.fallbacks() - fallbacks_before;
  return out;
}

}  // namespace hitopk::train
