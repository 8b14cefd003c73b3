#include "train/ltfb.h"

#include <algorithm>

#include "collectives/schedule.h"
#include "core/check.h"
#include "train/ft_convergence.h"

namespace hitopk::train {
namespace {

// Population p's engine seed is training.seed + p * kSeedStride.
constexpr uint64_t kSeedStride = 7919;
// Elastic: rendezvous + re-derivation per regrow or shrink (seconds).
constexpr double kRescheduleSeconds = 0.5;

int first_active(const ConvergenceEngine& engine) {
  for (int w = 0; w < engine.world(); ++w) {
    if (engine.worker_active(w)) return w;
  }
  HITOPK_CHECK(false) << "no active worker in a standing population";
  return -1;
}

}  // namespace

LtfbResult run_ltfb(const TaskFactory& factory, const LtfbOptions& options) {
  HITOPK_VALIDATE(options.populations > 0);
  HITOPK_VALIDATE(options.round_epochs > 0);
  HITOPK_VALIDATE(options.training.epochs % options.round_epochs == 0)
      << "epochs must divide into whole rounds of round_epochs";
  HITOPK_VALIDATE(options.compute_seconds_per_iter >= 0.0);
  const int P = options.populations;
  const int world_pop = options.training.world();
  const int gpus = options.training.gpus_per_node;

  std::vector<std::unique_ptr<ConvergenceTask>> tasks;
  std::vector<std::unique_ptr<ConvergenceEngine>> engines;
  for (int p = 0; p < P; ++p) {
    tasks.push_back(factory(p));
    HITOPK_VALIDATE(tasks.back() != nullptr) << "task factory returned null";
    ConvergenceOptions opt = options.training;
    opt.seed = options.training.seed +
               static_cast<uint64_t>(p) * kSeedStride;
    engines.push_back(std::make_unique<ConvergenceEngine>(*tasks.back(), opt));
    HITOPK_VALIDATE(engines.back()->iters_per_epoch() ==
                    engines.front()->iters_per_epoch())
        << "populations must share the task shape";
    HITOPK_VALIDATE(tasks.back()->param_count() ==
                    tasks.front()->param_count())
        << "populations must share the parameter count";
  }
  const size_t d = tasks.front()->param_count();

  // The exchange fabric: every population's node slice side by side on one
  // cluster, so a candidate-model swap pays real inter-node latency and
  // bandwidth between the pairs' leader ranks.
  const simnet::Topology& pop_topo = engines.front()->topology();
  const simnet::Topology cluster_topo(P * options.training.nodes, gpus,
                                      pop_topo.intra(), pop_topo.inter(),
                                      pop_topo.nic_beta());

  // Fault script at global worker granularity, consumed once in time order
  // at lockstep iteration boundaries.
  const std::vector<WorkerEvent> events =
      worker_events(options.faults, P * world_pop);

  LtfbResult out;
  out.final_quality.assign(static_cast<size_t>(P), -1.0);
  std::vector<bool> down(static_cast<size_t>(P), false);
  const int rounds = options.training.epochs / options.round_epochs;
  const int ipe = engines.front()->iters_per_epoch();
  double t = 0.0;
  size_t next_event = 0;

  auto consume_events = [&] {
    while (next_event < events.size() && events[next_event].time <= t) {
      const WorkerEvent ev = events[next_event++];
      const int pop = ev.rank / world_pop;
      const int local = ev.rank % world_pop;
      if (down[static_cast<size_t>(pop)]) continue;  // forfeited: ignore
      ConvergenceEngine& engine = *engines[static_cast<size_t>(pop)];
      if (ev.recovery) {
        if (!engine.worker_active(local)) {
          engine.restore_worker(local);
          ++out.regrows;
          t += kRescheduleSeconds;
        }
      } else if (engine.worker_active(local)) {
        ++out.preemptions;
        engine.preempt_worker(local);
        t += options.faults.detection_timeout() + kRescheduleSeconds;
        if (engine.active_workers() == 0) {
          down[static_cast<size_t>(pop)] = true;
          ++out.forfeits;
        }
      }
    }
  };
  auto all_down = [&] {
    return std::all_of(down.begin(), down.end(), [](bool b) { return b; });
  };

  for (int round = 0; round < rounds && out.completed; ++round) {
    // ---- train: round_epochs epochs in population lockstep
    for (int e = 0; e < options.round_epochs && out.completed; ++e) {
      for (int p = 0; p < P; ++p) {
        if (!down[static_cast<size_t>(p)]) engines[p]->begin_epoch();
      }
      for (int it = 0; it < ipe; ++it) {
        consume_events();
        if (all_down()) {
          out.completed = false;
          break;
        }
        // Populations march together: the lockstep iteration costs the
        // slowest standing population's compute (scaled by its nodes' worst
        // degradation) plus its own collective time.
        double dt = 0.0;
        for (int p = 0; p < P; ++p) {
          if (down[static_cast<size_t>(p)]) continue;
          ConvergenceEngine& engine = *engines[static_cast<size_t>(p)];
          const double degrade =
              worst_degradation(engine, options.faults, p * world_pop, t);
          engine.step();
          dt = std::max(dt, options.compute_seconds_per_iter * degrade +
                                engine.last_step_comm_seconds());
        }
        t += dt;
      }
      for (int p = 0; p < P; ++p) {
        // A population that forfeited mid-epoch never closes it; skip.
        if (!down[static_cast<size_t>(p)] &&
            engines[p]->step_in_epoch() == ipe) {
          engines[p]->end_epoch();
        }
      }
    }
    if (!out.completed) break;

    // ---- tournament among the standing populations
    std::vector<int> standing;
    for (int p = 0; p < P; ++p) {
      if (!down[static_cast<size_t>(p)]) standing.push_back(p);
    }
    LtfbRoundPoint point;
    point.round = round + 1;
    point.standing = static_cast<int>(standing.size());
    point.qualities.assign(static_cast<size_t>(P), -1.0);
    for (int p : standing) {
      point.qualities[static_cast<size_t>(p)] = tasks[p]->evaluate();
    }
    // Pair in index order; an odd tail population gets a bye.  A single
    // standing population keeps training with no exchange.
    for (size_t i = 0; i + 1 < standing.size(); i += 2) {
      const int a = standing[i];
      const int b = standing[i + 1];
      coll::Schedule sched;
      const uint32_t slot_a = sched.add_slots(2);
      const uint32_t slot_b = slot_a + 1;
      const int rank_a = a * world_pop + first_active(*engines[a]);
      const int rank_b = b * world_pop + first_active(*engines[b]);
      sched.send(rank_a, rank_b, d * 4, slot_a, slot_b);
      sched.send(rank_b, rank_a, d * 4, slot_b, slot_a);
      simnet::Cluster cluster(cluster_topo);
      t = sched.run_timing(cluster, t).finish;
      ++out.exchanges;
      // Higher held-out quality wins; ties go to the lower index.
      const bool a_wins = point.qualities[static_cast<size_t>(a)] >=
                          point.qualities[static_cast<size_t>(b)];
      const int winner = a_wins ? a : b;
      const int loser = a_wins ? b : a;
      engines[loser]->adopt_params(tasks[winner]->params());
      point.winners.push_back(winner);
    }
    out.rounds.push_back(std::move(point));
  }

  out.wall_seconds = t;
  double best = -1.0;
  for (int p = 0; p < P; ++p) {
    if (down[static_cast<size_t>(p)]) continue;
    const double q = tasks[p]->evaluate();
    out.final_quality[static_cast<size_t>(p)] = q;
    if (q > best) {
      best = q;
      out.best_population = p;
    }
  }
  out.best_quality = std::max(best, 0.0);
  return out;
}

}  // namespace hitopk::train
