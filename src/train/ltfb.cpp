#include "train/ltfb.h"

#include <algorithm>

#include "collectives/schedule.h"
#include "core/check.h"
#include "train/ft_convergence.h"

namespace hitopk::train {
namespace {

// Population p's engine seed is training.seed + p * kSeedStride.
constexpr uint64_t kSeedStride = 7919;

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
  std::vector<ConvergenceEngine*> engine_ptrs;
  for (const auto& engine : engines) engine_ptrs.push_back(engine.get());
  FaultDriver faults(options.faults, std::move(engine_ptrs));

  LtfbResult out;
  out.final_quality.assign(static_cast<size_t>(P), -1.0);
  const int rounds = options.training.epochs / options.round_epochs;
  const int round_iters =
      options.round_epochs * engines.front()->iters_per_epoch();
  double t = 0.0;

  for (int round = 0; round < rounds; ++round) {
    // ---- train: round_epochs epochs in population lockstep
    for (int it = 0; it < round_iters; ++it) {
      // A population that loses its last worker forfeits at that event, so
      // a return later in the same batch finds it already out.
      for (int p; (p = faults.consume(t)) >= 0;) {
        if (!faults.out(p) && engines[p]->active_workers() == 0) {
          faults.mark_out(p);
          ++out.forfeits;
        }
      }
      if (out.forfeits == P) {
        out.completed = false;
        break;
      }
      // Populations march together: the lockstep iteration costs the
      // slowest standing population's step.
      t += faults.step(t);
    }
    if (!out.completed) break;

    // ---- tournament among the standing populations
    std::vector<int> standing;
    for (int p = 0; p < P; ++p) {
      if (!faults.out(p)) standing.push_back(p);
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
  out.preemptions = faults.preemptions();
  out.regrows = faults.regrows();
  double best = -1.0;
  for (int p = 0; p < P; ++p) {
    if (faults.out(p)) continue;
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
