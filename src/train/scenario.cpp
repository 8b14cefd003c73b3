#include "train/scenario.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "core/check.h"
#include "core/rng.h"
#include "models/model_zoo.h"

namespace hitopk::train {
namespace {

// Recovery costs (seconds).  Keepalive timeout before the survivors declare
// a node dead:
constexpr double kDetectionTimeoutSeconds = 1.0;
// Flat cost of writing one checkpoint (without checkpoint_write_gbps):
constexpr double kCheckpointSeconds = 5.0;
// Abort-restart: provision a full world and reload the checkpoint:
constexpr double kRestartSeconds = 120.0;
// Elastic: survivor rendezvous and collective re-derivation:
constexpr double kRescheduleSeconds = 2.0;

// Uniform topology with `nodes` nodes and the fabric parameters of `base`.
// The pod grouping survives only while it still tiles the node count.
simnet::Topology resize_topology(const simnet::Topology& base, int nodes) {
  const int npp =
      base.nodes_per_pod() > 0 && nodes % base.nodes_per_pod() == 0
          ? base.nodes_per_pod()
          : 0;
  return simnet::Topology(nodes, base.gpus_per_node(), base.intra(),
                          base.inter(), base.nic_beta(),
                          base.oversubscription(), npp);
}

}  // namespace

ScenarioResult simulate_scenario(const simnet::Topology& topology,
                                 const ScenarioOptions& options) {
  HITOPK_VALIDATE(topology.uniform())
      << "fault scenarios resize the world at node granularity and need a "
         "uniform topology";
  HITOPK_VALIDATE(options.iterations > 0);
  HITOPK_VALIDATE(options.checkpoint_interval > 0);
  HITOPK_VALIDATE(options.nodes_per_pod > 0);
  HITOPK_VALIDATE(options.preempt_rate_per_node_hour >= 0.0);
  HITOPK_VALIDATE(options.burst_rate_per_pod_hour >= 0.0);
  HITOPK_VALIDATE(options.burst_factor >= 1.0);
  HITOPK_VALIDATE(options.node_return_seconds >= 0.0);
  HITOPK_VALIDATE(options.checkpoint_write_gbps >= 0.0)
      << "negative checkpoint write rate:" << options.checkpoint_write_gbps;
  const int full_nodes = topology.nodes();
  const int gpus = topology.gpus_per_node();

  // Iteration time cache: (nodes up, pod bursting) -> seconds.  The
  // TrainingSimulator pipeline is deterministic per world size, so a
  // scenario of thousands of iterations prices each distinct state once.
  std::map<std::pair<int, bool>, double> iter_cache;
  std::map<int, double> io_cache;
  auto iteration_seconds = [&](int nodes, bool bursting) {
    const auto key = std::make_pair(nodes, bursting);
    auto it = iter_cache.find(key);
    if (it != iter_cache.end()) return it->second;
    TrainingSimulator sim(resize_topology(topology, nodes), options.trainer);
    auto io = io_cache.find(nodes);
    if (io == io_cache.end()) {
      io = io_cache.emplace(nodes, sim.raw_io_seconds()).first;
    }
    const double secs =
        sim.simulate_with_io(io->second,
                             bursting ? options.burst_factor : 1.0)
            .total;
    iter_cache.emplace(key, secs);
    return secs;
  };

  // Elastic re-shard: every survivor refills its shard of parameters and
  // optimizer state — one full parameter pass over the inter-node fabric.
  const models::ModelSpec model = models::model_by_name(options.trainer.model);
  const double reshard_seconds =
      static_cast<double>(model.total_params()) * 4.0 *
      topology.inter().beta;

  // Checkpoint write cost: size-derived when a write rate is given (weights
  // + momentum + error-feedback residuals = 3 float planes, the state the
  // ConvergenceEngine actually serializes), otherwise the legacy flat cost.
  const double checkpoint_write_seconds =
      options.checkpoint_write_gbps > 0.0
          ? static_cast<double>(model.total_params()) * 4.0 * 3.0 /
                (options.checkpoint_write_gbps * 1e9)
          : kCheckpointSeconds;

  // Bursty correlated stragglers: a FaultPlan degradation script with one
  // "node" per pod, generated over a horizon comfortably past the expected
  // wall time (a run that outlives it just sees a calm tail).
  const int pods =
      (full_nodes + options.nodes_per_pod - 1) / options.nodes_per_pod;
  const double base_iter = iteration_seconds(full_nodes, false);
  const double horizon =
      5.0 * base_iter * static_cast<double>(options.iterations) + 3600.0;
  simnet::FaultPlan bursts;
  if (options.burst_rate_per_pod_hour > 0.0) {
    simnet::FaultRates rates;
    rates.degrade_per_node_hour = options.burst_rate_per_pod_hour;
    rates.degrade_duration_seconds = options.burst_duration_seconds;
    rates.degrade_factor = options.burst_factor;
    bursts = simnet::FaultPlan::generate(
        options.seed ^ 0xb0b5u,
        simnet::Topology(pods, 1, topology.intra(), topology.inter()),
        horizon, rates);
  }
  auto any_pod_bursting = [&](double t) {
    for (int pod = 0; pod < pods; ++pod) {
      if (bursts.degrade_factor(pod, t) > 1.0) return true;
    }
    return false;
  };

  Rng rng(options.seed);
  const double preempt_rate =
      options.preempt_rate_per_node_hour / 3600.0;  // per node-second
  auto sample_gap = [&](int nodes_up) {
    if (preempt_rate <= 0.0 || nodes_up <= 0) return simnet::kNever;
    return -std::log(1.0 - rng.uniform()) /
           (preempt_rate * static_cast<double>(nodes_up));
  };

  ScenarioResult out;
  out.min_world_nodes = full_nodes;
  double t = 0.0;
  double lost_seconds = 0.0;
  double recover_seconds_total = 0.0;
  double useful_samples = 0.0;
  int nodes_up = full_nodes;
  int since_checkpoint = 0;
  double next_preempt = t + sample_gap(nodes_up);
  std::vector<double> returns;  // pending node-return times (elastic)

  const double samples_per_node =
      static_cast<double>(options.trainer.local_batch) *
      static_cast<double>(gpus);

  while (out.useful_iterations < options.iterations) {
    // Rejoin any returned node before starting the next iteration.
    if (options.policy == RecoveryPolicy::kElasticContinue) {
      std::sort(returns.begin(), returns.end());
      while (!returns.empty() && returns.front() <= t) {
        returns.erase(returns.begin());
        ++nodes_up;
        ++out.rescales;
        t += kRescheduleSeconds + reshard_seconds;
        next_preempt = t + sample_gap(nodes_up);
      }
      if (nodes_up == 0) {
        if (returns.empty()) {
          out.completed = false;
          break;
        }
        t = returns.front();  // stall until the first node comes back
        continue;
      }
    }

    const bool bursting = any_pod_bursting(t);
    const double duration = iteration_seconds(nodes_up, bursting);

    if (next_preempt < t + duration) {
      // Preemption mid-iteration: the partial iteration is lost.  A
      // preemption that lands inside a checkpoint write or a recovery
      // window (next_preempt < t) takes effect at the boundary instead —
      // no partial work lost, and the just-written checkpoint is durable.
      ++out.preemptions;
      const double preempt_at = std::max(next_preempt, t);
      lost_seconds += preempt_at - t;
      t = preempt_at + kDetectionTimeoutSeconds;
      if (options.policy == RecoveryPolicy::kAbortRestart) {
        // Roll back to the last checkpoint and restart on a full world.
        lost_seconds +=
            static_cast<double>(since_checkpoint) * duration;
        useful_samples -= static_cast<double>(since_checkpoint) *
                          samples_per_node * nodes_up;
        out.useful_iterations -= since_checkpoint;
        since_checkpoint = 0;
        ++out.restarts;
        t += kRestartSeconds;
        recover_seconds_total += kDetectionTimeoutSeconds + kRestartSeconds;
        nodes_up = full_nodes;
      } else {
        --nodes_up;
        ++out.rescales;
        out.min_world_nodes = std::min(out.min_world_nodes, nodes_up);
        if (options.node_return_seconds < simnet::kNever) {
          returns.push_back(next_preempt + options.node_return_seconds);
        }
        const double recover = kRescheduleSeconds + reshard_seconds;
        t += recover;
        recover_seconds_total += kDetectionTimeoutSeconds + recover;
      }
      next_preempt = t + sample_gap(nodes_up);
      continue;
    }

    t += duration;
    useful_samples += samples_per_node * static_cast<double>(nodes_up);
    ++out.useful_iterations;
    ++since_checkpoint;
    if (since_checkpoint == options.checkpoint_interval &&
        out.useful_iterations < options.iterations) {
      t += checkpoint_write_seconds;
      out.checkpoint_seconds_total += checkpoint_write_seconds;
      since_checkpoint = 0;
    }
  }

  out.wall_seconds = t;
  out.ideal_throughput =
      samples_per_node * static_cast<double>(full_nodes) / base_iter;
  out.goodput = t > 0.0 ? useful_samples / t : 0.0;
  out.goodput_fraction =
      out.ideal_throughput > 0.0 ? out.goodput / out.ideal_throughput : 0.0;
  out.lost_work_fraction = t > 0.0 ? lost_seconds / t : 0.0;
  out.checkpoint_overhead_fraction =
      t > 0.0 ? out.checkpoint_seconds_total / t : 0.0;
  out.mean_time_to_recover =
      out.preemptions > 0
          ? recover_seconds_total / static_cast<double>(out.preemptions)
          : 0.0;
  return out;
}

}  // namespace hitopk::train
