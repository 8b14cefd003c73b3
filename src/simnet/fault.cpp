#include "simnet/fault.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "core/rng.h"

namespace hitopk::simnet {

void FaultPlan::preempt(int rank, double time, double recover_time) {
  HITOPK_VALIDATE(rank >= 0);
  HITOPK_VALIDATE(time >= 0.0);
  HITOPK_VALIDATE(recover_time > time);
  preemptions_.push_back(Preemption{rank, time, recover_time});
}

void FaultPlan::degrade_node(int node, double begin, double end,
                             double factor) {
  HITOPK_VALIDATE(node >= 0);
  HITOPK_VALIDATE(begin >= 0.0);
  HITOPK_VALIDATE(end > begin);
  HITOPK_VALIDATE(factor >= 1.0 && std::isfinite(factor))
      << "slowdown factor must be finite and >= 1:" << factor;
  degradations_.push_back(Degradation{node, begin, end, factor});
}

void FaultPlan::set_detection_timeout(double seconds) {
  HITOPK_VALIDATE(std::isfinite(seconds) && seconds >= 0.0);
  detection_timeout_ = seconds;
}

double FaultPlan::degrade_factor(int node, double time) const {
  double factor = 1.0;
  for (const Degradation& d : degradations_) {
    if (d.node == node && time >= d.begin && time < d.end) {
      factor = std::max(factor, d.factor);
    }
  }
  return factor;
}

FaultPlan FaultPlan::generate(uint64_t seed, const Topology& topology,
                              double horizon, const FaultRates& rates) {
  HITOPK_VALIDATE(std::isfinite(horizon) && horizon > 0.0)
      << "horizon must be finite and positive:" << horizon;
  // Negative intensities are config bugs, not "no faults": reject them
  // loudly instead of silently sampling nothing (rate == 0 is the documented
  // empty-script case and stays valid).  An infinite rate would never
  // advance the sampling clock.
  HITOPK_VALIDATE(std::isfinite(rates.preempt_per_rank_hour) &&
                  rates.preempt_per_rank_hour >= 0.0)
      << "preemption rate must be finite and non-negative:"
      << rates.preempt_per_rank_hour;
  HITOPK_VALIDATE(std::isfinite(rates.degrade_per_node_hour) &&
                  rates.degrade_per_node_hour >= 0.0)
      << "degradation rate must be finite and non-negative:"
      << rates.degrade_per_node_hour;
  HITOPK_VALIDATE(rates.recover_seconds > 0.0)
      << "recovery delay must be positive:" << rates.recover_seconds;
  HITOPK_VALIDATE(rates.degrade_per_node_hour == 0.0 ||
                  (std::isfinite(rates.degrade_duration_seconds) &&
                   rates.degrade_duration_seconds > 0.0))
      << "a degradation rate needs a finite positive window length:"
      << rates.degrade_duration_seconds;
  FaultPlan plan;
  Rng rng(seed);
  if (rates.preempt_per_rank_hour > 0.0) {
    const double lambda =
        rates.preempt_per_rank_hour * topology.world_size() / 3600.0;
    double t = 0.0;
    while (true) {
      t += -std::log(1.0 - rng.uniform()) / lambda;
      if (t >= horizon) break;
      const int rank =
          static_cast<int>(rng.uniform_index(
              static_cast<uint64_t>(topology.world_size())));
      const double recover = rates.recover_seconds < kNever
                                 ? t + rates.recover_seconds
                                 : kNever;
      plan.preempt(rank, t, recover);
    }
  }
  if (rates.degrade_per_node_hour > 0.0) {
    const double lambda =
        rates.degrade_per_node_hour * topology.nodes() / 3600.0;
    double t = 0.0;
    while (true) {
      t += -std::log(1.0 - rng.uniform()) / lambda;
      if (t >= horizon) break;
      const int node = static_cast<int>(
          rng.uniform_index(static_cast<uint64_t>(topology.nodes())));
      plan.degrade_node(node, t, t + rates.degrade_duration_seconds,
                        rates.degrade_factor);
    }
  }
  return plan;
}

}  // namespace hitopk::simnet
