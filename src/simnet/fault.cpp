#include "simnet/fault.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "core/rng.h"

namespace hitopk::simnet {
namespace {

// SplitMix64 finalizer: counter-keyed hashing for the transient-failure
// decisions.  A hash (rather than a stateful stream) makes each send's fate
// independent of how many other sends were issued before it, so the same
// send sequence number always draws the same outcome.
uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double unit_double(uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

}  // namespace

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
  HITOPK_VALIDATE(factor >= 1.0);
  degradations_.push_back(Degradation{node, begin, end, factor});
}

void FaultPlan::set_transient(double probability, double backoff_seconds,
                              int max_retries, uint64_t seed) {
  HITOPK_VALIDATE(probability >= 0.0 && probability < 1.0);
  HITOPK_VALIDATE(backoff_seconds >= 0.0);
  HITOPK_VALIDATE(max_retries >= 0);
  transient_probability_ = probability;
  transient_backoff_ = backoff_seconds;
  transient_max_retries_ = max_retries;
  transient_seed_ = seed;
}

void FaultPlan::set_detection_timeout(double seconds) {
  HITOPK_VALIDATE(std::isfinite(seconds) && seconds >= 0.0);
  detection_timeout_ = seconds;
}

bool FaultPlan::alive(int rank, double time) const {
  for (const Preemption& p : preemptions_) {
    if (p.rank == rank && time >= p.time && time < p.recover_time) {
      return false;
    }
  }
  return true;
}

double FaultPlan::next_preemption(int rank, double from) const {
  double next = kNever;
  for (const Preemption& p : preemptions_) {
    if (p.rank == rank && p.time >= from) next = std::min(next, p.time);
  }
  return next;
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

int FaultPlan::transient_attempts(uint64_t send_seq) const {
  if (transient_probability_ <= 0.0) return 0;
  int failures = 0;
  while (failures < transient_max_retries_) {
    const uint64_t word = mix64(transient_seed_ ^ mix64(send_seq) ^
                                static_cast<uint64_t>(failures) * 0x632be59bull);
    if (unit_double(word) >= transient_probability_) break;
    ++failures;
  }
  return failures;
}

FaultPlan FaultPlan::remap(const std::vector<int>& new_to_old_rank,
                           const std::vector<int>& new_to_old_node) const {
  FaultPlan plan;
  plan.detection_timeout_ = detection_timeout_;
  plan.transient_probability_ = transient_probability_;
  plan.transient_backoff_ = transient_backoff_;
  plan.transient_max_retries_ = transient_max_retries_;
  plan.transient_seed_ = transient_seed_;
  for (int new_rank = 0; new_rank < static_cast<int>(new_to_old_rank.size());
       ++new_rank) {
    const int old_rank = new_to_old_rank[static_cast<size_t>(new_rank)];
    for (const Preemption& p : preemptions_) {
      if (p.rank == old_rank) {
        plan.preemptions_.push_back(
            Preemption{new_rank, p.time, p.recover_time});
      }
    }
  }
  for (int new_node = 0; new_node < static_cast<int>(new_to_old_node.size());
       ++new_node) {
    const int old_node = new_to_old_node[static_cast<size_t>(new_node)];
    for (const Degradation& d : degradations_) {
      if (d.node == old_node) {
        plan.degradations_.push_back(
            Degradation{new_node, d.begin, d.end, d.factor});
      }
    }
  }
  return plan;
}

FaultPlan FaultPlan::generate(uint64_t seed, const Topology& topology,
                              double horizon, const FaultRates& rates) {
  HITOPK_CHECK_GT(horizon, 0.0);
  // Negative intensities are config bugs, not "no faults": reject them
  // loudly instead of silently sampling nothing (rate == 0 is the documented
  // empty-script case and stays valid).
  HITOPK_VALIDATE(rates.preempt_per_rank_hour >= 0.0)
      << "negative preemption rate:" << rates.preempt_per_rank_hour;
  HITOPK_VALIDATE(rates.degrade_per_node_hour >= 0.0)
      << "negative degradation rate:" << rates.degrade_per_node_hour;
  HITOPK_VALIDATE(rates.recover_seconds > 0.0)
      << "recovery delay must be positive:" << rates.recover_seconds;
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
    HITOPK_CHECK_GT(rates.degrade_duration_seconds, 0.0);
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
