// Deterministic fault-event scripts for timed schedule replay.
//
// A FaultPlan is a pre-computed, seeded script of the failures a public-cloud
// run can see — rank preemption (spot revocation) with optional recovery,
// NIC/uplink degradation windows, and transient send failures that cost
// retry/backoff time — which a Cluster consults during `submit`.  The plan
// is *data*, not a random process: every query is a pure function of the
// script and its arguments, so a replay with the same plan, topology, and
// schedule is bit-identical every time (the determinism contract the perf
// gate and the bitwise elastic-rescale tests rely on).
//
// Time granularity is the message boundary: a preemption at time t kills
// every transfer whose start would be >= t.  In-flight transfers that
// started before t still complete (their port bookkeeping already happened);
// the *next* send touching the dead rank observes the failure.  This matches
// how a timed replay can observe faults at all, and it keeps the fault-free
// path bit-identical: a Cluster without a plan (or with an empty one)
// never branches on fault state.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "simnet/topology.h"

namespace hitopk::simnet {

// Sentinel for "does not recover within the scenario horizon".
inline constexpr double kNever = std::numeric_limits<double>::infinity();

// Rank `rank` is dead on [time, recover_time).
struct Preemption {
  int rank = 0;
  double time = 0.0;
  double recover_time = kNever;
};

// Inter-node transfers touching `node` run `factor`x slower on [begin, end).
struct Degradation {
  int node = 0;
  double begin = 0.0;
  double end = kNever;
  double factor = 1.0;
};

// Poisson-process intensities for FaultPlan::generate.
struct FaultRates {
  double preempt_per_rank_hour = 0.0;   // spot revocations per rank-hour
  double recover_seconds = kNever;      // time until a preempted rank returns
  double degrade_per_node_hour = 0.0;   // NIC brown-out onsets per node-hour
  double degrade_duration_seconds = 0.0;
  double degrade_factor = 1.0;
};

class FaultPlan {
 public:
  FaultPlan() = default;

  // ---- script construction ------------------------------------------------
  // Each setter throws ConfigError on a value the script cannot mean: a
  // negative rank or node, a negative or NaN time, an empty window, a
  // slowdown factor below 1, a probability outside [0, 1), a negative
  // backoff or retry count, or a detection timeout that is negative or not
  // finite.
  void preempt(int rank, double time, double recover_time = kNever);
  void degrade_node(int node, double begin, double end, double factor);
  // Every send independently fails with `probability` per attempt (decided by
  // a counter-keyed hash, not a stateful stream, so interleaving order does
  // not matter); each failed attempt costs one backoff plus a full re-send.
  // After max_retries consecutive failures the next attempt succeeds.
  void set_transient(double probability, double backoff_seconds,
                     int max_retries, uint64_t seed = 0x5eed5eed5eedull);
  // Charged by the schedule layer when a dead rank is detected mid-replay
  // (the keepalive/timeout a real runtime would wait out before aborting).
  void set_detection_timeout(double seconds);

  // Samples Poisson preemption / degradation scripts on [0, horizon).
  static FaultPlan generate(uint64_t seed, const Topology& topology,
                            double horizon, const FaultRates& rates);

  // ---- queries ------------------------------------------------------------
  bool empty() const {
    return preemptions_.empty() && degradations_.empty() &&
           transient_probability_ <= 0.0;
  }
  bool alive(int rank, double time) const;
  // First preemption onset >= `from` for this rank, kNever if none.
  double next_preemption(int rank, double from) const;
  // Max degradation factor over windows containing `time` (1.0 = healthy).
  double degrade_factor(int node, double time) const;
  // Failed attempts before send number `send_seq` succeeds (0 = first try).
  int transient_attempts(uint64_t send_seq) const;

  double detection_timeout() const { return detection_timeout_; }
  double transient_probability() const { return transient_probability_; }
  double transient_backoff() const { return transient_backoff_; }
  const std::vector<Preemption>& preemptions() const { return preemptions_; }
  const std::vector<Degradation>& degradations() const {
    return degradations_;
  }

  // Plan for a renumbered world: surviving new rank i was old rank
  // new_to_old_rank[i] (and new node j was old node new_to_old_node[j]).
  // Preemptions/degradations of dropped ranks/nodes fall away; transient and
  // detection settings carry over unchanged.
  FaultPlan remap(const std::vector<int>& new_to_old_rank,
                  const std::vector<int>& new_to_old_node) const;

 private:
  std::vector<Preemption> preemptions_;
  std::vector<Degradation> degradations_;
  double detection_timeout_ = 0.0;
  double transient_probability_ = 0.0;
  double transient_backoff_ = 0.0;
  int transient_max_retries_ = 0;
  uint64_t transient_seed_ = 0;
};

}  // namespace hitopk::simnet
