// Deterministic fault-event scripts for elastic training.
//
// A FaultPlan is a pre-computed, seeded script of the failures a public-cloud
// run can see: rank preemption (spot revocation) with optional recovery, and
// node degradation windows.  The plan is *data*, not a random process: it is
// consumed at iteration granularity by the training drivers —
// train::FaultDriver (run_convergence_ft, run_ltfb) walks its preemptions in
// time order and scales its step clock by degrade_factor(), and
// train::simulate_scenario reads a degradation script as correlated per-pod
// stragglers.  Workers leave and rejoin between iterations; the transfer
// engine (simnet/cluster.h) never consults a plan, so every timed replay is
// fault-free.  The same plan, topology and seed give a bit-identical run
// every time (the determinism contract the FaultDriverGolden rows and the
// fig10/fig11 gates rely on).
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

// Work touching `node` runs `factor`x slower on [begin, end).
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
  // slowdown factor below 1 or not finite, or a detection timeout that is
  // negative or not finite.
  void preempt(int rank, double time, double recover_time = kNever);
  void degrade_node(int node, double begin, double end, double factor);
  // The keepalive/timeout a runtime waits out before declaring a preempted
  // worker dead; the fault drivers charge it on every removal.
  void set_detection_timeout(double seconds);

  // Samples Poisson preemption / degradation scripts on [0, horizon).
  // Throws ConfigError when the horizon is not finite and positive, a rate
  // is negative or infinite, the recovery delay is not positive, or a
  // degradation rate is set without a finite positive window length.
  static FaultPlan generate(uint64_t seed, const Topology& topology,
                            double horizon, const FaultRates& rates);

  // ---- queries ------------------------------------------------------------
  bool empty() const { return preemptions_.empty() && degradations_.empty(); }
  // Max degradation factor over windows containing `time` (1.0 = healthy).
  double degrade_factor(int node, double time) const;

  double detection_timeout() const { return detection_timeout_; }
  const std::vector<Preemption>& preemptions() const { return preemptions_; }
  const std::vector<Degradation>& degradations() const {
    return degradations_;
  }

 private:
  std::vector<Preemption> preemptions_;
  std::vector<Degradation> degradations_;
  double detection_timeout_ = 0.0;
};

}  // namespace hitopk::simnet
