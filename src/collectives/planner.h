// Cost-model-driven schedule planner: autotuning the collective to the
// topology.
//
// Every collective in this repo is an explicit transfer schedule over a
// simnet::Topology, and the simulated clock (Schedule::run_timing) is the
// cost model the whole repo is calibrated against — so "which algorithm
// wins on this cluster for this message?" is a search problem the system
// answers itself, the way NCCL autotunes algorithm choice and MiCS plans
// around the cloud hierarchy.  Given (topology, message size, density) the
// planner:
//
//   1. enumerates candidate schedules — the flat ring (always, as the
//      baseline the planner must never lose to), pod-aware reordered rings,
//      double-binary tree, hierarchical leader All-Reduce, 2D-torus,
//      BlueConnect stage factorizations (mixed-radix enumeration pruned to
//      the hierarchy-aligned splits), the recursive halving-doubling
//      builder for the latency-bound small-message regime, and gTop-k for
//      sparse densities;
//   2. statically validates every schedule-backed candidate
//      (collectives/validator.h) — a candidate that breaks a schedule
//      invariant is a bug, not a slow choice, and must never be scored;
//   3. scores each candidate on one path: replay its schedule on a copy of
//      the cluster the caller plans against (a fresh Cluster for the
//      topology overloads; scripted faults dropped) and take the duration
//      from `start`.  The earliest finisher wins; ties keep the
//      earlier-enumerated, simpler candidate — the flat ring is
//      enumerated first;
//   4. caches the winning *configuration* per (topology fingerprint, group,
//      size bucket, density bucket), but only for idle clusters at
//      start == 0, where the score is a topology property.  A cache hit
//      re-scores only the cached winner and the flat ring at the requested
//      size — so the planner's "never lose to the flat ring" guarantee
//      holds at every size inside a bucket, not just the size that
//      populated it.
//
// Scoring is O(candidates * schedule size) with no functional data; a
// 128-rank plan costs well under a millisecond.  execute() then rebuilds
// the winner as a functional schedule, validates it again with full chunk
// coverage, and runs the timing + data passes — the executed schedule is
// record-for-record the scored one, so on a fresh cluster the executed
// finish equals the predicted finish exactly (the planner fuzz harness
// pins this).
//
// Not thread-safe: one Planner per planning thread (the cache is a plain
// map).
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "collectives/common.h"
#include "collectives/schedule.h"

namespace hitopk::coll {

enum class PlanAlgorithm {
  kFlatRing,         // ring_allreduce's engine schedule, membership as given
  kReorderedRing,    // ring over the pod-aware locality-sorted membership
  kTreeAllReduce,    // NCCL-style double binary tree (uniform topologies)
  kHierAllReduce,    // leader-based hierarchical All-Reduce (any topology)
  kTorus2d,          // 2D-torus All-Reduce (uniform topologies)
  kBlueConnect,      // nested multi-ring stage factorization (uniform)
  kHalvingDoubling,  // recursive halving-doubling (latency-bound regime)
  kGtopk,            // sparse global top-k aggregation (density-gated)
};

const char* plan_algorithm_name(PlanAlgorithm algorithm);

struct PlannerOptions {
  // Wire dtype every candidate's transfers travel in (typed payloads,
  // compress/wire_codec.h).  fp32 keeps plans exact-sum.
  WireDtype wire = WireDtype::kFp32;
};

struct PlanChoice {
  PlanAlgorithm algorithm = PlanAlgorithm::kFlatRing;
  std::string name;          // e.g. "blueconnect{8,4,4}" or "hd+podsort"
  std::vector<int> factors;  // BlueConnect stage sizes (empty otherwise)
  Group ring_order;          // membership order for ring / halving-doubling
  // Simulated duration of the winner / the flat-ring baseline from the
  // planning start (on a fresh cluster from t = 0, the finish time).
  // predicted_seconds <= flat_ring_seconds always (the flat ring is itself
  // a candidate).
  double predicted_seconds = 0.0;
  double flat_ring_seconds = 0.0;
  int candidates_scored = 0;
  bool cache_hit = false;
  // False only for the gTop-k plan, whose result is the shared global
  // top-k *approximation* of the sum; every other plan is an exact-sum
  // All-Reduce, bitwise-comparable against the flat-ring oracle on inputs
  // where float addition is exact.
  bool exact_sum = true;

  double speedup() const {
    return predicted_seconds > 0.0 ? flat_ring_seconds / predicted_seconds
                                   : 1.0;
  }
};

class Planner {
 public:
  explicit Planner(PlannerOptions options = {}) : options_(options) {}

  // Plans an All-Reduce over the full world in rank order on a fresh
  // cluster of `topo` (the cached path).
  PlanChoice plan(const simnet::Topology& topo, size_t elems,
                  double density = 1.0);

  // Plans over an arbitrary rank group (elastic survivor sets, shuffled
  // placements).  A group that is exactly the full world in rank order
  // gets the full candidate set; any other membership restricts to the
  // group-shaped candidates (rings, pod-aware reordered rings,
  // halving-doubling in given and locality-sorted order) — the hierarchical
  // builders and gTop-k are whole-world collectives.
  PlanChoice plan_group(const simnet::Topology& topo, const Group& group,
                        size_t elems, double density = 1.0);

  // Contention-aware planning against a *live* cluster.  Candidates are
  // scored by replaying on a copy of the cluster — reservation timelines
  // included — from `start` under `job`, so a candidate whose traffic
  // pattern dodges the ports other tenants have loaded can win.  The
  // topology overloads above are this call on a fresh Cluster(topo), so an
  // idle cluster with start == 0 returns their winners exactly; only then
  // is the winner cache read and filled, because load is transient state,
  // not a cacheable topology property.  The flat-ring never-lose guarantee
  // holds in both regimes.
  PlanChoice plan(const simnet::Cluster& cluster, size_t elems,
                  double density = 1.0, int job = simnet::kDefaultJob,
                  double start = 0.0);
  PlanChoice plan_group(const simnet::Cluster& cluster, const Group& group,
                        size_t elems, double density = 1.0,
                        int job = simnet::kDefaultJob, double start = 0.0);

  // Plans (cache-backed), rebuilds the winner as a functional schedule,
  // validates it with full chunk coverage, and executes both passes on
  // `cluster`.  data is indexed by group position (world rank order for the
  // first overload) and may be empty for timing-only; returns the finish
  // time.  On a fresh cluster with start == 0 the returned finish equals
  // the plan's predicted_seconds exactly.
  double execute(simnet::Cluster& cluster, const RankData& data, size_t elems,
                 double density, double start);
  double execute(simnet::Cluster& cluster, const Group& group,
                 const RankData& data, size_t elems, double density,
                 double start);

  size_t cache_size() const { return cache_.size(); }
  size_t cache_hits() const { return cache_hits_; }

 private:
  // A candidate / cached winner: the configuration, without timings.
  struct Candidate {
    PlanAlgorithm algorithm = PlanAlgorithm::kFlatRing;
    std::string name;
    std::vector<int> factors;
    Group ring_order;
  };

  std::vector<Candidate> enumerate(const simnet::Topology& topo,
                                   const Group& group, bool full_world,
                                   double density) const;
  // Records the candidate's schedule; returns false for the non-schedule
  // gTop-k candidate (scored and executed through gtopk_comm).
  bool build_candidate(Schedule& sched, const simnet::Topology& topo,
                       const Candidate& cand, const Group& group,
                       const RankData& data, size_t elems) const;
  // The candidate's duration from `start` when replayed under `job` on a
  // copy of `base`.
  double score(const simnet::Cluster& base, const Candidate& cand,
               const Group& group, size_t elems, double density, int job,
               double start) const;

  PlannerOptions options_;
  std::unordered_map<std::string, Candidate> cache_;
  size_t cache_hits_ = 0;
};

}  // namespace hitopk::coll
