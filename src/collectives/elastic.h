// Elastic collective execution: abort on preemption, rebuild for survivors.
//
// A preemption mid-collective surfaces as an aborted ScheduleOutcome (see
// schedule.h).  The elastic layer turns that into graceful degradation: it
// drops the dead ranks, renumbers the survivors into a dense world over a
// shrunk Topology, re-derives the collective's schedule for that world —
// ring and BlueConnect from the public ring builders, gTop-k through its
// fold/unfold shape — and retries, charging the abort's detection timeout
// plus a fixed reschedule cost per attempt.  Aborted attempts never run the
// data pass, so the gradients a retry consumes are exactly the inputs; the
// completed attempt is therefore bitwise identical to a fresh run at the
// surviving world size (pinned by schedule_equivalence_test).
//
// The membership of every attempt is re-derived from the *full original
// world's* liveness at that attempt's start time, so the world both shrinks
// and grows: a rank whose scripted recover_time has passed rejoins the next
// rebuild (its buffer still holds its original contribution — aborted
// attempts never touch data).  Degenerate worlds need no schedule at all: a
// single survivor completes instantly with zero traffic (an All-Reduce of
// one contribution is the identity), and an all-on-one-node world runs a
// hierarchy-free flat ring whatever the requested algorithm's hierarchy.
//
// Buffers stay indexed by *original* world rank throughout: attempt data is
// a view selecting the survivors' spans, so callers keep one stable buffer
// vector across rescales.
#pragma once

#include "collectives/blueconnect.h"
#include "collectives/gtopk.h"
#include "collectives/schedule.h"
#include "simnet/fault.h"

namespace hitopk::coll {

// A shrunk, densely renumbered world plus its mapping to the original.
// Surviving ranks keep their relative order; nodes that lose every GPU
// disappear (the shrunk topology may be uneven even if the original was
// uniform — one node keeps 3 of its 4 GPUs).
struct SurvivorWorld {
  simnet::Topology topology;
  std::vector<int> old_rank;  // new rank  -> original rank
  std::vector<int> old_node;  // new node  -> original node
};

// Throws ConfigError when no rank survives.
SurvivorWorld shrink_topology(const simnet::Topology& topology,
                              const std::vector<int>& dead_ranks);

enum class ElasticAlgorithm { kRing, kBlueConnect, kGtopk };

struct ElasticOptions {
  ElasticAlgorithm algorithm = ElasticAlgorithm::kRing;
  WireDtype wire = WireDtype::kFp32;  // ring path
  // BlueConnect path: factors apply to the original world; once a rescale
  // invalidates them the stage factorization is re-derived from the shrunk
  // topology (auto when it stays uniform, a flat ring otherwise).
  BlueConnectOptions blueconnect;
  GtopkOptions gtopk;  // gTop-k path (outcome field is managed internally)
  // Fixed cost per rebuild: survivor rendezvous + schedule re-derivation.
  double reschedule_seconds = 0.0;
};

struct ElasticAttempt {
  ScheduleOutcome outcome;
  int world = 0;  // world size this attempt ran at
};

struct ElasticResult {
  bool completed = false;
  double finish = 0.0;            // absolute completion (or give-up) time
  int surviving_world = 0;        // world size of the final attempt
  std::vector<int> survivors;     // original ranks of the final attempt
  std::vector<ElasticAttempt> attempts;
  int rescales = 0;               // attempts that dropped at least one rank
  int regrows = 0;                // attempts that regained at least one rank
};

// All-Reduce (or gTop-k aggregation) over the whole original world under a
// fault script.  `data` is indexed by original rank (empty = timing-only).
// On completion the survivors' buffers hold the collective's result over
// the surviving contributions; dead ranks' buffers are untouched.  Never
// throws for faults scripted in the plan; gives up (completed = false) when
// every rank is dead or after 8 aborted attempts.
ElasticResult elastic_allreduce(const simnet::Topology& topology,
                                const simnet::FaultPlan& plan,
                                const RankData& data, size_t elems,
                                const ElasticOptions& options, double start);

}  // namespace hitopk::coll
