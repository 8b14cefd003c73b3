// LTFB-style tournament training (Livermore Tournament Fast Batch).
//
// Several *populations* — disjoint node slices of the cluster, each a full
// data-parallel ConvergenceEngine with its own shuffle stream — train
// independently for `round_epochs` epochs, then hold a tournament: standing
// populations pair off in index order, leaders exchange candidate models
// over the full-cluster fabric (a two-sided parameter send on the transfer
// schedule engine, charged to the shared wall clock), each pair compares
// validation quality, and the loser adopts the winner's parameters (clearing
// momentum and error-feedback residuals, which describe the replaced model).
// An odd population count gives the tail population a bye.
//
// The fault plan addresses workers by *global* index (population p's local
// worker w is global rank p * training.world() + w).  Populations tolerate
// losing a subset of workers mid-round — the engine's elastic path shrinks
// them and the round completes — while a population that loses its *last*
// worker forfeits: it drops out of the tournament for the rest of the run
// (its slice of spot capacity is gone; later recovery events for its workers
// are ignored).  When every population forfeits the run ends with
// completed = false.
//
// Everything is deterministic: population p trains with engine seed
// training.seed + p * 7919, events are consumed at lockstep iteration
// boundaries, and ties go to the lower population index.  The fault events
// and the wall clock are run_convergence_ft's FaultDriver
// (ft_convergence.h), with every population as one of its engines.
#pragma once

#include <functional>
#include <memory>

#include "simnet/fault.h"
#include "train/convergence.h"

namespace hitopk::train {

// Builds population `p`'s task.  All populations must produce tasks of the
// same shape (param_count, train_size) and a comparable held-out metric —
// call the same factory with the same data seed and let the engine seeds
// differentiate the trajectories.
using TaskFactory = std::function<std::unique_ptr<ConvergenceTask>(int p)>;

struct LtfbOptions {
  // Per-population shape: `nodes` is the size of one population's node
  // slice, `epochs` the total per-population budget (must divide evenly
  // into rounds of round_epochs).
  ConvergenceOptions training;
  int populations = 2;
  int round_epochs = 1;
  simnet::FaultPlan faults;  // global worker indices (see header comment)
};

struct LtfbRoundPoint {
  int round = 0;                  // 1-based
  int standing = 0;               // populations still in the tournament
  std::vector<int> winners;       // winning population of each played pair
  std::vector<double> qualities;  // per population; -1 once forfeited
};

struct LtfbResult {
  std::vector<LtfbRoundPoint> rounds;
  std::vector<double> final_quality;  // per population; -1 once forfeited
  int best_population = 0;
  double best_quality = 0.0;
  double wall_seconds = 0.0;
  int preemptions = 0;  // events that hit a live worker
  int regrows = 0;      // workers returned to a standing population
  int exchanges = 0;    // pairwise model exchanges played
  int forfeits = 0;     // populations that lost their last worker
  bool completed = true;
};

// Runs the tournament.  `factory` is called once per population up front.
LtfbResult run_ltfb(const TaskFactory& factory, const LtfbOptions& options);

}  // namespace hitopk::train
