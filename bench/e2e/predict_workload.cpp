// predict: the planner and the iteration simulator as their callers drive
// them.
//
// Planner::plan's one caller outside the tests is bench_fig07's panel (e):
// for each of four topologies (Tencent 16x8, 16x8 with 4:1- and with
// 8:1-oversubscribed 4-node pods, uneven {8, 8, 4, 4}) a fresh Planner with
// an fp16 wire plans one All-Reduce at each of 32K, 1M, 16M and 64M
// elements.  Each size falls in its own cache bucket, so every plan is a
// cache miss: candidate enumeration, validation and timing-only scoring.
// This workload repeats that panel with the sizes drawn from the seed,
// log-uniform within the four octave ranges [2^14, 2^17), [2^17, 2^20),
// [2^20, 2^23), [2^23, 2^26).  After the panels,
// TrainingSimulator::simulate_iteration + scaling_efficiency run for the
// four Algorithms on ResNet-50, Tencent 16x8, as simulate_cli and
// cloud_compare call them.
//
// One operation is one plan() call, timed in each of kPasses passes over
// all panels (a fresh Planner each time); the fastest call counts.  Every
// 100th call is executed on a fresh timing-only Cluster and must finish
// exactly at its prediction.  The traced run wraps every plan() and
// simulate_iteration() in a span, and in its first pass plans each
// topology's sizes again on the now-warm Planner, timing the cache-hit path
// the panel never takes.
#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "collectives/planner.h"
#include "core/rng.h"
#include "simnet/cluster.h"
#include "train/timeline.h"
#include "workloads.h"

namespace e2e {
namespace {

using namespace hitopk;

constexpr int kSizesPerTopology = 4;  // one per octave range, as fig07 (e)
constexpr double kFirstOctave = 14.0;
constexpr double kOctavesPerSize = 3.0;
constexpr size_t kExecuteEvery = 100;
// Nominal wall seconds of one panel (4 topologies x 4 plans) on the
// reference machine (op_count).
constexpr double kNominalPanel = 0.05;

// bench_fig07 panel (e)'s scenarios; the last three use its cloud_fabric
// links (25 GbE at 55% efficiency, NVLink-class intra-node links).
std::vector<simnet::Topology> panel_topologies() {
  const double nic_beta = 1.0 / (25.0 / 8 * 1e9 * 0.55);
  const simnet::LinkParams intra{6e-6, 1.0 / 45e9};
  const simnet::LinkParams inter{25e-6, 1.0 / 1.2e9};
  return {
      simnet::Topology::tencent_cloud(16, 8),
      simnet::Topology(16, 8, intra, inter, nic_beta, /*oversubscription=*/4.0,
                       /*nodes_per_pod=*/4),
      simnet::Topology(16, 8, intra, inter, nic_beta, /*oversubscription=*/8.0,
                       /*nodes_per_pod=*/4),
      simnet::Topology(std::vector<int>{8, 8, 4, 4}, intra, inter, nic_beta),
  };
}

struct PredictState {
  std::vector<simnet::Topology> topologies;
  coll::PlannerOptions planner_options;
  // Plan sizes, panel after panel; within a panel, kSizesPerTopology per
  // topology in topology order.
  std::vector<size_t> sizes;
};

// Topologies, the seeded sizes of `panels` panels, and one plan per topology
// on a scratch Planner (code and allocator warm before the first timed
// call).
std::unique_ptr<PredictState> make_state(uint64_t seed, size_t panels) {
  auto state = std::make_unique<PredictState>();
  state->topologies = panel_topologies();
  state->planner_options.wire = compress::WireDtype::kFp16;
  Rng rng(seed);
  for (size_t i = 0; i < panels * state->topologies.size(); ++i) {
    for (int slot = 0; slot < kSizesPerTopology; ++slot) {
      const double octave =
          kFirstOctave + kOctavesPerSize * (slot + rng.uniform());
      state->sizes.push_back(static_cast<size_t>(std::exp2(octave)));
    }
  }
  coll::Planner scratch(state->planner_options);
  for (const simnet::Topology& topo : state->topologies) {
    scratch.plan(topo, size_t{1} << 20);
  }
  return state;
}

struct PlanStats {
  std::vector<double> walls;  // per plan: the fastest of its kPasses calls
  std::vector<double> miss_walls;  // every timed call that missed
  std::vector<double> hit_walls;   // traced run: the repeated sizes
  std::vector<double> candidates;
  size_t calls = 0;
  size_t hits = 0;  // timed calls answered from the cache
};

// One panel: a fresh Planner per topology, one plan per size.  With
// `probe_hits`, each topology's sizes are then planned again on the warm
// Planner, outside the timed calls.
void run_panel(const PredictState& state, size_t panel, Tracer* tracer,
               bool probe_hits, PlanStats& stats, Result& result) {
  const size_t n_topo = state.topologies.size();
  for (size_t t = 0; t < n_topo; ++t) {
    const simnet::Topology& topo = state.topologies[t];
    coll::Planner planner(state.planner_options);
    const size_t first = (panel * n_topo + t) * kSizesPerTopology;
    for (size_t i = first; i < first + kSizesPerTopology; ++i) {
      const size_t elems = state.sizes[i];
      coll::PlanChoice choice;
      const Stopwatch sw;
      {
        const Tracer::Scope span(tracer, "collectives.plan");
        choice = planner.plan(topo, elems);
      }
      const double s = sw.seconds();
      stats.walls[i] = std::min(stats.walls[i], s);
      stats.candidates.push_back(choice.candidates_scored);
      if (choice.cache_hit) {
        ++stats.hits;
      } else {
        stats.miss_walls.push_back(s);
      }
      result.check(choice.predicted_seconds <= choice.flat_ring_seconds,
                   format("%zu elems: plan %s never loses to the flat ring",
                          elems, choice.name.c_str()));
      if (stats.calls++ % kExecuteEvery == 0) {
        simnet::Cluster cluster(topo);
        const double finish = planner.execute(cluster, {}, elems, 1.0, 0.0);
        result.check(finish == choice.predicted_seconds,
                     format("%zu elems: executed %s finishes at its "
                            "prediction",
                            elems, choice.name.c_str()));
      }
    }
    if (probe_hits) {
      for (size_t i = first; i < first + kSizesPerTopology; ++i) {
        const Stopwatch sw;
        const Tracer::Scope span(tracer, "isolated.collectives.plan_hit");
        const coll::PlanChoice again = planner.plan(topo, state.sizes[i]);
        stats.hit_walls.push_back(sw.seconds());
        result.check(again.cache_hit, "repeated size hits the cache");
      }
    }
  }
}

struct Simulated {
  double images_per_s = 0.0;    // MSTopK-SGD throughput (Table 3)
  double scaling_eff = 0.0;     // MSTopK-SGD scaling efficiency
  std::vector<double> walls;    // simulate_iteration() calls
};

Simulated simulate(Tracer* tracer, Result& result) {
  Simulated out;
  const train::Algorithm algorithms[] = {
      train::Algorithm::kDenseTree, train::Algorithm::kDense2dTorus,
      train::Algorithm::kTopkNaiveAg, train::Algorithm::kMstopkHitopk};
  for (const train::Algorithm algorithm : algorithms) {
    train::TrainerOptions options;
    options.algorithm = algorithm;
    train::TrainingSimulator sim(simnet::Topology::tencent_cloud(16, 8),
                                 options);
    train::IterationBreakdown it;
    const Stopwatch sw;
    {
      const Tracer::Scope span(tracer, "train.simulate_iteration");
      it = sim.simulate_iteration();
    }
    out.walls.push_back(sw.seconds());
    const double eff = sim.scaling_efficiency();
    result.check(std::isfinite(it.throughput) && it.throughput > 0.0 &&
                     eff > 0.0 && eff <= 1.0,
                 format("%s: positive throughput, efficiency in (0, 1]",
                        train::algorithm_name(algorithm).c_str()));
    if (algorithm == train::Algorithm::kMstopkHitopk) {
      out.images_per_s = it.throughput;
      out.scaling_eff = eff;
    }
  }
  return out;
}

}  // namespace

void run_predict(const RunOptions& options, Result& result) {
  Tracer* tracer = options.tracer;
  const size_t panels =
      op_count(options.seconds, kNominalPanel * kPasses, 1);
  double setup_s = 0.0;
  const auto state =
      tracer != nullptr
          ? make_state(options.seed, panels)
          : timed_setups([&] { return make_state(options.seed, panels); },
                         setup_s);

  PlanStats stats;
  stats.walls.assign(state->sizes.size(), kUnmeasured);
  const Stopwatch loop;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (size_t p = 0; p < panels; ++p) {
      if (tracer != nullptr) tracer->set_op(static_cast<int>(p));
      run_panel(*state, p, tracer, tracer != nullptr && pass == 0, stats,
                result);
    }
  }
  const Simulated sim = simulate(tracer, result);
  const double loop_s = loop.seconds();

  const double hit_ratio =
      static_cast<double>(stats.hits) / static_cast<double>(stats.calls);
  result.note(format("%zu panels, %zu plans, each timed %d times (cache hits "
                     "%.4f); simulated MSTopK-SGD %.3f images/s, scaling "
                     "efficiency %.6f",
                     panels, stats.walls.size(), kPasses, hit_ratio,
                     sim.images_per_s, sim.scaling_eff));
  if (tracer == nullptr) {
    result.set("setup_s", setup_s);
    report_op_walls(stats.walls, result);
    result.set("items_per_s", static_cast<double>(stats.walls.size()) /
                                  sum(stats.walls));
    return;
  }
  result.set("collectives.plan_miss_ms", median(stats.miss_walls) * 1e3);
  result.set("collectives.plan_hit_ms", median(stats.hit_walls) * 1e3);
  result.set("collectives.plan_hit_ratio", hit_ratio);
  result.set("collectives.candidates_per_plan", mean(stats.candidates));
  result.set("train.simulate_us", median(sim.walls) * 1e6);
  result.set("train.sim_images_per_s", sim.images_per_s);
  result.set("train.sim_scaling_eff", sim.scaling_eff);
  result.set("trace.overhead_frac", static_cast<double>(tracer->size()) *
                                        Tracer::seconds_per_span() / loop_s);
}

}  // namespace e2e
