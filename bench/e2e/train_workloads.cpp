// train_mstopk and train_dense_fp16: ConvergenceEngine steps on the 4x4
// world, vision task with hidden layers {1024, 1024} (d ~ 1.17M, so the 16
// worker gradients are ~75 MB), local batch 8, density 0.01.
//
// Untraced: kSetups set-ups (task + engine + kWarmupSteps steps), then
// op_count() engine.step() calls in a closed loop.  One operation is one
// step; items are samples (128 per step).
//
// Traced: every loop iteration runs (1) one engine step, untraced, as the
// reference; (2) one re-enacted step — the engine's own layer calls in the
// engine's order on the same shapes, each wrapped in a span under a
// "train.step" root; (3) the isolated component calls (codec, MSTopK + error
// feedback on per-GPU shards, the step-1 reduce-scatter data pass, the
// collective the step does not use, a timing-only HiTopKComm) on fresh
// gradients.  (1) and (2) alternate, so training drift affects both alike.
#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "collectives/hitopkcomm.h"
#include "collectives/ring.h"
#include "collectives/schedule.h"
#include "compress/error_feedback.h"
#include "compress/mstopk.h"
#include "compress/wire_codec.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/tensor.h"
#include "pto/lars.h"
#include "train/convergence.h"
#include "train/synthetic.h"
#include "workloads.h"

namespace e2e {
namespace {

using namespace hitopk;

constexpr int kNodes = 4;
constexpr int kGpusPerNode = 4;
constexpr size_t kWorld = kNodes * kGpusPerNode;
constexpr int kLocalBatch = 8;
constexpr size_t kGlobalBatch = kWorld * kLocalBatch;
constexpr double kDensity = 0.01;
constexpr int kMstopkSamplings = 30;  // ConvergenceOptions default
constexpr int kWarmupSteps = 2;
constexpr size_t kMinSteps = 20;
// Nominal wall seconds of one timed operation on the reference machine
// (op_count): an engine step, and a traced iteration (engine step +
// re-enacted step + isolated calls), for train_mstopk / train_dense_fp16.
constexpr double kNominalStep[] = {0.045, 0.25};
constexpr double kNominalTracedIteration[] = {0.4, 0.5};
// Smallest normal fp16 magnitude (2^-14): the codec's slow path is below it.
constexpr float kFp16MinNormal = 6.103515625e-05f;

std::unique_ptr<train::ConvergenceTask> make_task(uint64_t seed) {
  return train::make_vision_task(seed, "resnet50-proxy", {1024, 1024});
}

train::ConvergenceOptions engine_options(uint64_t seed, bool dense_fp16) {
  train::ConvergenceOptions o;
  o.nodes = kNodes;
  o.gpus_per_node = kGpusPerNode;
  o.algorithm = dense_fp16 ? train::ConvergenceAlgorithm::kDense
                           : train::ConvergenceAlgorithm::kMstopk;
  o.gradient_wire =
      dense_fp16 ? compress::WireDtype::kFp16 : compress::WireDtype::kFp32;
  o.density = kDensity;
  o.local_batch = kLocalBatch;
  o.mstopk_samplings = kMstopkSamplings;
  o.seed = seed;
  return o;
}

bool all_finite(std::span<const float> x) {
  bool ok = true;
  for (float v : x) ok &= std::isfinite(v);
  return ok;
}

struct TrainState {
  std::unique_ptr<train::ConvergenceTask> task;
  std::unique_ptr<train::ConvergenceEngine> engine;
};

// One engine iteration inside its epoch brackets; returns the wall seconds
// of step() alone (the bracket's held-out evaluation is not training time).
double engine_step(train::ConvergenceEngine& engine, Result& result) {
  if (!engine.epoch_open()) engine.begin_epoch();
  const Stopwatch sw;
  engine.step();
  const double seconds = sw.seconds();
  if (engine.step_in_epoch() == engine.iters_per_epoch()) {
    const train::EpochPoint point = engine.end_epoch();
    result.check(std::isfinite(point.train_loss),
                 format("epoch %d training loss is finite", point.epoch));
  }
  return seconds;
}

std::unique_ptr<TrainState> make_state(uint64_t seed, bool dense_fp16,
                                       Result& result) {
  auto state = std::make_unique<TrainState>();
  state->task = make_task(seed);
  state->engine = std::make_unique<train::ConvergenceEngine>(
      *state->task, engine_options(seed, dense_fp16));
  for (int i = 0; i < kWarmupSteps; ++i) engine_step(*state->engine, result);
  return state;
}

// Quality of the untrained model: the floor a trained one must beat.
double untrained_quality(uint64_t seed) { return make_task(seed)->evaluate(); }

void check_quality(train::ConvergenceTask& task, double untrained,
                   Result& result) {
  const double quality = task.evaluate();
  result.check(std::isfinite(quality) && quality > untrained,
               format("quality %.4f exceeds the untrained model's %.4f",
                      quality, untrained));
  result.note(format("quality %.4f (untrained %.4f)", quality, untrained));
}

void run_untraced(const RunOptions& options, bool dense_fp16, Result& result) {
  double setup_s = 0.0;
  const auto state = timed_setups(
      [&] { return make_state(options.seed, dense_fp16, result); }, setup_s);
  const double untrained = untrained_quality(options.seed);
  train::ConvergenceEngine& engine = *state->engine;

  const size_t steps =
      op_count(options.seconds, kNominalStep[dense_fp16], kMinSteps);
  std::vector<double> walls;
  while (walls.size() < steps && !engine.done()) {
    walls.push_back(engine_step(engine, result));
    result.check(all_finite(state->task->params()),
                 format("parameters finite after step %d", engine.iter()));
  }
  check_quality(*state->task, untrained, result);

  result.set("setup_s", setup_s);
  report_op_walls(walls, result);
  result.set("items_per_s",
             static_cast<double>(kGlobalBatch * walls.size()) / sum(walls));
  result.note(format("%zu timed steps; simulated comm %.6f ms/step",
                     walls.size(),
                     engine.comm_seconds() / engine.iter() * 1e3));
}

// The traced run's own copy of one training step's state, shaped exactly
// like the engine's: 16 worker gradients of d floats, shard-keyed error
// feedback, momentum SGD on the flat parameter vector.  Gradients are taken
// at the task's (the engine's) parameters, but the SGD update lands on a
// private copy of them, so the engine follows the same trajectory as in the
// untraced run.
class TracedTrainer {
 public:
  TracedTrainer(train::ConvergenceTask& task,
                const train::ConvergenceEngine& engine, uint64_t seed,
                bool dense_fp16)
      : task_(task),
        engine_(engine),
        options_(engine_options(seed, dense_fp16)),
        topo_(engine.topology()),
        d_(task.param_count()),
        iters_per_epoch_(static_cast<int>(task.train_size() / kGlobalBatch)),
        sgd_(options_.momentum, 0.0),
        rng_(seed ^ 0x5eedull),
        order_(task.train_size()),
        params_(d_) {
    grads_.reserve(kWorld);
    inputs_.reserve(kWorld);
    mstopk_.reserve(kWorld);
    for (size_t w = 0; w < kWorld; ++w) {
      grads_.emplace_back(d_);
      inputs_.emplace_back(d_);
      grad_spans_.push_back(grads_.back().span());
      input_spans_.push_back(inputs_.back().span());
      // GPU w owns shard w % 4 of its node's reduced gradient.
      const coll::ChunkRange shard =
          coll::chunk_range(d_, kGpusPerNode, w % kGpusPerNode);
      shards_.push_back(inputs_.back().slice(shard.begin, shard.count));
      shard_keys_.push_back("iso:" + std::to_string(w));
      isolated_ef_.ensure(shard_keys_.back(), shard.count);
      mstopk_.emplace_back(kMstopkSamplings, seed + w);
    }
    for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    // HiTopKComm step 1 over the isolated inputs: the 4 intra-node rings as
    // one multi-group schedule, fused chains — recorded once, its data pass
    // replayed every iteration.
    std::vector<coll::Group> node_groups;
    std::vector<coll::RankData> node_data;
    for (int node = 0; node < kNodes; ++node) {
      node_groups.push_back(coll::node_group(topo_, node));
      coll::RankData nd;
      for (int rank : node_groups.back()) {
        nd.push_back(input_spans_[static_cast<size_t>(rank)]);
      }
      node_data.push_back(std::move(nd));
    }
    const coll::RingGrid grid = coll::ring_grid(
        rs_schedule_, node_groups, node_data, compress::WireDtype::kFp32);
    coll::build_ring_reduce_scatter(rs_schedule_, node_groups, grid, d_,
                                    compress::WireDtype::kFp32,
                                    /*fused_chains=*/true);
  }

  bool dense() const {
    return options_.algorithm == train::ConvergenceAlgorithm::kDense;
  }

  // The engine step re-enacted as its layer calls; returns the root span.
  int step(Tracer& tracer) {
    if (step_ % iters_per_epoch_ == 0) rng_.shuffle(order_);
    const size_t offset =
        static_cast<size_t>(step_ % iters_per_epoch_) * kGlobalBatch;
    const std::span<const float> engine_params = task_.params();
    std::copy(engine_params.begin(), engine_params.end(),
              params_.span().begin());
    const int root = tracer.begin("train.step");
    {
      const Tracer::Scope span(&tracer, "autodiff.fwdbwd", root);
      fan_out_gradients(offset, grads_);
    }
    if (options_.gradient_wire != compress::WireDtype::kFp32) {
      const Tracer::Scope span(&tracer, "compress.codec", root);
      for (auto& g : grads_) {
        compress::wire_round_trip(options_.gradient_wire, g.span());
      }
    }
    {
      const Tracer::Scope span(
          &tracer, dense() ? "collectives.allreduce" : "collectives.hitopk",
          root);
      simnet::Cluster cluster(topo_);
      if (dense()) {
        coll::ring_allreduce(cluster, coll::world_group(topo_), grad_spans_,
                             d_, compress::WireDtype::kFp32, 0.0);
      } else {
        coll::HiTopKOptions hi = hitopk_options();
        hi.error_feedback = &step_ef_;
        hi.ef_key_prefix = "shard";
        coll::hitopk_comm(cluster, grad_spans_, d_, hi, 0.0);
      }
      inter_bytes_ = cluster.inter_node_bytes();
      intra_bytes_ = cluster.intra_node_bytes();
    }
    {
      const Tracer::Scope span(&tracer, "pto.sgd", root);
      grads_[0] *= 1.0f / static_cast<float>(kWorld);
      sgd_.step("flat", params_.span(), grads_[0].span(), learning_rate());
    }
    tracer.end(root);
    ++step_;
    return root;
  }

  // The component calls the step does not make (or makes on other data),
  // each on fresh gradients of the next batch.
  void isolated_calls(Tracer& tracer) {
    const size_t offset =
        static_cast<size_t>(step_ % iters_per_epoch_) * kGlobalBatch;
    {
      const Tracer::Scope span(&tracer, "bench.inputs");
      fan_out_gradients(offset, inputs_);
    }
    size_t subnormal = 0;
    for (const auto& g : inputs_) {
      for (float v : g.span()) {
        subnormal += (v != 0.0f && std::fabs(v) < kFp16MinNormal) ? 1 : 0;
      }
    }
    subnormal_frac_.push_back(static_cast<double>(subnormal) /
                              static_cast<double>(kWorld * d_));
    if (!dense()) {
      const Tracer::Scope span(&tracer, "isolated.compress.codec");
      for (auto& g : inputs_) {
        compress::wire_round_trip(compress::WireDtype::kFp16, g.span());
      }
    }
    // HiTopKComm step 2 on each GPU's owned shard: EF compensation,
    // MSTopK selection of k = rho * d / 4, EF absorption.
    std::vector<compress::SparseTensor> selected(kWorld);
    {
      const Tracer::Scope span(&tracer, "isolated.compress.ef");
      parallel_for(0, kWorld, [&](size_t w) {
        isolated_ef_.apply_priming(shard_keys_[w], shards_[w]);
      });
    }
    {
      const Tracer::Scope span(&tracer, "isolated.compress.mstopk");
      parallel_for(0, kWorld, [&](size_t w) {
        const size_t k = static_cast<size_t>(
            kDensity * static_cast<double>(shards_[w].size()));
        selected[w] = mstopk_[w].compress(shards_[w], k);
      });
    }
    {
      const Tracer::Scope span(&tracer, "isolated.compress.ef");
      parallel_for(0, kWorld, [&](size_t w) {
        isolated_ef_.absorb_primed(shard_keys_[w], selected[w]);
      });
    }
    {
      const Tracer::Scope span(&tracer, "isolated.collectives.rs_data");
      rs_schedule_.run_data();
    }
    {
      const Tracer::Scope span(&tracer,
                               dense() ? "isolated.collectives.hitopk"
                                       : "isolated.collectives.allreduce");
      simnet::Cluster cluster(topo_);
      if (dense()) {
        coll::hitopk_comm(cluster, input_spans_, d_, hitopk_options(), 0.0);
      } else {
        coll::ring_allreduce(cluster, coll::world_group(topo_), input_spans_,
                             d_, compress::WireDtype::kFp32, 0.0);
      }
    }
    {
      const Tracer::Scope span(&tracer, "isolated.collectives.hitopk_timing");
      simnet::Cluster cluster(topo_);
      coll::hitopk_comm(cluster, {}, d_, hitopk_options(), 0.0);
    }
  }

  size_t d() const { return d_; }
  size_t inter_bytes() const { return inter_bytes_; }
  size_t intra_bytes() const { return intra_bytes_; }
  const std::vector<double>& subnormal_frac() const { return subnormal_frac_; }

 private:
  void fan_out_gradients(size_t offset, std::vector<Tensor>& out) {
    parallel_for(0, kWorld, [&](size_t w) {
      const std::span<const size_t> idx(&order_[offset + w * kLocalBatch],
                                        kLocalBatch);
      task_.gradient(idx, out[w].span());
    });
  }

  coll::HiTopKOptions hitopk_options() const {
    coll::HiTopKOptions hi;
    hi.density = options_.density;
    hi.mstopk_samplings = options_.mstopk_samplings;
    hi.mstopk_histogram = options_.mstopk_histogram;
    hi.seed = options_.seed + static_cast<uint64_t>(engine_.iter()) * 977;
    return hi;
  }

  // The engine's linear warm-up ramp, which the traced window stays inside.
  double learning_rate() const {
    const double warmup = options_.warmup_epochs * iters_per_epoch_;
    return options_.learning_rate *
           std::min(1.0, (engine_.iter() + 1) / std::max(1.0, warmup));
  }

  train::ConvergenceTask& task_;
  const train::ConvergenceEngine& engine_;
  const train::ConvergenceOptions options_;
  const simnet::Topology topo_;
  const size_t d_;
  const int iters_per_epoch_;
  pto::SgdOptimizer sgd_;
  Rng rng_;
  std::vector<size_t> order_;
  Tensor params_;  // the SGD update's target: a copy of the task's
  int step_ = 0;

  std::vector<Tensor> grads_;   // the re-enacted step's worker gradients
  std::vector<Tensor> inputs_;  // fresh gradients for the isolated calls
  coll::RankData grad_spans_;
  coll::RankData input_spans_;
  std::vector<std::span<float>> shards_;
  std::vector<std::string> shard_keys_;
  compress::ErrorFeedback step_ef_;
  compress::ErrorFeedback isolated_ef_;
  std::vector<compress::MsTopK> mstopk_;
  coll::Schedule rs_schedule_;
  size_t inter_bytes_ = 0;
  size_t intra_bytes_ = 0;
  std::vector<double> subnormal_frac_;
};

// Median of the per-iteration sums of consecutive span pairs (EF is two
// calls per iteration: compensation before selection, absorption after).
double median_pair_sum(const std::vector<double>& durations) {
  std::vector<double> sums;
  for (size_t i = 0; i + 1 < durations.size(); i += 2) {
    sums.push_back(durations[i] + durations[i + 1]);
  }
  return median(sums);
}

void run_traced(const RunOptions& options, bool dense_fp16, Result& result) {
  Tracer& tracer = *options.tracer;
  const auto state = make_state(options.seed, dense_fp16, result);
  const double untrained = untrained_quality(options.seed);
  train::ConvergenceEngine& engine = *state->engine;
  TracedTrainer traced(*state->task, engine, options.seed, dense_fp16);

  const size_t iterations = op_count(
      options.seconds, kNominalTracedIteration[dense_fp16], kMinSteps);
  std::vector<double> engine_walls;
  std::vector<double> coverage;
  std::vector<int> roots;
  const Stopwatch loop;
  int op = 0;
  while (roots.size() < iterations && !engine.done()) {
    tracer.set_op(op++);
    engine_walls.push_back(engine_step(engine, result));
    const int root = traced.step(tracer);
    roots.push_back(root);
    coverage.push_back(tracer.children_seconds(root) / tracer.seconds(root));
    traced.isolated_calls(tracer);
    result.check(all_finite(state->task->params()),
                 format("parameters finite after traced iteration %d", op));
  }
  const double loop_s = loop.seconds();
  check_quality(*state->task, untrained, result);

  std::vector<double> step_walls;
  for (int root : roots) step_walls.push_back(tracer.seconds(root));
  const double reenact_gap = median(step_walls) / median(engine_walls) - 1.0;
  const double cov = median(coverage);
  result.check(cov >= 0.95,
               format("layer spans cover %.4f of the re-enacted step (>= 0.95)",
                      cov));
  result.check(std::fabs(reenact_gap) <= kStepP50Bound,
               format("re-enacted step p50 within %.2f of the engine step's "
                      "(gap %.4f)",
                      kStepP50Bound, reenact_gap));

  auto med = [&](const char* name) { return median(tracer.durations(name)); };
  const double d = static_cast<double>(traced.d());
  const double fwdbwd = med("autodiff.fwdbwd");
  const double codec =
      med(dense_fp16 ? "compress.codec" : "isolated.compress.codec");
  result.set("autodiff.fwdbwd_ms", fwdbwd * 1e3);
  result.set("autodiff.gflops", 6.0 * kGlobalBatch * d / fwdbwd * 1e-9);
  result.set("compress.codec_ms", codec * 1e3);
  result.set("compress.codec_ns_per_elem", codec * 1e9 / (kWorld * d));
  result.set("compress.codec_subnormal_frac", mean(traced.subnormal_frac()));
  result.set("compress.mstopk_ms", med("isolated.compress.mstopk") * 1e3);
  result.set("compress.ef_ms",
             median_pair_sum(tracer.durations("isolated.compress.ef")) * 1e3);
  result.set("collectives.hitopk_ms",
             med(dense_fp16 ? "isolated.collectives.hitopk"
                            : "collectives.hitopk") * 1e3);
  result.set("collectives.allreduce_ms",
             med(dense_fp16 ? "collectives.allreduce"
                            : "isolated.collectives.allreduce") * 1e3);
  result.set("collectives.rs_data_ms",
             med("isolated.collectives.rs_data") * 1e3);
  result.set("collectives.hitopk_timing_us",
             med("isolated.collectives.hitopk_timing") * 1e6);
  result.set("collectives.inter_mb",
             static_cast<double>(traced.inter_bytes()) * 1e-6);
  result.set("collectives.intra_mb",
             static_cast<double>(traced.intra_bytes()) * 1e-6);
  result.set("pto.sgd_ms", med("pto.sgd") * 1e3);
  result.set("train.coverage", cov);
  result.set("train.reenact_gap", reenact_gap);
  result.set("train.sim_comm_ms", engine.comm_seconds() / engine.iter() * 1e3);
  result.set("trace.overhead_frac", static_cast<double>(tracer.size()) *
                                        Tracer::seconds_per_span() / loop_s);
  result.note(format("%zu traced iterations; engine step p50 %.3f ms, "
                     "re-enacted %.3f ms",
                     roots.size(), median(engine_walls) * 1e3,
                     median(step_walls) * 1e3));
}

}  // namespace

void run_train(const RunOptions& options, bool dense_fp16, Result& result) {
  if (options.tracer != nullptr) {
    run_traced(options, dense_fp16, result);
  } else {
    run_untraced(options, dense_fp16, result);
  }
}

}  // namespace e2e
