#include "train/timeline.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "collectives/hitopkcomm.h"
#include "collectives/naive_allgather.h"
#include "collectives/ring.h"
#include "collectives/torus2d.h"
#include "collectives/tree_allreduce.h"
#include "core/check.h"
#include "models/calibration.h"
#include "models/model_zoo.h"
#include "models/perf_model.h"
#include "pto/pto.h"
#include "train/fusion.h"

namespace hitopk::train {

using models::Calibration;

// Mixed-precision training (§5.3): dense gradients and sparse values both
// travel half-width.
constexpr coll::WireDtype kGradientWire = coll::WireDtype::kFp16;

std::string algorithm_name(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kDenseTree: return "Dense-SGD";
    case Algorithm::kDense2dTorus: return "2DTAR-SGD";
    case Algorithm::kTopkNaiveAg: return "TopK-SGD";
    case Algorithm::kMstopkHitopk: return "MSTopK-SGD";
  }
  return "unknown";
}

TrainingSimulator::TrainingSimulator(simnet::Topology topology,
                                     TrainerOptions options)
    : topology_(std::move(topology)), options_(std::move(options)) {
  HITOPK_VALIDATE(options_.resolution > 0)
      << "resolution must be positive; got" << options_.resolution;
  HITOPK_VALIDATE(options_.local_batch > 0)
      << "local batch must be positive; got" << options_.local_batch;
  HITOPK_VALIDATE(options_.density > 0.0 && options_.density <= 1.0)
      << "density must lie in (0, 1]; got" << options_.density;
  HITOPK_VALIDATE(options_.straggler_cv >= 0.0 &&
                  std::isfinite(options_.straggler_cv))
      << "straggler_cv must be finite and >= 0; got" << options_.straggler_cv;
  HITOPK_VALIDATE(options_.mstopk_samplings > 0)
      << "mstopk_samplings must be positive; got" << options_.mstopk_samplings;
}

double TrainingSimulator::raw_io_seconds() {
  data::DataCacheConfig config;
  config.dataset = options_.model == "transformer"
                       ? data::DatasetSpec::wmt17()
                       : data::DatasetSpec::imagenet();
  config.nodes = topology_.nodes();
  config.use_memory_cache = options_.use_datacache;
  config.use_ssd_cache = options_.use_datacache;
  data::DataCache cache(config);

  // One node fetches gpus * local_batch samples per iteration; on an uneven
  // fleet the busiest node bounds the IO wait.
  const size_t node_batch = static_cast<size_t>(topology_.max_gpus_per_node()) *
                            static_cast<size_t>(options_.local_batch);
  std::vector<uint64_t> ids(node_batch);
  std::iota(ids.begin(), ids.end(), uint64_t{0});
  const double cold = cache.fetch_batch(ids, options_.resolution).seconds;
  if (!options_.use_datacache) return cold;
  // Steady state: the memory cache serves everything.
  return cache.fetch_batch(ids, options_.resolution).seconds;
}

IterationBreakdown TrainingSimulator::simulate_iteration() {
  return simulate_with_io(raw_io_seconds());
}

IterationBreakdown TrainingSimulator::simulate_with_io(
    double raw_io, double compute_multiplier) {
  const models::ModelSpec model = models::model_by_name(options_.model);
  const size_t params = model.total_params();
  double ffbp = models::PerfModel::ffbp_seconds(
      options_.model, options_.resolution, options_.local_batch);
  if (options_.straggler_cv > 0.0 && topology_.world_size() > 1) {
    // Synchronous SGD pays the slowest worker's compute time each
    // iteration: Gaussian order-statistic approximation of E[max of P].
    ffbp *= 1.0 + options_.straggler_cv *
                      std::sqrt(2.0 * std::log(static_cast<double>(
                                    topology_.world_size())));
  }
  // Bursty/correlated jitter (fault scenarios): the whole iteration waits
  // for the slowest pod, so its burst factor multiplies on top of the
  // steady-state order statistic.
  ffbp *= compute_multiplier;
  const double forward_end = ffbp * models::PerfModel::forward_fraction;
  const double bp_duration = ffbp - forward_end;

  const auto buckets =
      fuse_buckets(model.backprop_order_sizes(), options_.fusion_bytes, 4,
                   model.backprop_order_compute_weights());

  simnet::Cluster cluster(topology_);
  const coll::Group world = coll::world_group(topology_);
  const bool sparse = options_.algorithm == Algorithm::kTopkNaiveAg ||
                      options_.algorithm == Algorithm::kMstopkHitopk;

  double comm_done = 0.0;
  double compress_free = 0.0;  // per-rank compression stream (symmetric)
  for (const auto& bucket : buckets) {
    const double ready =
        options_.overlap_comm
            ? forward_end + bp_duration * bucket.ready_fraction
            : ffbp;
    double done = ready;
    switch (options_.algorithm) {
      case Algorithm::kDenseTree: {
        coll::TreeOptions tree;
        tree.wire = kGradientWire;
        done = coll::tree_allreduce(cluster, world, {}, bucket.elems, tree,
                                    ready);
        break;
      }
      case Algorithm::kDense2dTorus: {
        done = ready + coll::torus2d_allreduce(cluster, {}, bucket.elems,
                                               kGradientWire, ready)
                           .total;
        break;
      }
      case Algorithm::kTopkNaiveAg: {
        // Exact top-k shares the GPU compute stream (a TF op), so it cannot
        // start before backpropagation finishes — which is why Fig. 1 shows
        // the full 0.239 s exposed.
        const size_t k = std::max<size_t>(
            1, static_cast<size_t>(options_.density *
                                   static_cast<double>(bucket.elems)));
        const double start = std::max({ready, compress_free, ffbp});
        const double compressed =
            start + gpu_.exact_topk_seconds(bucket.elems);
        compress_free = compressed;
        const double accumulate = gpu_.scatter_add_seconds(
            static_cast<size_t>(topology_.world_size()) * k);
        done = compressed +
               coll::naive_sparse_allgather_time(
                   cluster, k,
                   coll::wire_elem_bytes(kGradientWire),
                   accumulate, compressed)
                   .total;
        break;
      }
      case Algorithm::kMstopkHitopk: {
        coll::HiTopKOptions hi;
        hi.density = options_.density;
        hi.value_wire = kGradientWire;
        hi.mstopk_samplings = options_.mstopk_samplings;
        hi.gpu = &gpu_;
        const auto breakdown =
            coll::hitopk_comm(cluster, {}, bucket.elems, hi, ready);
        done = ready + breakdown.total;
        break;
      }
    }
    comm_done = std::max(comm_done, done);
  }

  // Tail: LARS rates (serial or PTO) + the weight update.
  const double tail_start = std::max({ffbp, comm_done, compress_free});
  double lars_seconds;
  if (options_.use_pto && topology_.world_size() > 1) {
    simnet::Cluster pto_cluster(topology_);
    const double serial = gpu_.lars_seconds(model.num_tensors(), params);
    const double framework =
        options_.model == "transformer"
            ? Calibration::pto_framework_overhead_transformer
            : Calibration::pto_framework_overhead_resnet50;
    lars_seconds =
        pto::pto_timing(pto_cluster, model.num_tensors(), 4, serial, framework)
            .pto_seconds;
  } else {
    lars_seconds = gpu_.lars_seconds(model.num_tensors(), params);
  }
  const double update_seconds = gpu_.elementwise_seconds(params, 3);
  double overhead;
  if (sparse) {
    overhead = Calibration::framework_overhead_sparse;
  } else if (options_.algorithm == Algorithm::kDenseTree) {
    overhead = Calibration::framework_overhead_dense +
               Calibration::framework_overhead_per_tensor *
                   static_cast<double>(model.num_tensors());
  } else {
    overhead = Calibration::framework_overhead_torus;
  }
  const double pipeline_total =
      tail_start + lars_seconds + update_seconds + overhead;

  // The prefetch pipeline hides I/O behind compute.
  const double total = std::max(raw_io, pipeline_total);

  IterationBreakdown out;
  out.ffbp = ffbp;
  out.compression = std::max(0.0, compress_free - ffbp);
  out.communication =
      std::max(0.0, comm_done - std::max(ffbp, compress_free));
  out.lars = lars_seconds + update_seconds;
  out.overhead = overhead;
  out.io = total - pipeline_total;
  out.total = total;
  out.throughput = static_cast<double>(options_.local_batch) *
                   static_cast<double>(topology_.world_size()) / total;
  return out;
}

IterationBreakdown TrainingSimulator::simulate_single_gpu() {
  const models::ModelSpec model = models::model_by_name(options_.model);
  const double ffbp = models::PerfModel::ffbp_seconds(
      options_.model, options_.resolution, options_.local_batch);
  const double lars_seconds =
      gpu_.lars_seconds(model.num_tensors(), model.total_params());
  const double update_seconds =
      gpu_.elementwise_seconds(model.total_params(), 3);
  const double pipeline_total = ffbp + lars_seconds + update_seconds;

  // Single-GPU I/O: one GPU's batch, DataCache enabled (the baselines in
  // §5.5.2 are measured with healthy local input pipelines).
  data::DataCacheConfig config;
  config.dataset = options_.model == "transformer"
                       ? data::DatasetSpec::wmt17()
                       : data::DatasetSpec::imagenet();
  config.nodes = 1;
  data::DataCache cache(config);
  std::vector<uint64_t> ids(static_cast<size_t>(options_.local_batch));
  std::iota(ids.begin(), ids.end(), uint64_t{0});
  cache.fetch_batch(ids, options_.resolution);
  const double io = cache.fetch_batch(ids, options_.resolution).seconds;

  IterationBreakdown out;
  out.ffbp = ffbp;
  out.lars = lars_seconds + update_seconds;
  out.total = std::max(io, pipeline_total);
  out.io = out.total - pipeline_total;
  out.throughput = static_cast<double>(options_.local_batch) / out.total;
  return out;
}

double TrainingSimulator::scaling_efficiency() {
  const double cluster_throughput = simulate_iteration().throughput;
  const double single_throughput = simulate_single_gpu().throughput;
  return cluster_throughput /
         (static_cast<double>(topology_.world_size()) * single_throughput);
}

}  // namespace hitopk::train
