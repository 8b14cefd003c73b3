#include "train/convergence.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "collectives/common.h"
#include "collectives/gtopk.h"
#include "collectives/hitopkcomm.h"
#include "collectives/naive_allgather.h"
#include "collectives/ring.h"
#include "compress/exact_topk.h"
#include "compress/other_compressors.h"
#include "core/check.h"
#include "core/half.h"
#include "core/parallel.h"
#include "train/checkpoint.h"

namespace hitopk::train {

std::string convergence_algorithm_name(ConvergenceAlgorithm algorithm) {
  switch (algorithm) {
    case ConvergenceAlgorithm::kDense: return "Dense-SGD";
    case ConvergenceAlgorithm::kTopk: return "TopK-SGD";
    case ConvergenceAlgorithm::kMstopk: return "MSTopK-SGD";
    case ConvergenceAlgorithm::kRandomk: return "RandomK-SGD";
    case ConvergenceAlgorithm::kGtopk: return "gTopK-SGD";
    case ConvergenceAlgorithm::kLocalSgd: return "LocalSGD";
  }
  return "unknown";
}

namespace {

// Key prefix of MSTopK-SGD's HiTopKComm residuals.
constexpr char kShardKeyPrefix[] = "shard";

// The cyclically-next active worker after `w` — the fold target for a dead
// worker's error-feedback residual (docs/INTERNALS.md: fold policy).
int fold_target(int w, const std::vector<int>& active) {
  for (int a : active) {
    if (a > w) return a;
  }
  return active.front();
}

int index_of(int value, const std::vector<int>& v) {
  for (size_t i = 0; i < v.size(); ++i) {
    if (v[i] == value) return static_cast<int>(i);
  }
  HITOPK_CHECK(false) << "value not found";
  return -1;
}

// Rejects options the engine cannot run with a ConfigError, before any
// member (the topology, the batch arithmetic) is built from them.
const ConvergenceOptions& validated(const ConvergenceOptions& options,
                                    const ConvergenceTask& task) {
  const ConvergenceAlgorithm algorithm = options.algorithm;
  HITOPK_VALIDATE(options.nodes > 0 && options.gpus_per_node > 0)
      << "the world needs at least one node and one GPU per node, got"
      << options.nodes << "x" << options.gpus_per_node;
  HITOPK_VALIDATE(options.local_batch > 0)
      << "local_batch must be positive, got" << options.local_batch;
  HITOPK_VALIDATE(options.epochs >= 0 && options.warmup_epochs >= 0)
      << "epochs and warmup_epochs must be non-negative, got"
      << options.epochs << "and" << options.warmup_epochs;
  // NaN fails every comparison, so these checks reject it too.
  HITOPK_VALIDATE(options.learning_rate > 0.0 &&
                  std::isfinite(options.learning_rate))
      << "learning_rate must be finite and positive, got"
      << options.learning_rate;
  HITOPK_VALIDATE(options.momentum >= 0.0 && options.momentum < 1.0)
      << "momentum must lie in [0, 1), got" << options.momentum;
  HITOPK_VALIDATE(static_cast<size_t>(options.world()) *
                      static_cast<size_t>(options.local_batch) <=
                  task.train_size())
      << "global batch" << options.world() << "x" << options.local_batch
      << "exceeds the" << task.train_size() << "training samples";
  const bool sparse = algorithm != ConvergenceAlgorithm::kDense &&
                      algorithm != ConvergenceAlgorithm::kLocalSgd;
  HITOPK_VALIDATE(!sparse || (options.density > 0.0 && options.density <= 1.0))
      << "density must lie in (0, 1], got" << options.density;
  HITOPK_VALIDATE(algorithm != ConvergenceAlgorithm::kMstopk ||
                  options.mstopk_samplings > 0)
      << "mstopk_samplings must be positive, got" << options.mstopk_samplings;
  if (algorithm == ConvergenceAlgorithm::kLocalSgd) {
    HITOPK_VALIDATE(options.local_sgd_period > 0)
        << "local_sgd_period must be positive, got"
        << options.local_sgd_period;
    HITOPK_VALIDATE(options.gradient_wire == compress::WireDtype::kFp32)
        << "LocalSGD averages parameters and sends no gradients; its"
        << "gradient_wire must be fp32, got"
        << compress::wire_dtype_name(options.gradient_wire);
  }
  return options;
}

}  // namespace

ConvergenceEngine::ConvergenceEngine(ConvergenceTask& task,
                                     const ConvergenceOptions& options)
    : task_(task),
      options_(validated(options, task)),
      world_(options.world()),
      d_(task.param_count()),
      global_batch_(static_cast<size_t>(world_) *
                    static_cast<size_t>(options.local_batch)),
      topology_(options.nodes, options.gpus_per_node,
                simnet::LinkParams{6e-6, 1.0 / 45e9},
                simnet::LinkParams{25e-6, 1.0 / 1.2e9}, 1.0 / 2.5e9),
      local_sgd_(options.algorithm == ConvergenceAlgorithm::kLocalSgd),
      sgd_(options.momentum, 0.0),
      shuffle_rng_(options.seed),
      compressor_rng_(options.seed + 17),
      order_(task.train_size()),
      worker_loss_(static_cast<size_t>(options.world()), 0.0),
      active_(static_cast<size_t>(options.world()), 1),
      active_count_(options.world()),
      shrunk_(coll::shrink_topology(topology_, {})),
      pending_correction_(task.param_count()) {
  iters_per_epoch_ = static_cast<int>(task_.train_size() / global_batch_);
  total_iters_ = options_.epochs * iters_per_epoch_;
  warmup_iters_ = options_.warmup_epochs * iters_per_epoch_;

  worker_grads_.reserve(static_cast<size_t>(world_));
  for (int w = 0; w < world_; ++w) worker_grads_.emplace_back(d_);

  if (local_sgd_) {
    for (int w = 0; w < world_; ++w) {
      Tensor copy(d_);
      std::copy(task_.params().begin(), task_.params().end(),
                copy.span().begin());
      worker_params_.push_back(std::move(copy));
    }
  }
  std::iota(order_.begin(), order_.end(), size_t{0});
  rebuild_active_caches();
}

double ConvergenceEngine::lr_at(int iter) const {
  if (iter < warmup_iters_) {
    return options_.learning_rate * (iter + 1) /
           static_cast<double>(std::max(1, warmup_iters_));
  }
  const double progress =
      static_cast<double>(iter - warmup_iters_) /
      static_cast<double>(std::max(1, total_iters_ - warmup_iters_));
  return options_.learning_rate * 0.5 * (1.0 + std::cos(M_PI * progress));
}

bool ConvergenceEngine::worker_active(int w) const {
  HITOPK_CHECK(w >= 0 && w < world_);
  return active_[static_cast<size_t>(w)] != 0;
}

void ConvergenceEngine::rebuild_active_caches() {
  active_idx_.clear();
  std::vector<int> dead;
  for (int w = 0; w < world_; ++w) {
    (active_[static_cast<size_t>(w)] ? active_idx_ : dead).push_back(w);
  }
  active_count_ = static_cast<int>(active_idx_.size());
  if (active_count_ > 0 && active_count_ < world_) {
    shrunk_ = coll::shrink_topology(topology_, dead);
  }
  active_grads_.clear();
  for (int w : active_idx_) {
    active_grads_.push_back(worker_grads_[static_cast<size_t>(w)].span());
  }
}

const simnet::Topology& ConvergenceEngine::active_topology() const {
  HITOPK_CHECK_GT(active_count_, 0);
  return active_count_ == world_ ? topology_ : shrunk_.topology;
}

void ConvergenceEngine::flush_residual_to_pending(std::span<const float> values,
                                                  size_t begin) {
  HITOPK_CHECK_LE(begin + values.size(), d_);
  tensor_ops::add_into(pending_correction_.slice(begin, values.size()), values);
  has_pending_correction_ = true;
}

// EF residual remap policy (docs/INTERNALS.md):
//  - worker-keyed residuals ("w{orig}", kTopk/kRandomk): a dead worker's
//    residual is folded (vector add) into the cyclically-next survivor's —
//    the total unsent gradient mass is preserved and re-enters selection.
//  - rank-slot keys ("g:{slot}", kGtopk): survivors' entries are re-keyed to
//    their new dense slots; dead entries fold into their fold target's slot.
//  - shard keys (kMstopk, coll::hitopk_ef_entries) cover HiTopKComm's shard
//    ranges of the old world, which a new shard layout cannot inherit — so
//    on any world change every kMstopk residual is *flushed* into
//    pending_correction_ and delivered with the next aggregated update.
// The old world is the current active set: callers remap before they
// change it.
void ConvergenceEngine::remap_ef_for_world_change(
    const std::vector<int>& old_active, const std::vector<int>& new_active) {
  if (!options_.use_error_feedback || local_sgd_ ||
      options_.algorithm == ConvergenceAlgorithm::kDense) {
    return;
  }
  switch (options_.algorithm) {
    case ConvergenceAlgorithm::kTopk:
    case ConvergenceAlgorithm::kRandomk: {
      if (worker_keys_.empty()) return;  // first aggregation never ran
      for (int w : old_active) {
        if (std::find(new_active.begin(), new_active.end(), w) !=
            new_active.end()) {
          continue;
        }
        const std::string& key = worker_keys_[static_cast<size_t>(w)];
        if (!error_feedback_.has(key)) continue;
        const Tensor residual = error_feedback_.take(key);
        if (new_active.empty()) {
          flush_residual_to_pending(residual.span(), 0);
        } else {
          const int target = fold_target(w, new_active);
          error_feedback_.accumulate(worker_keys_[static_cast<size_t>(target)],
                                     residual.span());
        }
      }
      break;
    }
    case ConvergenceAlgorithm::kGtopk: {
      // Take every populated slot of the old dense numbering, then re-key
      // (take-all-then-set avoids rename collisions).
      std::vector<std::pair<int, Tensor>> taken;  // original worker -> residual
      for (size_t slot = 0; slot < old_active.size(); ++slot) {
        const std::string key = "g:" + std::to_string(slot);
        if (!error_feedback_.has(key)) continue;
        taken.emplace_back(old_active[slot], error_feedback_.take(key));
      }
      for (auto& [orig, residual] : taken) {
        if (new_active.empty()) {
          flush_residual_to_pending(residual.span(), 0);
          continue;
        }
        const bool survived = std::find(new_active.begin(), new_active.end(),
                                        orig) != new_active.end();
        const int target = survived ? orig : fold_target(orig, new_active);
        const int slot = index_of(target, new_active);
        error_feedback_.accumulate("g:" + std::to_string(slot),
                                   residual.span());
      }
      break;
    }
    case ConvergenceAlgorithm::kMstopk: {
      // An empty world holds no residuals: the preemption that emptied it
      // flushed them.
      if (old_active.empty()) break;
      for (const coll::HiTopKEfEntry& entry :
           coll::hitopk_ef_entries(active_topology(), d_, kShardKeyPrefix)) {
        if (!error_feedback_.has(entry.key)) continue;
        flush_residual_to_pending(error_feedback_.take(entry.key).span(),
                                  entry.range.begin);
      }
      break;
    }
    case ConvergenceAlgorithm::kDense:
    case ConvergenceAlgorithm::kLocalSgd:
      break;
  }
}

void ConvergenceEngine::preempt_worker(int w) {
  HITOPK_CHECK(w >= 0 && w < world_);
  if (!active_[static_cast<size_t>(w)]) return;
  const std::vector<int> old_active = active_idx_;
  std::vector<int> new_active;
  for (int a : old_active) {
    if (a != w) new_active.push_back(a);
  }
  remap_ef_for_world_change(old_active, new_active);
  active_[static_cast<size_t>(w)] = 0;
  rebuild_active_caches();
}

void ConvergenceEngine::restore_worker(int w) {
  HITOPK_CHECK(w >= 0 && w < world_);
  if (active_[static_cast<size_t>(w)]) return;
  const std::vector<int> old_active = active_idx_;
  std::vector<int> new_active = old_active;
  new_active.insert(
      std::upper_bound(new_active.begin(), new_active.end(), w), w);
  remap_ef_for_world_change(old_active, new_active);
  active_[static_cast<size_t>(w)] = 1;
  rebuild_active_caches();
  // The returning worker rejoins with the shared model and cold per-worker
  // state: fresh parameter copy (LocalSGD), zero momentum, zero residual.
  if (local_sgd_) {
    std::copy(task_.params().begin(), task_.params().end(),
              worker_params_[static_cast<size_t>(w)].span().begin());
    sgd_.reset("local" + std::to_string(w));
  }
  if (!worker_keys_.empty()) {
    error_feedback_.set(worker_keys_[static_cast<size_t>(w)],
                        Tensor(d_).span());
  }
}

void ConvergenceEngine::ensure_worker_keys() {
  if (!options_.use_error_feedback || !worker_keys_.empty()) return;
  // Keys for the *full* world (dead workers get zero entries): the key set
  // is then independent of when the first sparse aggregation runs, and a
  // worker returning later finds its slot waiting.
  for (int w = 0; w < world_; ++w) {
    worker_keys_.push_back("w" + std::to_string(w));
    error_feedback_.ensure(worker_keys_.back(), d_);
  }
}

void ConvergenceEngine::begin_epoch() {
  HITOPK_CHECK(!epoch_open_) << "begin_epoch with an epoch already open";
  HITOPK_CHECK(!done());
  shuffle_rng_.shuffle(order_);
  epoch_loss_ = 0.0;
  step_in_epoch_ = 0;
  epoch_open_ = true;
}

void ConvergenceEngine::average_worker_params(simnet::Cluster& cluster) {
  coll::RankData param_spans;
  for (int w : active_idx_) {
    param_spans.push_back(worker_params_[static_cast<size_t>(w)].span());
  }
  if (active_count_ > 1) {
    coll::ring_allreduce(cluster, coll::world_group(active_topology()),
                         param_spans, d_, coll::WireDtype::kFp32, 0.0);
  }
  for (int w : active_idx_) {
    worker_params_[static_cast<size_t>(w)] *=
        1.0f / static_cast<float>(active_count_);
  }
  std::copy(worker_params_[static_cast<size_t>(active_idx_[0])].span().begin(),
            worker_params_[static_cast<size_t>(active_idx_[0])].span().end(),
            task_.params().begin());
}

void ConvergenceEngine::aggregate_dense(simnet::Cluster& cluster) {
  coll::ring_allreduce(cluster, coll::world_group(active_topology()),
                       active_grads_, d_, coll::WireDtype::kFp32, 0.0);
}

void ConvergenceEngine::aggregate_sparse_workers(simnet::Cluster& cluster,
                                                 bool random_k) {
  const size_t k = std::max<size_t>(
      1, static_cast<size_t>(options_.density * static_cast<double>(d_)));
  std::vector<compress::SparseTensor> sparse(
      static_cast<size_t>(active_count_));
  // Per-worker EF + selection commute (disjoint grad buffers, per-worker
  // residual entries pre-created so the workers only look keys up,
  // per-worker seeds drawn in rank order up front), so the loop runs on the
  // pool bitwise-identical to serial — the same pattern as HiTopKComm's
  // per-shard selection.  The fused EF exchange (apply_priming /
  // absorb_primed) holds because grads are untouched between compensation
  // and absorption.  Seeds are drawn for every *original* worker whether
  // active or not, so survivors' compressor streams do not shift when the
  // world rescales.
  std::vector<uint64_t> worker_seeds;
  if (random_k) {
    for (int w = 0; w < world_; ++w) {
      worker_seeds.push_back(compressor_rng_.next_u64());
    }
  }
  ensure_worker_keys();
  parallel_for(0, static_cast<size_t>(active_count_), [&](size_t i) {
    const auto w = static_cast<size_t>(active_idx_[i]);
    auto grad = worker_grads_[w].span();
    if (options_.use_error_feedback) {
      error_feedback_.apply_priming(worker_keys_[w], grad);
    }
    if (!random_k) {
      sparse[i] = compress::exact_topk(grad, k);
    } else {
      compress::RandomK rk(worker_seeds[w]);
      sparse[i] = rk.compress(grad, k);
    }
    if (options_.use_error_feedback) {
      error_feedback_.absorb_primed(worker_keys_[w], sparse[i]);
    }
  });
  coll::naive_sparse_allgather(cluster, sparse, active_grads_, d_, 4, 0.0,
                               0.0);
}

void ConvergenceEngine::aggregate_gtopk(simnet::Cluster& cluster) {
  coll::GtopkOptions gtopk;
  gtopk.density = options_.density;
  gtopk.error_feedback =
      options_.use_error_feedback ? &error_feedback_ : nullptr;
  gtopk.ef_key_prefix = "g";
  coll::gtopk_comm(cluster, active_grads_, d_, gtopk, 0.0);
}

void ConvergenceEngine::aggregate_mstopk(simnet::Cluster& cluster) {
  coll::HiTopKOptions hi;
  hi.density = options_.density;
  hi.mstopk_samplings = options_.mstopk_samplings;
  hi.mstopk_histogram = options_.mstopk_histogram;
  hi.seed = options_.seed + static_cast<uint64_t>(iter_) * 977;
  hi.error_feedback =
      options_.use_error_feedback ? &error_feedback_ : nullptr;
  hi.ef_key_prefix = kShardKeyPrefix;
  coll::hitopk_comm(cluster, active_grads_, d_, hi, 0.0);
}

void ConvergenceEngine::step() {
  HITOPK_CHECK(epoch_open_) << "step() outside an open epoch";
  HITOPK_CHECK_LT(step_in_epoch_, iters_per_epoch_);
  HITOPK_VALIDATE(active_count_ > 0)
      << "step() with zero active workers: restore a worker first";
  const int step = step_in_epoch_;
  last_step_comm_seconds_ = 0.0;

  // Real per-worker gradients on disjoint shards of the global batch.
  // Sample offsets are indexed by *original* worker id, so a worker's shard
  // is stable across rescales; a dead worker's shard is simply skipped (the
  // effective global batch shrinks with the world).  Workers are
  // independent — the shared parameters are read-only (LocalSGD workers
  // evaluate at their own parameter copy via gradient_at) and every worker
  // writes only its own grad buffer — so the fan-out runs on the thread
  // pool.  Losses are reduced and the LocalSGD optimizer steps applied in
  // rank order afterwards, keeping the result bitwise-identical to serial
  // execution.
  parallel_for(0, static_cast<size_t>(active_count_), [&](size_t i) {
    const auto w = static_cast<size_t>(active_idx_[i]);
    const size_t offset = static_cast<size_t>(step) * global_batch_ +
                          w * static_cast<size_t>(options_.local_batch);
    std::span<const size_t> idx(&order_[offset],
                                static_cast<size_t>(options_.local_batch));
    worker_loss_[w] =
        local_sgd_ ? task_.gradient_at(worker_params_[w].span(), idx,
                                       worker_grads_[w].span())
                   : task_.gradient(idx, worker_grads_[w].span());
  });
  double loss = 0.0;
  for (int w : active_idx_) {
    loss += worker_loss_[static_cast<size_t>(w)];
    if (local_sgd_) {
      sgd_.step("local" + std::to_string(w),
                worker_params_[static_cast<size_t>(w)].span(),
                worker_grads_[static_cast<size_t>(w)].span(), lr_at(iter_));
    }
  }
  epoch_loss_ += loss / active_count_;

  if (local_sgd_) {
    if ((iter_ + 1) % options_.local_sgd_period == 0) {
      simnet::Cluster cluster(active_topology());
      average_worker_params(cluster);
      const double t = cluster.quiescent_time();
      comm_seconds_ += t;
      last_step_comm_seconds_ += t;
    }
    ++step_in_epoch_;
    ++iter_;
    return;
  }

  // Each round trip splits itself over the pool (wire_codec.h), so this
  // loop runs one parallel call per worker.
  if (options_.gradient_wire != compress::WireDtype::kFp32) {
    for (int w : active_idx_) {
      compress::wire_round_trip(options_.gradient_wire,
                                worker_grads_[static_cast<size_t>(w)].span());
    }
  }

  // Aggregate through the functional collectives.  A single survivor needs
  // no collective at all (All-Reduce of one contribution is the identity):
  // it trains on alone with zero communication.
  if (active_count_ > 1) {
    simnet::Cluster cluster(active_topology());
    switch (options_.algorithm) {
      case ConvergenceAlgorithm::kLocalSgd:
        break;  // handled above (no per-iteration aggregation)
      case ConvergenceAlgorithm::kDense:
        aggregate_dense(cluster);
        break;
      case ConvergenceAlgorithm::kTopk:
        aggregate_sparse_workers(cluster, /*random_k=*/false);
        break;
      case ConvergenceAlgorithm::kRandomk:
        aggregate_sparse_workers(cluster, /*random_k=*/true);
        break;
      case ConvergenceAlgorithm::kGtopk:
        aggregate_gtopk(cluster);
        break;
      case ConvergenceAlgorithm::kMstopk:
        aggregate_mstopk(cluster);
        break;
    }
    const double t = cluster.quiescent_time();
    comm_seconds_ += t;
    last_step_comm_seconds_ += t;
  }

  // The first active worker holds the aggregated gradient (every
  // collective writes it to rank 0; HiTopKComm writes it there only);
  // update the shared parameters with its mean.  Error-feedback mass
  // flushed at a rescale rides along exactly once.  One elementwise pass on
  // the pool: (aggregate + pending) * 1/N, the same two roundings as
  // serially.
  Tensor& aggregated = worker_grads_[static_cast<size_t>(active_idx_[0])];
  const std::span<float> mean = aggregated.span();
  const std::span<float> pending = has_pending_correction_
                                       ? pending_correction_.span()
                                       : std::span<float>{};
  const float inv_n = 1.0f / static_cast<float>(active_count_);
  parallel_chunks(mean.size(), [&](size_t lo, size_t hi) {
    const std::span<float> out = mean.subspan(lo, hi - lo);
    if (!pending.empty()) {
      const std::span<float> flushed = pending.subspan(lo, hi - lo);
      tensor_ops::add_into(out, flushed);
      tensor_ops::zero(flushed);
    }
    tensor_ops::scale(out, inv_n);
  });
  has_pending_correction_ = false;
  if (options_.use_lars) {
    // Per-layer trust ratios over the task's segment table (Eq. 11).
    for (const auto& segment : task_.segments()) {
      lars_.step(segment.name,
                 task_.params().subspan(segment.begin, segment.count),
                 aggregated.slice(segment.begin, segment.count), lr_at(iter_));
    }
  } else {
    sgd_.step("flat", task_.params(), aggregated.span(), lr_at(iter_));
  }
  ++step_in_epoch_;
  ++iter_;
}

EpochPoint ConvergenceEngine::end_epoch() {
  HITOPK_CHECK(epoch_open_) << "end_epoch without an open epoch";
  HITOPK_CHECK_EQ(step_in_epoch_, iters_per_epoch_);
  if (local_sgd_) {
    simnet::Cluster cluster(active_topology());
    average_worker_params(cluster);  // evaluate the averaged model
    const double t = cluster.quiescent_time();
    comm_seconds_ += t;
    last_step_comm_seconds_ += t;
    for (auto& p : worker_params_) {
      std::copy(task_.params().begin(), task_.params().end(),
                p.span().begin());
    }
  }
  EpochPoint point;
  point.epoch = epoch_ + 1;
  point.train_loss = epoch_loss_ / iters_per_epoch_;
  point.quality = task_.evaluate();
  point.residual_norm = std::sqrt(error_feedback_.residual_sq_norm());
  result_.curve.push_back(point);
  result_.best_quality = std::max(result_.best_quality, point.quality);
  ++epoch_;
  epoch_open_ = false;
  return point;
}

void ConvergenceEngine::adopt_params(std::span<const float> params) {
  HITOPK_CHECK_EQ(params.size(), d_);
  std::copy(params.begin(), params.end(), task_.params().begin());
  // Momentum and residuals describe the replaced model: drop them.  The
  // worker-key vector is cleared with the entries so the next sparse
  // aggregation re-creates both serially (parallel workers never insert).
  sgd_.clear();
  lars_.clear();
  error_feedback_.reset();
  worker_keys_.clear();
  pending_correction_.fill(0.0f);
  has_pending_correction_ = false;
  if (local_sgd_) {
    for (auto& p : worker_params_) {
      std::copy(task_.params().begin(), task_.params().end(),
                p.span().begin());
    }
  }
}

ConvergenceResult ConvergenceEngine::result() const {
  ConvergenceResult out = result_;
  out.final_quality = out.curve.empty() ? 0.0 : out.curve.back().quality;
  out.simulated_comm_seconds = comm_seconds_;
  return out;
}

// ---------------------------------------------------------- checkpointing

std::vector<uint8_t> ConvergenceEngine::serialize() const {
  CheckpointWriter writer;
  const std::vector<uint64_t> meta{
      static_cast<uint64_t>(iter_),
      static_cast<uint64_t>(epoch_),
      static_cast<uint64_t>(step_in_epoch_),
      epoch_open_ ? 1u : 0u,
      static_cast<uint64_t>(world_),
      static_cast<uint64_t>(active_count_),
      static_cast<uint64_t>(options_.algorithm),
      has_pending_correction_ ? 1u : 0u,
      worker_keys_.empty() ? 0u : 1u,
      static_cast<uint64_t>(d_),
      options_.seed,
  };
  writer.put_u64s("meta", meta);
  const std::vector<double> clock{comm_seconds_, last_step_comm_seconds_,
                                  epoch_loss_, result_.best_quality};
  writer.put_f64s("clock", clock);
  writer.put_floats("params", task_.params());
  std::vector<uint64_t> order(order_.size());
  std::copy(order_.begin(), order_.end(), order.begin());
  writer.put_u64s("order", order);
  const auto shuffle_state = shuffle_rng_.state();
  writer.put_u64s("rng.shuffle", shuffle_state);
  const auto compressor_state = compressor_rng_.state();
  writer.put_u64s("rng.compressor", compressor_state);
  std::vector<uint64_t> active(active_.size());
  std::copy(active_.begin(), active_.end(), active.begin());
  writer.put_u64s("active", active);
  std::vector<double> curve;
  for (const EpochPoint& p : result_.curve) {
    curve.push_back(static_cast<double>(p.epoch));
    curve.push_back(p.train_loss);
    curve.push_back(p.quality);
    curve.push_back(p.residual_norm);
  }
  writer.put_f64s("curve", curve);
  if (has_pending_correction_) {
    writer.put_floats("pending", pending_correction_.span());
  }
  for (const std::string& key : sgd_.state_keys()) {
    writer.put_floats("sgd:" + key, sgd_.state(key));
  }
  for (const std::string& key : lars_.state_keys()) {
    writer.put_floats("lars:" + key, lars_.state(key));
  }
  for (const std::string& key : error_feedback_.keys()) {
    writer.put_floats("ef:" + key, error_feedback_.residual(key));
  }
  if (local_sgd_) {
    for (int w = 0; w < world_; ++w) {
      writer.put_floats("wp:" + std::to_string(w),
                        worker_params_[static_cast<size_t>(w)].span());
    }
  }
  return writer.finish();
}

void ConvergenceEngine::restore(std::span<const uint8_t> blob) {
  const CheckpointReader reader(blob);  // throws ConfigError on corruption

  const auto meta = reader.u64s("meta");
  HITOPK_VALIDATE(meta.size() == 11) << "checkpoint meta record malformed";
  HITOPK_VALIDATE(meta[4] == static_cast<uint64_t>(world_))
      << "checkpoint world size mismatch";
  HITOPK_VALIDATE(meta[6] == static_cast<uint64_t>(options_.algorithm))
      << "checkpoint algorithm mismatch";
  HITOPK_VALIDATE(meta[9] == static_cast<uint64_t>(d_))
      << "checkpoint parameter count mismatch";
  HITOPK_VALIDATE(meta[10] == options_.seed) << "checkpoint seed mismatch";

  const auto params = reader.floats("params");
  HITOPK_VALIDATE(params.size() == d_);
  const auto order = reader.u64s("order");
  HITOPK_VALIDATE(order.size() == order_.size());
  const auto active = reader.u64s("active");
  HITOPK_VALIDATE(active.size() == static_cast<size_t>(world_));
  const auto clock = reader.f64s("clock");
  HITOPK_VALIDATE(clock.size() == 4);
  const auto curve = reader.f64s("curve");
  HITOPK_VALIDATE(curve.size() % 4 == 0);

  // Everything validated: mutate.
  iter_ = static_cast<int>(meta[0]);
  epoch_ = static_cast<int>(meta[1]);
  step_in_epoch_ = static_cast<int>(meta[2]);
  epoch_open_ = meta[3] != 0;
  has_pending_correction_ = meta[7] != 0;
  comm_seconds_ = clock[0];
  last_step_comm_seconds_ = clock[1];
  epoch_loss_ = clock[2];
  result_.best_quality = clock[3];

  std::copy(params.begin(), params.end(), task_.params().begin());
  std::copy(order.begin(), order.end(), order_.begin());
  std::array<uint64_t, Rng::kStateWords> rng_words;
  const auto shuffle_state = reader.u64s("rng.shuffle");
  HITOPK_VALIDATE(shuffle_state.size() == Rng::kStateWords);
  std::copy(shuffle_state.begin(), shuffle_state.end(), rng_words.begin());
  shuffle_rng_.set_state(rng_words);
  const auto compressor_state = reader.u64s("rng.compressor");
  HITOPK_VALIDATE(compressor_state.size() == Rng::kStateWords);
  std::copy(compressor_state.begin(), compressor_state.end(),
            rng_words.begin());
  compressor_rng_.set_state(rng_words);
  for (int w = 0; w < world_; ++w) {
    active_[static_cast<size_t>(w)] =
        active[static_cast<size_t>(w)] != 0 ? 1 : 0;
  }
  rebuild_active_caches();

  result_.curve.clear();
  for (size_t i = 0; i < curve.size(); i += 4) {
    EpochPoint p;
    p.epoch = static_cast<int>(curve[i]);
    p.train_loss = curve[i + 1];
    p.quality = curve[i + 2];
    p.residual_norm = curve[i + 3];
    result_.curve.push_back(p);
  }

  pending_correction_.fill(0.0f);
  if (has_pending_correction_) {
    const auto pending = reader.floats("pending");
    HITOPK_VALIDATE(pending.size() == d_);
    std::copy(pending.begin(), pending.end(),
              pending_correction_.span().begin());
  }

  sgd_.clear();
  lars_.clear();
  error_feedback_.reset();
  for (const std::string& name : reader.names()) {
    if (name.rfind("sgd:", 0) == 0) {
      sgd_.set_state(name.substr(4), reader.floats(name));
    } else if (name.rfind("lars:", 0) == 0) {
      lars_.set_state(name.substr(5), reader.floats(name));
    } else if (name.rfind("ef:", 0) == 0) {
      error_feedback_.set(name.substr(3), reader.floats(name));
    } else if (name.rfind("wp:", 0) == 0) {
      HITOPK_VALIDATE(local_sgd_)
          << "checkpoint has LocalSGD state but the engine does not";
      const int w = std::stoi(name.substr(3));
      HITOPK_VALIDATE(w >= 0 && w < world_);
      const auto values = reader.floats(name);
      HITOPK_VALIDATE(values.size() == d_);
      std::copy(values.begin(), values.end(),
                worker_params_[static_cast<size_t>(w)].span().begin());
    }
  }

  worker_keys_.clear();
  if (meta[8] != 0) {
    for (int w = 0; w < world_; ++w) {
      worker_keys_.push_back("w" + std::to_string(w));
    }
    // Active workers' entries must exist before parallel apply_priming
    // lookups; the ef records restored them, this is belt-and-braces.
    for (int w : active_idx_) {
      error_feedback_.ensure(worker_keys_[static_cast<size_t>(w)], d_);
    }
  }
}

ConvergenceResult run_convergence(ConvergenceTask& task,
                                  const ConvergenceOptions& options) {
  ConvergenceEngine engine(task, options);
  while (!engine.done()) {
    engine.begin_epoch();
    for (int step = 0; step < engine.iters_per_epoch(); ++step) {
      engine.step();
    }
    engine.end_epoch();
  }
  return engine.result();
}

}  // namespace hitopk::train
