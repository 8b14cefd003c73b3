// Bad input at the simulator's public entry points stops with a
// ConfigError (exit 2 from every bench and example main, core/cli.h), never
// a CheckError abort, a std::length_error or a silent run.  One row per bad
// case; simulate_cli's flags map onto the Topology, TrainerOptions,
// PerfModel and DataCache rows, every check ConvergenceEngine makes of
// its ConvergenceOptions has a row, and so does every check hitopk_comm
// makes of its HiTopKOptions and rank buffers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "collectives/hitopkcomm.h"
#include "core/check.h"
#include "core/tensor.h"
#include "data/datacache.h"
#include "models/perf_model.h"
#include "simnet/topology.h"
#include "train/convergence.h"
#include "train/timeline.h"

namespace hitopk {
namespace {

struct BadCase {
  std::string name;
  std::function<void()> call;
};

train::TrainerOptions trainer_with(
    const std::function<void(train::TrainerOptions&)>& edit) {
  train::TrainerOptions options;
  edit(options);
  return options;
}

void simulate(const train::TrainerOptions& options) {
  train::TrainingSimulator sim(simnet::Topology::tencent_cloud(2, 8), options);
  sim.simulate_iteration();
}

// Builds a ConvergenceEngine on a small vision task from the default
// options with one field edited.
void converge(const std::function<void(train::ConvergenceOptions&)>& edit) {
  static const auto task = train::make_vision_task(7);
  train::ConvergenceOptions options;
  edit(options);
  train::ConvergenceEngine engine(*task, options);
}

// One functional hitopk_comm call on a 2 x 2 world of 64-element
// gradients, from the default options with one field edited.  `buffers`
// rank buffers are passed, the last of them `last_elems` long.
void hitopk(const std::function<void(coll::HiTopKOptions&)>& edit,
            size_t buffers = 4, size_t last_elems = 64) {
  const simnet::LinkParams link{1e-6, 1e-9};
  simnet::Cluster cluster(simnet::Topology(2, 2, link, link));
  std::vector<Tensor> grads(buffers, Tensor(64));
  grads.back() = Tensor(last_elems);
  coll::RankData spans;
  for (Tensor& g : grads) {
    g.fill(1.0f);
    spans.push_back(g.span());
  }
  coll::HiTopKOptions options;
  edit(options);
  coll::hitopk_comm(cluster, spans, 64, options, 0.0);
}

std::vector<BadCase> bad_cases() {
  using Algo = train::ConvergenceAlgorithm;
  const simnet::LinkParams link{1e-6, 1e-9};
  return {
      // simulate_cli --nodes=0 / --gpus=0.
      {"topology nodes=0", [] { simnet::Topology::tencent_cloud(0, 8); }},
      {"topology gpus=0", [] { simnet::Topology::tencent_cloud(16, 0); }},
      {"topology nodes=-3", [] { simnet::Topology::aliyun(-3, 8); }},
      {"uneven fleet with an empty node",
       [link] { simnet::Topology(std::vector<int>{8, 0, 4}, link, link); }},
      {"uneven fleet of no nodes",
       [link] { simnet::Topology(std::vector<int>{}, link, link); }},
      {"oversubscription below 1",
       [link] { simnet::Topology(2, 4, link, link, 0.0, 0.5); }},
      {"negative nodes_per_pod",
       [link] { simnet::Topology(2, 4, link, link, 0.0, 1.0, -1); }},
      // simulate_cli --batch=0 / --batch=-4 / --resolution=0 /
      // --straggler-cv=-1 / --density.
      {"trainer batch=0", [] {
         simulate(trainer_with([](auto& o) { o.local_batch = 0; }));
       }},
      {"trainer batch=-4", [] {
         simulate(trainer_with([](auto& o) { o.local_batch = -4; }));
       }},
      {"trainer resolution=0", [] {
         simulate(trainer_with([](auto& o) { o.resolution = 0; }));
       }},
      {"trainer straggler_cv=-1", [] {
         simulate(trainer_with([](auto& o) { o.straggler_cv = -1.0; }));
       }},
      {"trainer straggler_cv=nan", [] {
         simulate(trainer_with([](auto& o) { o.straggler_cv = NAN; }));
       }},
      {"trainer density=0", [] {
         simulate(trainer_with([](auto& o) { o.density = 0.0; }));
       }},
      {"trainer density=2", [] {
         simulate(trainer_with([](auto& o) { o.density = 2.0; }));
       }},
      {"trainer density=nan", [] {
         simulate(trainer_with([](auto& o) { o.density = NAN; }));
       }},
      {"trainer mstopk_samplings=0", [] {
         simulate(trainer_with([](auto& o) { o.mstopk_samplings = 0; }));
       }},
      {"perf model batch=0",
       [] { models::PerfModel::ffbp_seconds("resnet50", 224, 0); }},
      {"perf model resolution=0",
       [] { models::PerfModel::ffbp_seconds("resnet50", 0, 32); }},
      {"datacache nodes=0", [] {
         data::DataCacheConfig config;
         config.nodes = 0;
         data::DataCache cache(config);
       }},
      {"datacache cache_resolution=-1", [] {
         data::DataCacheConfig config;
         config.cache_resolution = -1;
         data::DataCache cache(config);
       }},
      {"datacache fetch at resolution 0", [] {
         data::DataCache cache(data::DataCacheConfig{});
         const std::vector<uint64_t> ids = {0, 1, 2};
         cache.fetch_batch(ids, 0);
       }},
      {"convergence nodes=0",
       [] { converge([](auto& o) { o.nodes = 0; }); }},
      {"convergence gpus_per_node=0",
       [] { converge([](auto& o) { o.gpus_per_node = 0; }); }},
      {"convergence local_batch=0",
       [] { converge([](auto& o) { o.local_batch = 0; }); }},
      {"convergence epochs=-1",
       [] { converge([](auto& o) { o.epochs = -1; }); }},
      {"convergence warmup_epochs=-1",
       [] { converge([](auto& o) { o.warmup_epochs = -1; }); }},
      {"convergence learning_rate=nan",
       [] { converge([](auto& o) { o.learning_rate = NAN; }); }},
      {"convergence learning_rate=inf",
       [] { converge([](auto& o) { o.learning_rate = INFINITY; }); }},
      {"convergence learning_rate=-1",
       [] { converge([](auto& o) { o.learning_rate = -1.0; }); }},
      {"convergence learning_rate=0",
       [] { converge([](auto& o) { o.learning_rate = 0.0; }); }},
      {"convergence momentum=nan",
       [] { converge([](auto& o) { o.momentum = NAN; }); }},
      {"convergence momentum=-0.5",
       [] { converge([](auto& o) { o.momentum = -0.5; }); }},
      {"convergence momentum=1",
       [] { converge([](auto& o) { o.momentum = 1.0; }); }},
      {"convergence momentum=2",
       [] { converge([](auto& o) { o.momentum = 2.0; }); }},
      {"convergence global batch over the training set",
       [] { converge([](auto& o) { o.local_batch = 1 << 20; }); }},
      {"convergence topk density=0", [] {
         converge([](auto& o) {
           o.algorithm = Algo::kTopk;
           o.density = 0.0;
         });
       }},
      {"convergence mstopk density=2", [] {
         converge([](auto& o) {
           o.algorithm = Algo::kMstopk;
           o.density = 2.0;
         });
       }},
      {"convergence randomk density=nan", [] {
         converge([](auto& o) {
           o.algorithm = Algo::kRandomk;
           o.density = NAN;
         });
       }},
      {"convergence mstopk_samplings=0", [] {
         converge([](auto& o) {
           o.algorithm = Algo::kMstopk;
           o.mstopk_samplings = 0;
         });
       }},
      {"convergence local_sgd_period=0", [] {
         converge([](auto& o) {
           o.algorithm = Algo::kLocalSgd;
           o.local_sgd_period = 0;
         });
       }},
      {"convergence LocalSGD with an fp16 wire", [] {
         converge([](auto& o) {
           o.algorithm = Algo::kLocalSgd;
           o.gradient_wire = compress::WireDtype::kFp16;
         });
       }},
      {"hitopk density=0", [] { hitopk([](auto& o) { o.density = 0.0; }); }},
      {"hitopk density=2", [] { hitopk([](auto& o) { o.density = 2.0; }); }},
      {"hitopk density=nan", [] {
         hitopk([](auto& o) { o.density = std::nan(""); });
       }},
      {"hitopk mstopk_samplings=0",
       [] { hitopk([](auto& o) { o.mstopk_samplings = 0; }); }},
      {"hitopk three rank buffers for a world of four",
       [] { hitopk([](auto&) {}, 3); }},
      {"hitopk one rank buffer short",
       [] { hitopk([](auto&) {}, 4, 63); }},
  };
}

TEST(ApiBoundary, BadInputRaisesConfigError) {
  for (const BadCase& bad : bad_cases()) {
    EXPECT_THROW(bad.call(), ConfigError) << bad.name;
  }
}

TEST(ApiBoundary, DefaultsStillRun) {
  // The rows above differ from these calls only in the bad field.
  EXPECT_NO_THROW(simulate(train::TrainerOptions{}));
  EXPECT_NO_THROW(models::PerfModel::ffbp_seconds("resnet50", 224, 32));
  data::DataCache cache(data::DataCacheConfig{});
  const std::vector<uint64_t> ids = {0, 1, 2};
  EXPECT_NO_THROW(cache.fetch_batch(ids, 224));
  EXPECT_NO_THROW(converge([](auto&) {}));
  // The edges of the optimizer ranges.
  EXPECT_NO_THROW(converge([](auto& o) { o.momentum = 0.0; }));
  EXPECT_NO_THROW(converge([](auto& o) { o.learning_rate = 1e-30; }));
  EXPECT_NO_THROW(hitopk([](auto&) {}));
  EXPECT_NO_THROW(hitopk([](auto& o) { o.density = 1.0; }));
}

}  // namespace
}  // namespace hitopk
