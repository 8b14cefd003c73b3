// End-to-end scenario: plan a 90-epoch ImageNet ResNet-50 run on a public
// cloud cluster, comparing the four SGD algorithms on iteration breakdown,
// throughput, and projected wall-clock — the workload the paper's
// introduction motivates.
#include <iostream>

#include "core/cli.h"
#include "core/table.h"
#include "data/dataset.h"
#include "train/timeline.h"

int run() {
  using hitopk::TablePrinter;
  using namespace hitopk::train;

  const auto topo = hitopk::simnet::Topology::tencent_cloud(16, 8);
  const auto dataset = hitopk::data::DatasetSpec::imagenet();
  const int epochs = 90;

  std::cout << "Planning a " << epochs << "-epoch ImageNet ResNet-50 run on "
            << topo.describe() << "\n\n";

  TablePrinter table({"Algorithm", "Iter (s)", "Exposed comm (s)",
                      "Throughput", "Scaling eff.", "90-epoch wall-clock"});
  for (const Algorithm algorithm :
       {Algorithm::kDenseTree, Algorithm::kDense2dTorus,
        Algorithm::kTopkNaiveAg, Algorithm::kMstopkHitopk}) {
    TrainerOptions options;
    options.model = "resnet50";
    options.resolution = 224;
    options.local_batch = 256;
    options.algorithm = algorithm;
    TrainingSimulator sim(topo, options);
    const auto it = sim.simulate_iteration();
    const double iters = static_cast<double>(dataset.num_samples) /
                         (256.0 * topo.world_size());
    const double wall = iters * it.total * epochs;
    table.add_row({algorithm_name(algorithm), TablePrinter::fmt(it.total, 3),
                   TablePrinter::fmt(it.communication + it.compression, 3),
                   TablePrinter::fmt(it.throughput, 0),
                   TablePrinter::fmt_percent(sim.scaling_efficiency()),
                   TablePrinter::fmt(wall / 60.0, 1) + " min"});
  }
  table.print(std::cout);

  std::cout << "\nWhat if the cluster were smaller?  MSTopK-SGD iteration "
               "time by node count:\n";
  for (const int nodes : {2, 4, 8, 16}) {
    TrainerOptions options;
    options.algorithm = Algorithm::kMstopkHitopk;
    TrainingSimulator sim(hitopk::simnet::Topology::tencent_cloud(nodes, 8),
                          options);
    const auto it = sim.simulate_iteration();
    std::cout << "  " << nodes << " nodes (" << nodes * 8
              << " GPUs): " << TablePrinter::fmt(it.total, 3) << " s/iter, "
              << TablePrinter::fmt(it.throughput, 0) << " samples/s\n";
  }
  return 0;
}

int main() { return hitopk::run_main(run); }
