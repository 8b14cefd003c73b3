// Table 3: system throughput (samples/s) and scaling efficiency of
// Dense-SGD, 2DTAR-SGD, and MSTopK-SGD on the 128-GPU Tencent Cloud
// cluster, for ResNet-50 (224^2 and 96^2), VGG-19, and Transformer.
//
// Paper values for comparison:
//   ResNet-50 (224)  :  64000 / 134656 / 133376    43.5 / 91.4 / 90.6 %
//   ResNet-50 (96)   : 113280 / 313600 / 396800    20.1 / 56.7 / 70.5 %
//   VGG-19           :  17920 /  47616 /  57600    25   / 66.4 / 80.4 %
//   Transformer      :    678 /   2534 /   3502    16.5 / 61.6 / 87.8 %
#include <iostream>

#include "core/cli.h"
#include "core/table.h"
#include "train/timeline.h"

namespace {

using hitopk::TablePrinter;
using hitopk::simnet::Topology;
using hitopk::train::Algorithm;
using hitopk::train::TrainerOptions;
using hitopk::train::TrainingSimulator;

struct Workload {
  const char* label;
  const char* model;
  int resolution;
  int local_batch;
  double paper_throughput[3];  // Dense, 2DTAR, MSTopK
};

constexpr Workload kWorkloads[] = {
    {"ResNet-50 (224*224)", "resnet50", 224, 256, {64000, 134656, 133376}},
    {"ResNet-50 (96*96)", "resnet50", 96, 256, {113280, 313600, 396800}},
    {"VGG-19", "vgg19", 224, 128, {17920, 47616, 57600}},
    {"Transformer", "transformer", 0, 16, {678, 2534, 3502}},
};

constexpr Algorithm kAlgorithms[] = {
    Algorithm::kDenseTree, Algorithm::kDense2dTorus, Algorithm::kMstopkHitopk};

}  // namespace

int run() {
  std::cout << "=== Table 3: 128-GPU system throughput and scaling "
               "efficiency ===\n";
  const Topology topo = Topology::tencent_cloud(16, 8);
  std::cout << "cluster: " << topo.describe() << "\n\n";

  TablePrinter table({"Model", "Algorithm", "Throughput (samples/s)",
                      "Paper", "Scaling Eff.", "Paper SE"});
  const double paper_se[4][3] = {{43.5, 91.4, 90.6},
                                 {20.1, 56.7, 70.5},
                                 {25.0, 66.4, 80.4},
                                 {16.5, 61.6, 87.8}};
  int row = 0;
  for (const auto& workload : kWorkloads) {
    int column = 0;
    for (Algorithm algorithm : kAlgorithms) {
      TrainerOptions options;
      options.model = workload.model;
      options.resolution = workload.resolution > 0 ? workload.resolution : 224;
      options.local_batch = workload.local_batch;
      options.algorithm = algorithm;
      TrainingSimulator sim(topo, options);
      const auto iteration = sim.simulate_iteration();
      const double se = sim.scaling_efficiency();
      table.add_row({workload.label, hitopk::train::algorithm_name(algorithm),
                     TablePrinter::fmt(iteration.throughput, 0),
                     TablePrinter::fmt(workload.paper_throughput[column], 0),
                     TablePrinter::fmt_percent(se),
                     TablePrinter::fmt(paper_se[row][column], 1) + "%"});
      ++column;
    }
    ++row;
  }
  table.print(std::cout);
  std::cout << "\nShape check: MSTopK-SGD should lead except ResNet-50@224,\n"
               "where long compute overlaps communication and 2DTAR-SGD ties "
               "(§5.5.2).\n";
  return 0;
}

int main() { return hitopk::run_main(run); }
