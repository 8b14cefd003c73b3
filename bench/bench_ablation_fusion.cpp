// Ablation: tensor-fusion bucket size vs exposed communication — the
// wait-free-backpropagation design knob (§2.2's "tensor fusion" citation).
// Small buckets start communicating earlier but pay per-collective
// latency; huge buckets serialize communication after backprop.
#include <iostream>

#include "core/cli.h"
#include "core/table.h"
#include "train/timeline.h"

int run() {
  using hitopk::TablePrinter;
  using namespace hitopk::train;

  std::cout << "=== Ablation: tensor fusion threshold (ResNet-50 @224^2, "
               "16x8 cluster) ===\n\n";
  const auto topo = hitopk::simnet::Topology::tencent_cloud(16, 8);

  TablePrinter table({"Fusion (MB)", "Algorithm", "Exposed comm (s)",
                      "Iter (s)", "Throughput"});
  for (const Algorithm algorithm :
       {Algorithm::kDenseTree, Algorithm::kDense2dTorus}) {
    for (const size_t fusion_mb : {2, 8, 32, 64, 256, 1024}) {
      TrainerOptions options;
      options.algorithm = algorithm;
      options.fusion_bytes = fusion_mb << 20;
      TrainingSimulator sim(topo, options);
      const auto it = sim.simulate_iteration();
      table.add_row({std::to_string(fusion_mb), algorithm_name(algorithm),
                     TablePrinter::fmt(it.communication, 4),
                     TablePrinter::fmt(it.total, 4),
                     TablePrinter::fmt(it.throughput, 0)});
    }
  }
  table.print(std::cout);

  std::cout << "\nNo-overlap reference (overlap_comm = false):\n";
  for (const Algorithm algorithm :
       {Algorithm::kDenseTree, Algorithm::kDense2dTorus}) {
    TrainerOptions options;
    options.algorithm = algorithm;
    options.overlap_comm = false;
    TrainingSimulator sim(topo, options);
    const auto it = sim.simulate_iteration();
    std::cout << "  " << algorithm_name(algorithm) << ": exposed comm "
              << TablePrinter::fmt(it.communication, 4) << " s, iter "
              << TablePrinter::fmt(it.total, 4) << " s\n";
  }
  std::cout << "\nExpected: a wide flat optimum around tens of MB — exactly "
               "where Horovod's default sits.\n";
  return 0;
}

int main() { return hitopk::run_main(run); }
