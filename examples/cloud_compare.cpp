// Scenario: choosing a cloud for distributed training (Table 1).  Compares
// iteration time and scaling efficiency of the training algorithms across
// the instance presets and over a custom user-defined fabric.
#include <iostream>

#include "core/cli.h"
#include "core/table.h"
#include "train/timeline.h"

int run() {
  using hitopk::TablePrinter;
  using hitopk::simnet::LinkParams;
  using hitopk::simnet::Topology;
  using namespace hitopk::train;

  std::cout << "=== Cloud comparison: ResNet-50 @224^2, batch 256/GPU, "
               "16 nodes x 8 GPUs ===\n\n";

  TablePrinter table({"Cloud", "Algorithm", "Iter (s)", "Throughput",
                      "Scaling eff."});
  for (const auto& [name, topo] :
       {std::pair{"Tencent 25GbE", Topology::tencent_cloud(16, 8)},
        std::pair{"AWS p3 25GbE", Topology::aws_p3(16, 8)},
        std::pair{"Aliyun 32GbE", Topology::aliyun(16, 8)},
        std::pair{"100Gb InfiniBand", Topology::infiniband_100g(16, 8)}}) {
    for (const Algorithm algorithm :
         {Algorithm::kDenseTree, Algorithm::kMstopkHitopk}) {
      TrainerOptions options;
      options.algorithm = algorithm;
      TrainingSimulator sim(topo, options);
      const auto it = sim.simulate_iteration();
      table.add_row({name, algorithm_name(algorithm),
                     TablePrinter::fmt(it.total, 3),
                     TablePrinter::fmt(it.throughput, 0),
                     TablePrinter::fmt_percent(sim.scaling_efficiency())});
    }
  }
  table.print(std::cout);
  std::cout << "\nTakeaway: MSTopK-SGD removes most of the interconnect "
               "sensitivity — sparse\naggregation makes 25GbE behave almost "
               "like InfiniBand for this workload.\n\n";

  // Custom fabric: a hypothetical 50 GbE cloud with slower NVLink.
  const Topology custom(16, 8, LinkParams{8e-6, 1.0 / 25e9},
                        LinkParams{30e-6, 1.0 / 1.2e9},
                        /*nic_beta=*/1.0 / (50.0 / 8.0 * 1e9 * 0.55));
  TrainerOptions options;
  options.algorithm = Algorithm::kMstopkHitopk;
  TrainingSimulator sim(custom, options);
  const auto it = sim.simulate_iteration();
  std::cout << "Custom fabric (" << custom.describe() << "):\n  MSTopK-SGD "
            << TablePrinter::fmt(it.throughput, 0) << " samples/s\n";
  return 0;
}

int main() { return hitopk::run_main(run); }
