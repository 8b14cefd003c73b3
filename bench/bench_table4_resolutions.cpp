// Table 4: system throughput per input resolution along the DAWNBench
// schedule (128 GPUs), with the per-phase algorithm choice of §5.6.
//
//   Paper:  epochs  input    BS   single-GPU   128-GPU (SE)
//           13      96x96    256  4400         366,208 (65%)
//           11      128x128  256  3010         269,696 (70%)
//           3       224x224  256  1240         131,712 (83%)
//           1       288x288  128  710           72,960 (80%)
#include <iostream>

#include "core/cli.h"
#include "core/table.h"
#include "train/dawnbench.h"

int run() {
  using hitopk::TablePrinter;
  using namespace hitopk::train;

  std::cout << "=== Table 4: throughput per DAWNBench phase (16x8 cluster) "
               "===\n\n";
  const auto topo = hitopk::simnet::Topology::tencent_cloud(16, 8);
  const auto report =
      simulate_dawnbench(topo, DawnbenchSchedule::paper_recipe());

  const double paper_single[] = {4400, 3010, 1240, 710};
  const double paper_cluster[] = {366208, 269696, 131712, 72960};
  const double paper_se[] = {65, 70, 83, 80};

  TablePrinter table({"# Epochs", "Input", "BS", "Algorithm", "Single-GPU",
                      "Paper", "128-GPU", "Paper.", "SE", "Paper SE"});
  for (size_t i = 0; i < report.phases.size(); ++i) {
    const auto& p = report.phases[i];
    table.add_row(
        {std::to_string(p.phase.epochs),
         std::to_string(p.phase.resolution) + "x" +
             std::to_string(p.phase.resolution),
         std::to_string(p.phase.local_batch),
         algorithm_name(p.phase.algorithm),
         TablePrinter::fmt(p.single_gpu_throughput, 0),
         TablePrinter::fmt(paper_single[i], 0),
         TablePrinter::fmt(p.cluster_throughput, 0),
         TablePrinter::fmt(paper_cluster[i], 0),
         TablePrinter::fmt_percent(p.scaling_efficiency),
         TablePrinter::fmt(paper_se[i], 0) + "%"});
  }
  table.print(std::cout);
  std::cout << "\nNote: our SE divides by our own simulated single-GPU "
               "iteration (compute+LARS+update),\nwhile the paper's "
               "single-GPU column is a pure-compute anchor.\n";
  return 0;
}

int main() { return hitopk::run_main(run); }
