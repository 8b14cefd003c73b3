// Scenario: the DAWNBench record attempt (§5.6) — run the paper's 28-epoch
// multi-resolution recipe and explore variations: switching the small-input
// phase between MSTopK-SGD and dense, and stretching/shrinking the phases.
#include <iostream>

#include "core/cli.h"
#include "core/table.h"
#include "train/dawnbench.h"

int run() {
  using hitopk::TablePrinter;
  using namespace hitopk::train;

  const auto topo = hitopk::simnet::Topology::tencent_cloud(16, 8);

  std::cout << "=== DAWNBench record attempt: 28 epochs to 93% top-5 ===\n\n";
  const auto paper = simulate_dawnbench(topo, DawnbenchSchedule::paper_recipe());
  TablePrinter table({"Phase", "Epochs", "Algorithm", "128-GPU throughput",
                      "Phase time"});
  for (const auto& p : paper.phases) {
    table.add_row({std::to_string(p.phase.resolution) + "^2",
                   std::to_string(p.phase.epochs),
                   algorithm_name(p.phase.algorithm),
                   TablePrinter::fmt(p.cluster_throughput, 0),
                   TablePrinter::fmt(p.seconds, 1) + " s"});
  }
  table.print(std::cout);
  std::cout << "Total: " << TablePrinter::fmt(paper.total_seconds, 1)
            << " s (paper record: 151 s; previous best: Alibaba 158 s on "
               "32GbE)\n\n";

  std::cout << "--- recipe variations ---\n";
  struct Variant {
    const char* label;
    DawnbenchSchedule schedule;
  };
  std::vector<Variant> variants;
  {
    auto s = DawnbenchSchedule::paper_recipe();
    s.phases[0].algorithm = Algorithm::kDense2dTorus;
    variants.push_back({"dense everywhere (no MSTopK phase)", s});
  }
  {
    auto s = DawnbenchSchedule::paper_recipe();
    s.phases[0].algorithm = Algorithm::kDenseTree;
    variants.push_back({"stock Horovod at 96^2", s});
  }
  {
    auto s = DawnbenchSchedule::paper_recipe();
    s.phases[1].algorithm = Algorithm::kMstopkHitopk;
    variants.push_back({"MSTopK also at 128^2 (paper avoided: accuracy risk)",
                        s});
  }
  {
    auto s = DawnbenchSchedule::paper_recipe();
    s.phases[0].epochs = 18;
    s.phases[1].epochs = 6;
    variants.push_back({"longer 96^2 warmup (18+6 epochs)", s});
  }
  for (const auto& v : variants) {
    const auto report = simulate_dawnbench(topo, v.schedule);
    std::cout << "  " << v.label << ": "
              << TablePrinter::fmt(report.total_seconds, 1) << " s ("
              << TablePrinter::fmt(report.total_seconds - paper.total_seconds,
                                   1)
              << " s vs paper recipe)\n";
  }
  return 0;
}

int main() { return hitopk::run_main(run); }
