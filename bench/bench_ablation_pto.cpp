// Ablation: PTO (§4.2 / §5.4) — serial vs parallel LARS across world sizes
// and models, plus the functional equality check on real random tensors
// (the paper's microbench: "randomly generated w and g").
//
// Paper anchors at 128 GPUs: ResNet-50 LARS 11 ms -> 7 ms; Transformer
// 30 ms -> 14 ms ("about 2x speedups").
#include <iostream>

#include "core/cli.h"
#include "core/rng.h"
#include "core/table.h"
#include "models/calibration.h"
#include "models/model_zoo.h"
#include "pto/lars.h"
#include "pto/pto.h"
#include "simnet/cluster.h"

int run() {
  using hitopk::TablePrinter;
  using namespace hitopk;

  std::cout << "=== Ablation: PTO for LARS ===\n\n";

  TablePrinter table({"Model", "GPUs", "Serial (ms)", "PTO (ms)", "Speedup"});
  for (const auto& [label, layers, serial, framework] :
       {std::tuple{"ResNet-50", size_t{161},
                   models::Calibration::lars_resnet50_seconds,
                   models::Calibration::pto_framework_overhead_resnet50},
        std::tuple{"Transformer", models::transformer_wmt().num_tensors(),
                   models::Calibration::lars_transformer_seconds,
                   models::Calibration::pto_framework_overhead_transformer}}) {
    for (const int nodes : {2, 4, 8, 16}) {
      simnet::Cluster cluster(simnet::Topology::tencent_cloud(nodes, 8));
      const auto timing = pto::pto_timing(cluster, layers, 4, serial, framework);
      table.add_row({label, std::to_string(nodes * 8),
                     TablePrinter::fmt(timing.serial_seconds * 1e3, 1),
                     TablePrinter::fmt(timing.pto_seconds * 1e3, 1),
                     TablePrinter::fmt(timing.speedup(), 2) + "x"});
    }
  }
  table.print(std::cout);
  std::cout << "\nPaper (128 GPUs): ResNet-50 11 -> 7 ms; Transformer "
               "30 -> 14 ms (~2x).\n";

  // Functional check on real tensors: partitioned LARS rates == serial.
  const models::ModelSpec spec = models::resnet50();
  Rng rng(4);
  std::vector<Tensor> weights, grads;
  for (const auto& layer : spec.layers) {
    Tensor w(layer.size()), g(layer.size());
    w.fill_normal(rng, 0.0f, 0.1f);
    g.fill_normal(rng, 0.0f, 0.01f);
    weights.push_back(std::move(w));
    grads.push_back(std::move(g));
  }
  pto::LarsConfig config;
  auto rate_of = [&](size_t l) {
    return pto::lars_rate(config, weights[l].l2_norm(), grads[l].l2_norm());
  };
  const pto::PtoPlan plan{128, spec.num_tensors()};
  const auto partitioned = pto::pto_compute(plan, rate_of);
  size_t mismatches = 0;
  for (size_t l = 0; l < spec.num_tensors(); ++l) {
    if (partitioned[l] != rate_of(l)) ++mismatches;
  }
  std::cout << "\nFunctional check: 161 layer-wise LARS rates computed via "
               "the 128-way PTO partition\nmatch the serial computation with "
            << mismatches << " mismatches (expected 0).\n";
  return 0;
}

int main() { return hitopk::run_main(run); }
