// Fig. 1: per-iteration time breakdown of the *existing* training schemes
// (stock TensorFlow + Horovod, no DataCache / PTO) on the 128-GPU cluster:
// Dense-SGD and TopK-SGD at input resolutions 224^2 and 96^2.
//
// Paper reference points (224^2): FF&BP 0.204 s; exact top-k compression
// 0.239 s (exceeding FF&BP); I/O and communication occupy a large portion
// of the iteration.
#include <iostream>

#include "core/cli.h"
#include "core/table.h"
#include "train/timeline.h"

int run() {
  using hitopk::TablePrinter;
  using namespace hitopk::train;

  std::cout << "=== Fig. 1: iteration breakdown of existing schemes "
               "(baseline system: no DataCache, no PTO) ===\n\n";
  const auto topo = hitopk::simnet::Topology::tencent_cloud(16, 8);

  TablePrinter table({"Scheme", "Resolution", "I/O", "FF&BP", "Compression",
                      "Communication", "LARS", "Overhead", "Total (s)"});
  for (const int resolution : {224, 96}) {
    for (const Algorithm algorithm :
         {Algorithm::kDenseTree, Algorithm::kTopkNaiveAg}) {
      TrainerOptions options;
      options.model = "resnet50";
      options.resolution = resolution;
      options.local_batch = 256;
      options.algorithm = algorithm;
      // The motivation experiment predates the paper's optimizations.
      options.use_datacache = false;
      options.use_pto = false;
      TrainingSimulator sim(topo, options);
      const auto it = sim.simulate_iteration();
      table.add_row({algorithm_name(algorithm),
                     std::to_string(resolution) + "*" + std::to_string(resolution),
                     TablePrinter::fmt(it.io, 3), TablePrinter::fmt(it.ffbp, 3),
                     TablePrinter::fmt(it.compression, 3),
                     TablePrinter::fmt(it.communication, 3),
                     TablePrinter::fmt(it.lars, 3),
                     TablePrinter::fmt(it.overhead, 3),
                     TablePrinter::fmt(it.total, 3)});
    }
  }
  table.print(std::cout);
  std::cout << "\nPaper anchors (224*224): FF&BP ~0.204 s; TopK-SGD "
               "compression ~0.239 s\n(the exact top-k costs more than the "
               "forward+backward pass itself).\n";
  return 0;
}

int main() { return hitopk::run_main(run); }
