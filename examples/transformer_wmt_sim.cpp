// Scenario: WMT-style Transformer training on the cloud cluster — the
// paper's NLP workload.  Shows (a) the throughput story for the 110M-param
// model and (b) a real (small-scale) convergence run of the sequence task
// through the sparse collectives.
#include <iostream>

#include "core/cli.h"
#include "core/table.h"
#include "models/model_zoo.h"
#include "train/convergence.h"
#include "train/synthetic.h"
#include "train/timeline.h"

int run() {
  using hitopk::TablePrinter;
  using namespace hitopk::train;

  const auto model = hitopk::models::transformer_wmt();
  std::cout << "Transformer: " << model.total_params() / 1'000'000
            << "M parameters in " << model.num_tensors() << " tensors\n\n";

  const auto topo = hitopk::simnet::Topology::tencent_cloud(16, 8);
  TablePrinter table({"Algorithm", "Iter (s)", "Throughput (sent/s)",
                      "Scaling eff."});
  for (const Algorithm algorithm :
       {Algorithm::kDenseTree, Algorithm::kDense2dTorus,
        Algorithm::kMstopkHitopk}) {
    TrainerOptions options;
    options.model = "transformer";
    options.local_batch = 16;
    options.algorithm = algorithm;
    TrainingSimulator sim(topo, options);
    const auto it = sim.simulate_iteration();
    table.add_row({algorithm_name(algorithm), TablePrinter::fmt(it.total, 3),
                   TablePrinter::fmt(it.throughput, 0),
                   TablePrinter::fmt_percent(sim.scaling_efficiency())});
  }
  table.print(std::cout);

  std::cout << "\nSmall-scale convergence check (sequence-classification "
               "proxy, 16 workers):\n";
  for (const auto algorithm :
       {ConvergenceAlgorithm::kDense, ConvergenceAlgorithm::kMstopk}) {
    auto task = make_sequence_task(2718);
    ConvergenceOptions options;
    options.algorithm = algorithm;
    options.epochs = 12;
    options.density = 0.02;
    const auto result = run_convergence(*task, options);
    std::cout << "  " << convergence_algorithm_name(algorithm)
              << ": token accuracy "
              << TablePrinter::fmt_percent(result.final_quality)
              << " after 12 epochs (simulated comm "
              << TablePrinter::fmt(result.simulated_comm_seconds, 2) << " s)\n";
  }
  return 0;
}

int main() { return hitopk::run_main(run); }
