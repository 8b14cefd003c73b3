// Ablation: local SGD (periodic model averaging) vs gradient compression —
// two orthogonal ways to cut communication.  Sweeps the synchronization
// period H and compares against MSTopK-SGD at matched communication budget.
#include <iostream>

#include "core/cli.h"
#include "core/table.h"
#include "train/convergence.h"
#include "train/synthetic.h"

int run() {
  using hitopk::TablePrinter;
  using namespace hitopk::train;

  std::cout << "=== Ablation: local SGD period vs top-k compression "
               "(vision proxy, 16 workers, 15 epochs) ===\n\n";

  TablePrinter table({"Scheme", "Final top-5", "Comm (sim s)",
                      "Syncs per epoch"});
  const int epochs = 15;
  for (const int period : {1, 2, 4, 8, 16}) {
    auto task = make_vision_task(808);
    ConvergenceOptions options;
    options.algorithm = ConvergenceAlgorithm::kLocalSgd;
    options.local_sgd_period = period;
    options.epochs = epochs;
    const auto result = run_convergence(*task, options);
    table.add_row({"LocalSGD H=" + std::to_string(period),
                   TablePrinter::fmt_percent(result.final_quality),
                   TablePrinter::fmt(result.simulated_comm_seconds, 3),
                   TablePrinter::fmt(64.0 / period, 0)});
  }
  for (const auto& [label, algorithm, density] :
       {std::tuple{"Dense-SGD", ConvergenceAlgorithm::kDense, 0.01},
        std::tuple{"MSTopK-SGD rho=0.01", ConvergenceAlgorithm::kMstopk,
                   0.01}}) {
    auto task = make_vision_task(808);
    ConvergenceOptions options;
    options.algorithm = algorithm;
    options.density = density;
    options.epochs = epochs;
    const auto result = run_convergence(*task, options);
    table.add_row({label, TablePrinter::fmt_percent(result.final_quality),
                   TablePrinter::fmt(result.simulated_comm_seconds, 3), "64"});
  }
  table.print(std::cout);
  std::cout << "\nExpected: quality degrades as H grows (stale local "
               "models), while MSTopK-SGD cuts\ncommunication further at "
               "the same per-iteration synchronization semantics.\n";
  return 0;
}

int main() { return hitopk::run_main(run); }
