// Ablation: three ways to aggregate sparse gradients — NaiveAG (flat
// All-Gather, the paper's TopK-SGD baseline), gTop-k (recursive-doubling
// global top-k, Shi et al. 2019c), and HiTopKComm (the paper's hierarchy) —
// compared on aggregation time and on real convergence at equal density.
#include <iostream>

#include "collectives/gtopk.h"
#include "collectives/hitopkcomm.h"
#include "collectives/naive_allgather.h"
#include "core/cli.h"
#include "core/table.h"
#include "train/convergence.h"
#include "train/synthetic.h"

int run() {
  using hitopk::TablePrinter;
  using namespace hitopk;

  std::cout << "=== Ablation: sparse aggregation schemes (16x8 cluster, "
               "FP16, rho=0.01) ===\n\n";
  const simnet::Topology topo = simnet::Topology::tencent_cloud(16, 8);

  TablePrinter comm_table({"Elements", "NaiveAG", "gTopK", "HiTopKComm"});
  for (const size_t elems : {1u << 20, 8u << 20, 25u << 20, 100u << 20}) {
    const size_t k = static_cast<size_t>(0.01 * static_cast<double>(elems));
    simnet::Cluster c_naive(topo);
    const double naive =
        coll::naive_sparse_allgather_time(c_naive, k, 2, 0.0, 0.0).total;
    simnet::Cluster c_gtopk(topo);
    coll::GtopkOptions gtopk_options;
    gtopk_options.density = 0.01;
    gtopk_options.value_wire_bytes = 2;
    const double gtopk =
        coll::gtopk_comm(c_gtopk, {}, elems, gtopk_options, 0.0).total;
    simnet::Cluster c_hitopk(topo);
    coll::HiTopKOptions hitopk_options;
    hitopk_options.density = 0.01;
    hitopk_options.value_wire = coll::WireDtype::kFp16;
    const double hitopk =
        coll::hitopk_comm(c_hitopk, {}, elems, hitopk_options, 0.0).total;
    comm_table.add_row({std::to_string(elems >> 20) + "M",
                        TablePrinter::fmt(naive, 4),
                        TablePrinter::fmt(gtopk, 4),
                        TablePrinter::fmt(hitopk, 4)});
  }
  comm_table.print(std::cout);

  std::cout << "\n--- convergence at rho=0.01 (vision proxy, 16 workers, 15 "
               "epochs) ---\n";
  TablePrinter quality_table({"Scheme", "Final top-5", "Comm (sim s)",
                              "Delivered coordinates"});
  for (const auto algorithm :
       {train::ConvergenceAlgorithm::kTopk, train::ConvergenceAlgorithm::kGtopk,
        train::ConvergenceAlgorithm::kMstopk}) {
    auto task = train::make_vision_task(4242);
    train::ConvergenceOptions options;
    options.algorithm = algorithm;
    options.epochs = 15;
    options.density = 0.01;
    const auto result = train::run_convergence(*task, options);
    const char* delivered =
        algorithm == train::ConvergenceAlgorithm::kTopk
            ? "union of P local top-k"
            : (algorithm == train::ConvergenceAlgorithm::kGtopk
                   ? "one global top-k"
                   : "m node top-k per shard");
    quality_table.add_row(
        {train::convergence_algorithm_name(algorithm),
         TablePrinter::fmt_percent(result.final_quality),
         TablePrinter::fmt(result.simulated_comm_seconds, 3), delivered});
  }
  quality_table.print(std::cout);
  std::cout << "\nExpected: gTopK moves the least data but delivers the "
               "fewest coordinates;\nHiTopKComm is fastest at equal density "
               "thanks to the NVLink hierarchy.\n";
  return 0;
}

int main() { return hitopk::run_main(run); }
