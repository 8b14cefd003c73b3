// Fig. 8: HiTopKComm per-step time breakdown (ReduceScatter / MSTopK /
// inter-node AllGather / intra-node AllGather) at densities
// {0.001, 0.002, 0.01, 0.02}, for (a) ResNet-50 (25 M parameters) and
// (b) Transformer (110 M parameters), FP32 values.
//
// Expected shape: the inter-node All-Gather dominates; MSTopK is
// negligible; both intra-node steps are small (NVLink).
#include <iostream>

#include "collectives/hitopkcomm.h"
#include "core/cli.h"
#include "core/table.h"
#include "simgpu/gpu_model.h"

int run() {
  using hitopk::TablePrinter;
  using namespace hitopk::coll;
  using hitopk::simnet::Cluster;
  using hitopk::simnet::Topology;

  std::cout << "=== Fig. 8: HiTopKComm step breakdown (16x8 cluster, FP32 "
               "values) ===\n\n";
  const Topology topo = Topology::tencent_cloud(16, 8);
  const hitopk::simgpu::GpuCostModel gpu;

  TablePrinter table({"Model", "Density", "ReduceScatter", "MSTopK",
                      "Inter-AllGather", "Intra-AllGather", "Total (s)"});
  struct Workload {
    const char* label;
    size_t params;
  };
  for (const Workload w : {Workload{"(a) ResNet-50", 25'000'000},
                           Workload{"(b) Transformer", 110'000'000}}) {
    for (const double density : {0.001, 0.002, 0.01, 0.02}) {
      Cluster cluster(topo);
      HiTopKOptions options;
      options.density = density;
      options.value_wire = WireDtype::kFp32;
      options.gpu = &gpu;
      const auto b = hitopk_comm(cluster, {}, w.params, options, 0.0);
      table.add_row({w.label, TablePrinter::fmt(density, 3),
                     TablePrinter::fmt(b.reduce_scatter, 4),
                     TablePrinter::fmt(b.mstopk, 4),
                     TablePrinter::fmt(b.inter_allgather, 4),
                     TablePrinter::fmt(b.intra_allgather, 4),
                     TablePrinter::fmt(b.total, 4)});
    }
  }
  table.print(std::cout);
  std::cout << "\nExpected: Inter-AllGather dominates and grows with "
               "density; MSTopK stays negligible.\n";

  // Quantized wire panel: the same breakdown at density 0.01 with the
  // selected values crossing fp16 / int8 wires.  The AllGather legs carry
  // (index, value) pairs, so shrinking the value payload compresses only
  // part of each pair — the step times shrink, but less than 2x / 4x.
  std::cout << "\n=== Quantized value wire (density 0.01) ===\n\n";
  TablePrinter qtable({"Model", "Wire", "ReduceScatter", "MSTopK",
                       "Inter-AllGather", "Intra-AllGather", "Total (s)"});
  for (const Workload w : {Workload{"(a) ResNet-50", 25'000'000},
                           Workload{"(b) Transformer", 110'000'000}}) {
    for (const WireDtype wire :
         {WireDtype::kFp32, WireDtype::kFp16, WireDtype::kInt8}) {
      Cluster cluster(topo);
      HiTopKOptions options;
      options.density = 0.01;
      options.value_wire = wire;
      options.gpu = &gpu;
      const auto b = hitopk_comm(cluster, {}, w.params, options, 0.0);
      qtable.add_row({w.label, wire_dtype_name(wire),
                      TablePrinter::fmt(b.reduce_scatter, 4),
                      TablePrinter::fmt(b.mstopk, 4),
                      TablePrinter::fmt(b.inter_allgather, 4),
                      TablePrinter::fmt(b.intra_allgather, 4),
                      TablePrinter::fmt(b.total, 4)});
    }
  }
  qtable.print(std::cout);
  std::cout << "\nValues are half the pair on the wire, so fp16 trims the "
               "AllGather legs by ~25%.\n";
  return 0;
}

int main() { return hitopk::run_main(run); }
