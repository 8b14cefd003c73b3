// hitopk-sim: command-line front-end to the training-system simulator.
//
//   example_simulate_cli --model resnet50 --resolution 224 --batch 256
//       --nodes 16 --gpus 8 --algorithm mstopk --density 0.001
//       [--cloud tencent|aliyun|infiniband] [--straggler-cv 0.1]
//       [--no-datacache] [--no-pto] [--no-overlap] [--trace trace.json]
//
// Prints the per-phase iteration breakdown, throughput, and scaling
// efficiency; optionally writes a Chrome-tracing JSON of one iteration's
// aggregation traffic.
#include <fstream>
#include <iostream>

#include "collectives/hitopkcomm.h"
#include "collectives/torus2d.h"
#include "core/cli.h"
#include "core/flags.h"
#include "core/table.h"
#include "models/model_zoo.h"
#include "train/timeline.h"

namespace {

using namespace hitopk;

simnet::Topology topology_from_flags(const Flags& flags) {
  const int nodes = flags.get_int("nodes", 16);
  const int gpus = flags.get_int("gpus", 8);
  const std::string cloud = flags.get("cloud", "tencent");
  if (cloud == "aliyun") return simnet::Topology::aliyun(nodes, gpus);
  if (cloud == "infiniband") {
    return simnet::Topology::infiniband_100g(nodes, gpus);
  }
  HITOPK_VALIDATE(cloud == "tencent" || cloud == "aws")
      << "unknown --cloud:" << cloud;
  return simnet::Topology::tencent_cloud(nodes, gpus);
}

train::Algorithm algorithm_from_flags(const Flags& flags) {
  const std::string name = flags.get("algorithm", "mstopk");
  if (name == "dense") return train::Algorithm::kDenseTree;
  if (name == "2dtar") return train::Algorithm::kDense2dTorus;
  if (name == "topk") return train::Algorithm::kTopkNaiveAg;
  HITOPK_VALIDATE(name == "mstopk") << "unknown --algorithm:" << name;
  return train::Algorithm::kMstopkHitopk;
}

}  // namespace

int run(int argc, char** argv) {
  const Flags flags(argc, argv);
  if (flags.has("help")) {
    std::cout << "flags: --model --resolution --batch --nodes --gpus "
                 "--algorithm {dense,2dtar,topk,mstopk} --density --cloud "
                 "{tencent,aws,aliyun,infiniband} --straggler-cv "
                 "--no-datacache --no-pto --no-overlap --trace FILE\n";
    return 0;
  }

  const simnet::Topology topo = topology_from_flags(flags);
  train::TrainerOptions options;
  options.model = flags.get("model", "resnet50");
  options.resolution = flags.get_int("resolution", 224);
  options.local_batch = flags.get_int("batch", 256);
  options.algorithm = algorithm_from_flags(flags);
  options.density = flags.get_double("density", 0.001);
  options.straggler_cv = flags.get_double("straggler-cv", 0.0);
  options.use_datacache = !flags.get_bool("no-datacache");
  options.use_pto = !flags.get_bool("no-pto");
  options.overlap_comm = !flags.get_bool("no-overlap");

  train::TrainingSimulator sim(topo, options);
  const auto it = sim.simulate_iteration();

  std::cout << "cluster   : " << topo.describe() << "\n";
  std::cout << "workload  : " << options.model << " @" << options.resolution
            << "^2, batch " << options.local_batch << "/GPU, "
            << train::algorithm_name(options.algorithm) << "\n\n";
  TablePrinter table({"Phase", "Exposed seconds"});
  table.add_row({"I/O", TablePrinter::fmt(it.io, 4)});
  table.add_row({"FF&BP", TablePrinter::fmt(it.ffbp, 4)});
  table.add_row({"Compression", TablePrinter::fmt(it.compression, 4)});
  table.add_row({"Communication", TablePrinter::fmt(it.communication, 4)});
  table.add_row({"LARS + update", TablePrinter::fmt(it.lars, 4)});
  table.add_row({"Framework", TablePrinter::fmt(it.overhead, 4)});
  table.add_row({"Total", TablePrinter::fmt(it.total, 4)});
  table.print(std::cout);
  std::cout << "\nthroughput: " << TablePrinter::fmt(it.throughput, 0)
            << " samples/s   scaling efficiency: "
            << TablePrinter::fmt_percent(sim.scaling_efficiency()) << "\n";

  if (flags.has("trace")) {
    // Trace one aggregation of the model's full gradient.
    simnet::Cluster cluster(topo);
    cluster.enable_tracing();
    const size_t params =
        models::model_by_name(options.model).total_params();
    if (options.algorithm == train::Algorithm::kMstopkHitopk) {
      coll::HiTopKOptions hi;
      hi.density = options.density;
      hi.value_wire = coll::WireDtype::kFp16;
      coll::hitopk_comm(cluster, {}, params, hi, 0.0);
    } else {
      coll::torus2d_allreduce(cluster, {}, params, coll::WireDtype::kFp16, 0.0);
    }
    std::ofstream out(flags.get("trace"));
    cluster.write_chrome_trace(out, train::algorithm_name(options.algorithm));
    std::cout << "wrote " << cluster.trace().size() << " transfer events to "
              << flags.get("trace") << " (open in chrome://tracing)\n";
  }
  return 0;
}

int main(int argc, char** argv) {
  return hitopk::run_main([&] { return run(argc, argv); });
}
