// Fig. 10: convergence (held-out top-5 accuracy vs epoch) of Dense-SGD,
// TopK-SGD, and MSTopK-SGD on the two CNN workloads.
//
// Substitution ("Substitutions" in docs/REPRODUCING.md): real distributed
// SGD on synthetic Gaussian-mixture classification stands in for ImageNet
// CNNs — per-worker gradients are real, compression and error feedback are
// real, and aggregation goes through the functional collectives (ring AR /
// NaiveAG / HiTopKComm).
// Expected shape: the three curves are nearly identical, with the sparse
// variants a hair below dense (Table 2).
//
// The --panel=faults variant is the fault-convergence panel instead: the
// same compressed-SGD training run under a seeded Poisson preemption script,
// once per recovery policy — elastic-continue (shrink and regrow the world),
// abort-restart (roll back to the newest valid checkpoint), and LTFB
// tournament training (independent populations exchanging candidate models)
// — against the fault-free baseline.  Every number it emits is a
// deterministic function of the seeds (simulated clocks, seeded fault
// scripts), so the whole JSON sits under a "sim" subtree and CI pins it to
// the reference at 1e-6 relative (bench/refs/BENCH_fig10_faults.json).
//
// Flags (docs/REPRODUCING.md):
//   --panel=convergence|faults   which panel to run (default convergence)
//   --epochs=N          epochs per run (default 30; faults panel 6)
//   --json=PATH         machine-readable results (default BENCH_fig10.json;
//                       empty string disables)
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>

#include "core/cli.h"
#include "core/flags.h"
#include "core/table.h"
#include "simnet/fault.h"
#include "train/convergence.h"
#include "train/ft_convergence.h"
#include "train/ltfb.h"
#include "train/synthetic.h"

namespace {

using hitopk::TablePrinter;
using namespace hitopk::train;

// --panel=faults: fault-free vs elastic-continue vs abort-restart vs LTFB
// under one seeded preemption script on a 2x2 world (LTFB: 2 populations
// of 1x2, same four global workers).
int run_faults_panel(const hitopk::Flags& flags) {
  const int epochs = flags.get_int("epochs", 6);
  const uint64_t train_seed =
      static_cast<uint64_t>(flags.get_int("seed", 99));
  const uint64_t fault_seed =
      static_cast<uint64_t>(flags.get_int("fault_seed", 4242));
  const std::string json_path = flags.get("json", "BENCH_fig10_faults.json");

  ConvergenceOptions training;
  training.algorithm = ConvergenceAlgorithm::kTopk;
  training.nodes = 2;
  training.gpus_per_node = 2;
  training.local_batch = 32;
  training.epochs = epochs;
  training.density = 0.05;
  training.seed = train_seed;

  FtOptions base;
  base.training = training;
  base.checkpoint_interval = 25;
  base.checkpoint_write_gbps = 1.0;

  // The seeded Poisson script, at global worker granularity.  The horizon
  // and rate are sized so a handful of revocations land inside the run.
  const auto fault_topo = hitopk::simnet::Topology::tencent_cloud(2, 2);
  hitopk::simnet::FaultRates rates;
  rates.preempt_per_rank_hour = 120.0;
  rates.recover_seconds = 8.0;
  const double horizon = 60.0;
  const auto plan = hitopk::simnet::FaultPlan::generate(fault_seed, fault_topo,
                                                        horizon, rates);

  std::cout << "=== Fig. 10 (fault panel): recovery policy under seeded "
               "preemption ===\n    (TopK-SGD, 2x2 workers, "
            << epochs << " epochs, " << plan.preemptions().size()
            << " scripted revocations over " << horizon << "s)\n\n";

  struct Row {
    const char* policy = "";
    double final_quality = 0.0;
    double best_quality = 0.0;
    double wall = 0.0;
    double checkpoint_seconds = 0.0;
    int preemptions = 0;
    int regrows = 0;
    int restores = 0;
    int lost_iterations = 0;
    int exchanges = 0;
    int forfeits = 0;
  };
  std::vector<Row> rows;

  auto run_ft = [&](const char* name, RecoveryPolicy policy, bool faulted) {
    auto task = make_vision_task(1234);
    FtOptions options = base;
    options.policy = policy;
    if (faulted) options.faults = plan;
    const FtResult result = run_convergence_ft(*task, options);
    Row row;
    row.policy = name;
    row.final_quality = result.convergence.final_quality;
    row.best_quality = result.convergence.best_quality;
    row.wall = result.wall_seconds;
    row.checkpoint_seconds = result.checkpoint_seconds_total;
    row.preemptions = result.preemptions;
    row.regrows = result.regrows;
    row.restores = result.restores;
    row.lost_iterations = result.lost_iterations;
    rows.push_back(row);
  };
  run_ft("fault-free", RecoveryPolicy::kElasticContinue, false);
  run_ft("elastic-continue", RecoveryPolicy::kElasticContinue, true);
  run_ft("abort-restart", RecoveryPolicy::kAbortRestart, true);

  {
    LtfbOptions options;
    options.training = training;
    options.training.nodes = 1;  // two populations of one node each
    options.populations = 2;
    options.round_epochs = epochs % 2 == 0 ? 2 : 1;
    options.faults = plan;
    const LtfbResult result =
        run_ltfb([](int) { return make_vision_task(1234); }, options);
    Row row;
    row.policy = "ltfb";
    row.final_quality = result.best_quality;
    row.best_quality = result.best_quality;
    row.wall = result.wall_seconds;
    row.preemptions = result.preemptions;
    row.regrows = result.regrows;
    row.exchanges = result.exchanges;
    row.forfeits = result.forfeits;
    rows.push_back(row);
  }

  TablePrinter table({"Policy", "Final qual", "Best qual", "Sim wall (s)",
                      "Ckpt (s)", "Preempt", "Regrow", "Restart", "Lost it",
                      "Exchg"});
  for (const Row& r : rows) {
    table.add_row({r.policy, TablePrinter::fmt_percent(r.final_quality),
                   TablePrinter::fmt_percent(r.best_quality),
                   TablePrinter::fmt(r.wall, 2),
                   TablePrinter::fmt(r.checkpoint_seconds, 3),
                   std::to_string(r.preemptions), std::to_string(r.regrows),
                   std::to_string(r.restores),
                   std::to_string(r.lost_iterations),
                   std::to_string(r.exchanges)});
  }
  table.print(std::cout);
  std::cout << "\nExpected: elastic-continue matches the fault-free quality "
               "at a modest wall\npenalty (no rollback); abort-restart pays "
               "re-provision + lost iterations per\nrevocation; LTFB rides "
               "out partial population loss and still plays every\n"
               "exchange it can.\n";

  if (!json_path.empty()) {
    std::ofstream json(json_path);
    if (json) {
      json << std::setprecision(12);
      json << "{\n  \"bench\": \"fig10_faults\",\n  \"sim\": {\n"
           << "    \"epochs\": " << epochs << ",\n    \"train_seed\": "
           << train_seed << ",\n    \"fault_seed\": " << fault_seed
           << ",\n    \"world\": 4,\n    \"scripted_preemptions\": "
           << plan.preemptions().size() << ",\n    \"rows\": [\n";
      for (size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        json << "      {\"policy\": \"" << r.policy << "\", \"final_quality\": "
             << r.final_quality << ", \"best_quality\": " << r.best_quality
             << ", \"wall\": " << r.wall << ", \"checkpoint_cost\": "
             << r.checkpoint_seconds << ", \"preemptions\": " << r.preemptions
             << ", \"regrows\": " << r.regrows << ", \"restores\": "
             << r.restores << ", \"lost_iterations\": " << r.lost_iterations
             << ", \"exchanges\": " << r.exchanges << ", \"forfeits\": "
             << r.forfeits << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
      }
      json << "    ]\n  }\n}\n";
      std::cout << "wrote " << json_path << "\n";
    }
  }
  return 0;
}

}  // namespace

int run(int argc, char** argv) {
  using hitopk::TablePrinter;
  using namespace hitopk::train;

  const hitopk::Flags flags(argc, argv);
  if (flags.get("panel", "convergence") == "faults") {
    return run_faults_panel(flags);
  }
  const int epochs = flags.get_int("epochs", 30);
  const std::string json_path = flags.get("json", "BENCH_fig10.json");

  std::cout << "=== Fig. 10: convergence of Dense/TopK/MSTopK-SGD "
               "(16 simulated workers, rho=0.01) ===\n";
  std::cout << "(synthetic stand-in tasks; see Substitutions in "
               "docs/REPRODUCING.md)\n\n";

  const ConvergenceAlgorithm algorithms[] = {ConvergenceAlgorithm::kDense,
                                             ConvergenceAlgorithm::kTopk,
                                             ConvergenceAlgorithm::kMstopk};
  const char* algorithm_labels[] = {"Dense-SGD", "TopK-SGD", "MSTopK-SGD"};
  struct TaskSpec {
    const char* label;
    const char* proxy_name;
    std::vector<size_t> hidden;
  };
  const TaskSpec tasks[] = {
      {"(a) ResNet-50 proxy", "resnet50-proxy", {96, 64}},
      {"(b) VGG-19 proxy", "vgg19-proxy", {128}},
  };

  std::ofstream json;
  if (!json_path.empty()) json.open(json_path);
  if (json) {
    json << "{\n  \"bench\": \"fig10_convergence\",\n  \"epochs\": " << epochs
         << ",\n  \"tasks\": [\n";
  }

  for (size_t t = 0; t < std::size(tasks); ++t) {
    const TaskSpec& spec = tasks[t];
    std::cout << "\n--- " << spec.label << " (top-5 accuracy vs epoch) ---\n";
    std::vector<ConvergenceResult> results;
    std::vector<double> seconds;
    for (const auto algorithm : algorithms) {
      auto task = make_vision_task(1234, spec.proxy_name, spec.hidden);
      ConvergenceOptions options;
      options.algorithm = algorithm;
      options.epochs = epochs;
      options.density = 0.01;
      options.seed = 99;
      const auto start = std::chrono::steady_clock::now();
      results.push_back(run_convergence(*task, options));
      seconds.push_back(std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count());
    }
    TablePrinter table({"Epoch", "Dense-SGD", "TopK-SGD", "MSTopK-SGD"});
    for (int e = 0; e < epochs; e += (e < 10 ? 1 : 2)) {
      table.add_row({std::to_string(e + 1),
                     TablePrinter::fmt_percent(results[0].curve[e].quality),
                     TablePrinter::fmt_percent(results[1].curve[e].quality),
                     TablePrinter::fmt_percent(results[2].curve[e].quality)});
    }
    table.print(std::cout);
    std::cout << "final: dense="
              << TablePrinter::fmt_percent(results[0].final_quality)
              << " topk=" << TablePrinter::fmt_percent(results[1].final_quality)
              << " mstopk="
              << TablePrinter::fmt_percent(results[2].final_quality) << "\n";
    std::cout << "harness wall time: dense=" << TablePrinter::fmt(seconds[0], 2)
              << "s topk=" << TablePrinter::fmt(seconds[1], 2)
              << "s mstopk=" << TablePrinter::fmt(seconds[2], 2) << "s\n";
    std::cout << "wall-time ratio vs dense: topk="
              << TablePrinter::fmt(seconds[1] / seconds[0], 2)
              << "x mstopk=" << TablePrinter::fmt(seconds[2] / seconds[0], 2)
              << "x\n";

    if (json) {
      json << "    {\n      \"task\": \"" << spec.proxy_name
           << "\",\n      \"algorithms\": [\n";
      for (size_t a = 0; a < results.size(); ++a) {
        json << "        {\"name\": \"" << algorithm_labels[a]
             << "\", \"wall_seconds\": " << seconds[a]
             << ", \"final_quality\": " << results[a].final_quality
             << ", \"best_quality\": " << results[a].best_quality
             << ", \"sim_comm_seconds\": "
             << results[a].simulated_comm_seconds << ",\n         \"curve\": [";
        for (size_t e = 0; e < results[a].curve.size(); ++e) {
          json << (e ? ", " : "") << results[a].curve[e].quality;
        }
        json << "]}" << (a + 1 < results.size() ? "," : "") << "\n";
      }
      json << "      ],\n      \"topk_over_dense_wall\": "
           << seconds[1] / seconds[0] << ",\n      \"mstopk_over_dense_wall\": "
           << seconds[2] / seconds[0] << "\n    }"
           << (t + 1 < std::size(tasks) ? "," : "") << "\n";
    }
  }
  if (json) {
    json << "  ]\n}\n";
    std::cout << "\nwrote " << json_path << "\n";
  }
  std::cout << "\nExpected: near-identical curves; sparse variants within a "
               "point or two of dense at the end (Table 2).\n";
  return 0;
}

int main(int argc, char** argv) {
  return hitopk::run_main([&] { return run(argc, argv); });
}
