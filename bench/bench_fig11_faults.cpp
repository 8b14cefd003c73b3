// Fig. 11 (fault axis): goodput under preemption on the public cloud.
//
// Sweeps preemption rate x checkpoint interval x recovery policy on the
// 16x8 Tencent Cloud cluster (ResNet-50 @96^2, MSTopK-SGD) and reports
// goodput (useful samples per wall second, as a fraction of the fault-free
// rate), lost-work fraction, and mean time-to-recover.  The expected shape:
//
//   - abort-and-restart has an interior optimal checkpoint interval that
//     shifts *shorter* as the rate grows (the classic lost-work vs
//     checkpoint-overhead trade-off), and thrashes outright when the
//     rollback window plus restart cost approaches the MTBF;
//   - elastic-continue degrades gracefully — it loses only the in-flight
//     iteration plus a re-shard, never rolls back, and so always prefers
//     the longest interval; its goodput tracks the shrinking world.
//
// Every number is a deterministic function of the seed (the port-clock
// simulator plus seeded Poisson scripts — no wall clocks), so the whole
// output sits under the JSON "sim" subtree and the CI perf gate pins it to
// 1e-6 relative (bench/refs/BENCH_fig11.json; schema in docs/REPRODUCING.md).
//
// A second axis sweeps the checkpoint interval alone at a fixed preemption
// rate with the *size-derived* write cost (checkpoint_write_gbps prices a
// snapshot from the model's three float state planes instead of the flat
// checkpoint_seconds), tracing the interior optimum directly.
//
// Flags: --iterations=N (default 2000)  --seed=N (default 42)
//        --ckpt_gbps=F (default 2.0, interval sweep write rate)
//        --json=PATH (default BENCH_fig11.json; empty disables)
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/cli.h"
#include "core/flags.h"
#include "core/table.h"
#include "train/scenario.h"

namespace {

using namespace hitopk;
using namespace hitopk::train;

struct Row {
  double rate = 0.0;  // preemptions per node-hour
  int interval = 0;   // checkpoint interval (iterations)
  const char* policy = "";
  ScenarioResult result;
};

}  // namespace

int run(int argc, char** argv) {
  const Flags flags(argc, argv);
  const int iterations = flags.get_int("iterations", 2000);
  const uint64_t seed = static_cast<uint64_t>(flags.get_int("seed", 42));
  const double ckpt_gbps = flags.get_double("ckpt_gbps", 2.0);
  const std::string json_path = flags.get("json", "BENCH_fig11.json");

  std::cout << "=== Fig. 11: preemption rate x checkpoint interval x "
               "recovery policy ===\n    (ResNet-50 @96^2, MSTopK-SGD, 16x8 "
               "Tencent Cloud, "
            << iterations << " iterations)\n\n";
  const auto topo = simnet::Topology::tencent_cloud(16, 8);

  const double rates[] = {0.5, 2.0, 8.0};
  const int intervals[] = {50, 200, 1000};
  const std::pair<RecoveryPolicy, const char*> policies[] = {
      {RecoveryPolicy::kAbortRestart, "abort-restart"},
      {RecoveryPolicy::kElasticContinue, "elastic-continue"},
  };

  std::vector<Row> rows;
  for (const double rate : rates) {
    for (const int interval : intervals) {
      for (const auto& [policy, policy_name] : policies) {
        ScenarioOptions options;
        options.trainer.model = "resnet50";
        options.trainer.resolution = 96;
        options.iterations = iterations;
        options.preempt_rate_per_node_hour = rate;
        options.node_return_seconds = 600.0;
        options.checkpoint_interval = interval;
        options.policy = policy;
        options.seed = seed;
        Row row;
        row.rate = rate;
        row.interval = interval;
        row.policy = policy_name;
        row.result = simulate_scenario(topo, options);
        rows.push_back(row);
      }
    }
  }

  TablePrinter table({"Rate/node-h", "Ckpt every", "Policy", "Goodput frac",
                      "Lost work", "MTTR (s)", "Preempt", "Min nodes"});
  for (const Row& r : rows) {
    table.add_row({TablePrinter::fmt(r.rate, 1), std::to_string(r.interval),
                   r.policy, TablePrinter::fmt(r.result.goodput_fraction, 3),
                   TablePrinter::fmt(r.result.lost_work_fraction, 3),
                   TablePrinter::fmt(r.result.mean_time_to_recover, 1),
                   std::to_string(r.result.preemptions),
                   std::to_string(r.result.min_world_nodes)});
  }
  table.print(std::cout);

  // ---- checkpoint-interval sweep at a fixed rate, size-derived write cost
  const double sweep_rate = 2.0;
  const int sweep_intervals[] = {25, 50, 100, 200, 400, 1000};
  std::vector<Row> sweep_rows;
  for (const int interval : sweep_intervals) {
    for (const auto& [policy, policy_name] : policies) {
      ScenarioOptions options;
      options.trainer.model = "resnet50";
      options.trainer.resolution = 96;
      options.iterations = iterations;
      options.preempt_rate_per_node_hour = sweep_rate;
      options.node_return_seconds = 600.0;
      options.checkpoint_interval = interval;
      options.checkpoint_write_gbps = ckpt_gbps;
      options.policy = policy;
      options.seed = seed;
      Row row;
      row.rate = sweep_rate;
      row.interval = interval;
      row.policy = policy_name;
      row.result = simulate_scenario(topo, options);
      sweep_rows.push_back(row);
    }
  }
  std::cout << "\n--- checkpoint-interval sweep (rate "
            << TablePrinter::fmt(sweep_rate, 1) << "/node-h, write cost = "
            << "state size / " << TablePrinter::fmt(ckpt_gbps, 1)
            << " GB/s) ---\n";
  TablePrinter sweep_table({"Ckpt every", "Policy", "Goodput frac",
                            "Lost work", "Ckpt overhead", "Wall (s)"});
  for (const Row& r : sweep_rows) {
    sweep_table.add_row(
        {std::to_string(r.interval), r.policy,
         TablePrinter::fmt(r.result.goodput_fraction, 3),
         TablePrinter::fmt(r.result.lost_work_fraction, 3),
         TablePrinter::fmt(r.result.checkpoint_overhead_fraction, 4),
         TablePrinter::fmt(r.result.wall_seconds, 1)});
  }
  sweep_table.print(std::cout);

  std::cout << "\nExpected: abort-restart's best checkpoint interval "
               "shortens as the preemption rate\ngrows (and it thrashes "
               "when rollback + restart approaches the MTBF); elastic-\n"
               "continue never rolls back, so it always prefers long "
               "intervals and degrades only\nwith the surviving world "
               "size.\n";

  if (!json_path.empty()) {
    std::FILE* json = std::fopen(json_path.c_str(), "w");
    if (json != nullptr) {
      std::fprintf(json,
                   "{\n  \"bench\": \"fig11_faults\",\n  \"sim\": {\n"
                   "    \"cluster\": \"16x8\",\n    \"iterations\": %d,\n"
                   "    \"seed\": %llu,\n    \"rows\": [\n",
                   iterations, static_cast<unsigned long long>(seed));
      for (size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        const ScenarioResult& s = r.result;
        std::fprintf(
            json,
            "      {\"rate_per_node_hour\": %.9g, \"checkpoint_interval\": "
            "%d, \"policy\": \"%s\", \"goodput\": %.9g, "
            "\"goodput_fraction\": %.9g, \"lost_work_fraction\": %.9g, "
            "\"mean_time_to_recover\": %.9g, \"wall\": %.9g, "
            "\"preemptions\": %d, \"restarts\": %d, \"rescales\": %d, "
            "\"min_world_nodes\": %d}%s\n",
            r.rate, r.interval, r.policy, s.goodput, s.goodput_fraction,
            s.lost_work_fraction, s.mean_time_to_recover, s.wall_seconds,
            s.preemptions, s.restarts, s.rescales, s.min_world_nodes,
            i + 1 < rows.size() ? "," : "");
      }
      std::fprintf(json,
                   "    ],\n    \"interval_sweep\": {\n"
                   "      \"rate_per_node_hour\": %.9g,\n"
                   "      \"checkpoint_write_gbps\": %.9g,\n"
                   "      \"rows\": [\n",
                   sweep_rate, ckpt_gbps);
      for (size_t i = 0; i < sweep_rows.size(); ++i) {
        const Row& r = sweep_rows[i];
        const ScenarioResult& s = r.result;
        std::fprintf(
            json,
            "        {\"checkpoint_interval\": %d, \"policy\": \"%s\", "
            "\"goodput_fraction\": %.9g, \"lost_work_fraction\": %.9g, "
            "\"checkpoint_overhead_fraction\": %.9g, \"wall\": %.9g, "
            "\"preemptions\": %d}%s\n",
            r.interval, r.policy, s.goodput_fraction, s.lost_work_fraction,
            s.checkpoint_overhead_fraction, s.wall_seconds, s.preemptions,
            i + 1 < sweep_rows.size() ? "," : "");
      }
      std::fprintf(json, "      ]\n    }\n  }\n}\n");
      std::fclose(json);
      std::printf("wrote %s\n", json_path.c_str());
    }
  }
  return 0;
}

int main(int argc, char** argv) {
  return hitopk::run_main([&] { return run(argc, argv); });
}
