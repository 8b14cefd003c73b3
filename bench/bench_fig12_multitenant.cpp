// Fig. 12 (multi-tenant axis): placement policy under a shared-cluster
// trace replay.
//
// The paper's cluster is a *shared* public cloud: many tenants' training
// jobs arrive over time and contend for the NIC/uplink fabric.  This
// harness replays a Poisson-arrival trace of mixed-gang-size jobs (each job
// = PerfModel compute + ring All-Reduce of its gradient payload, see
// train/tenant.h) on a 16x8 Tencent-Cloud-style fabric with a 2:1
// oversubscribed pod layer, once per gang placement policy, and reports:
//
//   per-job slowdown — JCT on the shared cluster / the same job's runtime
//     alone on an idle cluster (queueing + port contention combined);
//   goodput — sum of isolated runtimes / makespan ("useful cluster seconds
//     delivered per wall second");
//   tail JCT — p50/p95/p99 job completion time.
//
// The expected shape: locality-aware placement dominates spread on tail
// latency (it keeps small gangs inside one NVLink/pod domain, so their
// rings dodge the oversubscribed uplinks), pack-by-pod sits between (dense
// packing loads fewer uplinks but stacks tenants on them), and spread buys
// mean NIC bandwidth at the price of making every job inter-node.
//
// Every number is a deterministic function of the arrival seed (seeded
// Poisson trace + port-clock simulator — no wall clocks), so the whole
// output sits under the JSON "sim" subtree and the CI perf gate pins it to
// 1e-6 relative (bench/refs/BENCH_fig12.json; schema in docs/REPRODUCING.md).
//
// Flags: --jobs=N (default 120, the >=100-job replay the CI gate pins)
//        --seed=N (default HITOPK_FIG12_SEED env or 20260807)
//        --mean_arrival_ms=F (default 50)  --grad_mb=N (default 100)
//        --json=PATH (default BENCH_fig12.json; empty disables)
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "core/cli.h"
#include "core/flags.h"
#include "core/table.h"
#include "simnet/job_scheduler.h"
#include "train/tenant.h"

namespace {

using namespace hitopk;

uint64_t default_seed() {
  if (const char* env = std::getenv("HITOPK_FIG12_SEED")) {
    return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
  }
  return 20260807ull;
}

}  // namespace

int run(int argc, char** argv) {
  const Flags flags(argc, argv);
  const int jobs = flags.get_int("jobs", 120);
  const uint64_t seed = static_cast<uint64_t>(
      flags.get_int("seed", static_cast<int>(default_seed())));
  const double mean_arrival_ms = flags.get_double("mean_arrival_ms", 50.0);
  const int grad_mb = flags.get_int("grad_mb", 100);
  const std::string json_path = flags.get("json", "BENCH_fig12.json");

  // 16x8 Tencent-Cloud link parameters with a 2:1 oversubscribed fat tree
  // of 4-node pods — placement has to matter for the uplink layer to show.
  const auto base = simnet::Topology::tencent_cloud(16, 8);
  const simnet::Topology topo(16, 8, base.intra(), base.inter(),
                              base.nic_beta(), /*oversubscription=*/2.0,
                              /*nodes_per_pod=*/4);

  simnet::TraceOptions trace_options;
  trace_options.jobs = jobs;
  trace_options.mean_interarrival_seconds = mean_arrival_ms / 1e3;
  trace_options.seed = seed;
  trace_options.bytes_per_gpu = static_cast<size_t>(grad_mb) << 20;
  const std::vector<simnet::JobSpec> trace =
      simnet::generate_trace(trace_options);

  train::TenantWorkload workload;  // ResNet-50 @224, local batch 64
  const simnet::JobBody body = train::make_tenant_body(workload);

  std::cout << "=== Fig. 12: multi-tenant trace replay x placement policy "
               "===\n    (" << jobs << " Poisson-arriving jobs, gangs {4, 8, "
               "16, 32}, " << grad_mb << " MB gradients,\n     16x8 Tencent "
               "Cloud + 2:1 oversubscribed 4-node pods, seed " << seed
            << ")\n\n";

  const simnet::PlacementPolicy policies[] = {
      simnet::PlacementPolicy::kPackByPod,
      simnet::PlacementPolicy::kSpread,
      simnet::PlacementPolicy::kLocalityAware,
  };
  std::vector<simnet::ReplayMetrics> results;
  for (const auto policy : policies) {
    results.push_back(simnet::replay_trace(topo, trace, body, policy));
  }

  TablePrinter table({"Policy", "Mean slowdown", "Goodput", "p50 JCT (s)",
                      "p95 JCT (s)", "p99 JCT (s)", "Makespan (s)"});
  for (size_t p = 0; p < results.size(); ++p) {
    const simnet::ReplayMetrics& m = results[p];
    table.add_row({simnet::placement_policy_name(policies[p]),
                   TablePrinter::fmt(m.mean_slowdown, 3),
                   TablePrinter::fmt(m.goodput, 3),
                   TablePrinter::fmt(m.p50_jct, 3),
                   TablePrinter::fmt(m.p95_jct, 3),
                   TablePrinter::fmt(m.p99_jct, 3),
                   TablePrinter::fmt(m.makespan, 3)});
  }
  table.print(std::cout);

  std::cout << "\nExpected: locality-aware keeps small gangs inside one "
               "NVLink/pod domain and wins\nthe tail; pack-by-pod loads few "
               "uplinks but stacks tenants on them; spread makes\nevery job "
               "inter-node and pays for it under load.\n";

  // Quantized axis: the same locality-aware replay with every gang's
  // gradients crossing an fp16 wire — half the bytes per iteration on the
  // oversubscribed fabric.  Informational (ungated): the sim subtree above
  // stays the pinned panel; this one documents the typed-payload headroom.
  train::TenantWorkload fp16_workload;
  fp16_workload.wire = coll::WireDtype::kFp16;
  const simnet::ReplayMetrics fp16_replay = simnet::replay_trace(
      topo, trace, train::make_tenant_body(fp16_workload),
      simnet::PlacementPolicy::kLocalityAware);
  const simnet::ReplayMetrics& fp32_replay = results[2];  // locality-aware

  std::cout << "\n=== Quantized gangs (informational): fp16 vs fp32 wire, "
               "locality-aware ===\n\n";
  TablePrinter qtable({"Wire", "Goodput", "Mean slowdown", "p99 JCT (s)",
                       "Makespan (s)"});
  qtable.add_row({"fp32", TablePrinter::fmt(fp32_replay.goodput, 3),
                  TablePrinter::fmt(fp32_replay.mean_slowdown, 3),
                  TablePrinter::fmt(fp32_replay.p99_jct, 3),
                  TablePrinter::fmt(fp32_replay.makespan, 3)});
  qtable.add_row({"fp16", TablePrinter::fmt(fp16_replay.goodput, 3),
                  TablePrinter::fmt(fp16_replay.mean_slowdown, 3),
                  TablePrinter::fmt(fp16_replay.p99_jct, 3),
                  TablePrinter::fmt(fp16_replay.makespan, 3)});
  qtable.print(std::cout);
  std::cout << "\nHalved transfer bytes shrink each job's communication "
               "phase, so contention on\nthe shared uplinks drops and "
               "goodput rises.\n";

  if (!json_path.empty()) {
    std::FILE* json = std::fopen(json_path.c_str(), "w");
    if (json != nullptr) {
      std::fprintf(json,
                   "{\n  \"bench\": \"fig12_multitenant\",\n  \"sim\": {\n"
                   "    \"cluster\": \"16x8 oversub2 pods4\",\n"
                   "    \"jobs\": %d,\n    \"seed\": %llu,\n"
                   "    \"mean_interarrival_seconds\": %.9g,\n"
                   "    \"gradient_bytes\": %llu,\n    \"policies\": [\n",
                   jobs, static_cast<unsigned long long>(seed),
                   trace_options.mean_interarrival_seconds,
                   static_cast<unsigned long long>(trace_options.bytes_per_gpu));
      for (size_t p = 0; p < results.size(); ++p) {
        const simnet::ReplayMetrics& m = results[p];
        std::fprintf(
            json,
            "      {\"policy\": \"%s\", \"mean_slowdown\": %.9g, "
            "\"goodput\": %.9g, \"p50_jct\": %.9g, \"p95_jct\": %.9g, "
            "\"p99_jct\": %.9g, \"makespan\": %.9g,\n       \"jobs\": [\n",
            simnet::placement_policy_name(policies[p]), m.mean_slowdown,
            m.goodput, m.p50_jct, m.p95_jct, m.p99_jct, m.makespan);
        for (size_t j = 0; j < m.records.size(); ++j) {
          const simnet::JobRecord& r = m.records[j];
          std::fprintf(
              json,
              "        {\"id\": %d, \"gpus\": %d, \"arrival\": %.9g, "
              "\"queued\": %.9g, \"jct\": %.9g, \"isolated\": %.9g, "
              "\"slowdown\": %.9g, \"aborted\": %s}%s\n",
              r.spec.id, r.spec.gpus, r.spec.arrival, r.queued_seconds(),
              r.jct(), r.spec.isolated_seconds, r.slowdown(),
              r.aborted ? "true" : "false",
              j + 1 < m.records.size() ? "," : "");
        }
        std::fprintf(json, "       ]}%s\n",
                     p + 1 < results.size() ? "," : "");
      }
      std::fprintf(json, "    ]\n  },\n");
      // Outside the "sim" subtree on purpose: informational, never gated.
      std::fprintf(
          json,
          "  \"quantized\": {\n    \"policy\": \"locality_aware\",\n"
          "    \"fp32\": {\"goodput\": %.9g, \"mean_slowdown\": %.9g, "
          "\"p99_jct\": %.9g, \"makespan\": %.9g},\n"
          "    \"fp16\": {\"goodput\": %.9g, \"mean_slowdown\": %.9g, "
          "\"p99_jct\": %.9g, \"makespan\": %.9g}\n  }\n}\n",
          fp32_replay.goodput, fp32_replay.mean_slowdown, fp32_replay.p99_jct,
          fp32_replay.makespan, fp16_replay.goodput, fp16_replay.mean_slowdown,
          fp16_replay.p99_jct, fp16_replay.makespan);
      std::fclose(json);
      std::printf("wrote %s\n", json_path.c_str());
    }
  }
  return 0;
}

int main(int argc, char** argv) {
  return hitopk::run_main([&] { return run(argc, argv); });
}
