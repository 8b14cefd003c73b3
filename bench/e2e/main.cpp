// hitopk_e2e: end-to-end and per-layer wall-time benchmark.
//
//   hitopk_e2e --workload W [--seed N] [--seconds S] [--trace 0|1]
//              [--json PATH] [--chrome PATH]
//
// W is one of train_mstopk, train_dense_fp16, replay_2k, predict.  One
// workload per process; the thread pool is pinned to min(4, nproc) threads.
// The untraced run (--trace 0, default) reports the end-to-end metrics, the
// traced run (--trace 1) the per-layer metrics and writes its spans as
// Chrome-trace JSON to --chrome, which it requires.  Every metric is printed
// by name with its unit, and the last stdout line is one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// with a copy written to --json.  Exit status 0 iff every check passed.
// README.md documents the workloads, metrics and layer map.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/flags.h"
#include "core/parallel.h"
#include "harness.h"
#include "workloads.h"

namespace {

using e2e::MetricSpec;

// Must list exactly BENCHMARK.json's end_to_end / per_layer names and units
// (stability.py cross-checks them).
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"op_ms_p50", "ms"},
    {"op_ms_p90", "ms"},
    {"items_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"autodiff.fwdbwd_ms", "ms"},
    {"autodiff.gflops", "GFLOP/s"},
    {"compress.codec_ms", "ms"},
    {"compress.codec_ns_per_elem", "ns"},
    {"compress.codec_subnormal_frac", "fraction"},
    {"compress.mstopk_ms", "ms"},
    {"compress.ef_ms", "ms"},
    {"collectives.hitopk_ms", "ms"},
    {"collectives.rs_data_ms", "ms"},
    {"collectives.hitopk_timing_us", "us"},
    {"collectives.allreduce_ms", "ms"},
    {"collectives.inter_mb", "MB"},
    {"collectives.intra_mb", "MB"},
    {"collectives.plan_miss_ms", "ms"},
    {"collectives.plan_hit_ms", "ms"},
    {"collectives.plan_hit_ratio", "fraction"},
    {"collectives.candidates_per_plan", "count"},
    {"pto.sgd_ms", "ms"},
    {"simnet.body_us_p50", "us"},
    {"simnet.body_growth", "ratio"},
    {"simnet.sched_self_s", "s"},
    {"simnet.baseline_s", "s"},
    {"simnet.submit_ns_idle", "ns"},
    {"simnet.submit_ns_loaded", "ns"},
    {"simnet.flows", "count"},
    {"simnet.shared_flow_frac", "fraction"},
    {"simnet.queue_depth_p50", "count"},
    {"simnet.sim_goodput", "ratio"},
    {"simnet.sim_p99_jct_s", "sim_s"},
    {"train.coverage", "fraction"},
    {"train.reenact_gap", "fraction"},
    {"train.sim_comm_ms", "sim_ms"},
    {"train.simulate_us", "us"},
    {"train.sim_images_per_s", "1/sim_s"},
    {"train.sim_scaling_eff", "fraction"},
    {"core.memcpy_gbs", "GB/s"},
    {"core.sgemm_gflops", "GFLOP/s"},
    {"trace.overhead_frac", "fraction"},
};

int usage(const char* why) {
  std::cerr << "hitopk_e2e: " << why
            << "\nusage: hitopk_e2e --workload "
               "{train_mstopk|train_dense_fp16|replay_2k|predict} "
               "[--seed N] [--seconds S] [--trace 0|1] [--json PATH] "
               "[--chrome PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const hitopk::Flags flags(argc, argv);
  const std::string workload = flags.get("workload");
  e2e::RunOptions options;
  options.seed =
      std::strtoull(flags.get("seed", "20260807").c_str(), nullptr, 10);
  options.seconds = flags.get_double("seconds", options.seconds);
  const bool traced = flags.get_bool("trace");
  if (workload != "train_mstopk" && workload != "train_dense_fp16" &&
      workload != "replay_2k" && workload != "predict") {
    return usage(workload.empty() ? "--workload is required"
                                  : "unknown workload");
  }
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");
  if (traced && !flags.has("chrome")) {
    return usage("--trace 1 needs --chrome PATH for the spans");
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const int threads = static_cast<int>(std::min(4u, hw));
  hitopk::set_parallel_threads(threads);

  e2e::Tracer tracer;
  if (traced) options.tracer = &tracer;
  e2e::Result result;

  const e2e::Calibration cal_start = e2e::calibrate();
  try {
    if (workload == "train_mstopk") {
      e2e::run_train(options, /*dense_fp16=*/false, result);
    } else if (workload == "train_dense_fp16") {
      e2e::run_train(options, /*dense_fp16=*/true, result);
    } else if (workload == "replay_2k") {
      e2e::run_replay(options, result);
    } else {
      e2e::run_predict(options, result);
    }
  } catch (const std::exception& e) {
    result.check(false, std::string("workload threw: ") + e.what());
  }
  const e2e::Calibration cal_end = e2e::calibrate();

  const std::vector<MetricSpec>& specs = traced ? kPerLayer : kEndToEnd;
  if (traced) {
    result.note(e2e::format("peak RSS %.1f MB", e2e::peak_rss_mb()));
    result.set("core.memcpy_gbs",
               0.5 * (cal_start.memcpy_gbs + cal_end.memcpy_gbs));
    result.set("core.sgemm_gflops",
               0.5 * (cal_start.sgemm_gflops + cal_end.sgemm_gflops));
  } else {
    result.set("peak_rss_mb", e2e::peak_rss_mb());
  }
  // A per-layer metric the workload does not exercise reads 0; an
  // end-to-end metric must be measured on every workload.
  for (const MetricSpec& spec : specs) {
    if (!traced) {
      result.check(result.has(spec.name),
                   std::string("end-to-end metric measured: ") + spec.name);
    }
    result.check(std::isfinite(result.get(spec.name)),
                 std::string("finite metric: ") + spec.name);
  }

  std::cout << "hitopk_e2e " << workload << (traced ? " (traced)" : "")
            << ": seed " << options.seed << ", " << options.seconds
            << " s budget, " << threads << " threads (nproc " << hw << ")\n";
  std::cout << e2e::format(
      "  calibration: memcpy %.3f -> %.3f GB/s, sgemm %.3f -> %.3f GFLOP/s\n",
      cal_start.memcpy_gbs, cal_end.memcpy_gbs, cal_start.sgemm_gflops,
      cal_end.sgemm_gflops);
  for (const std::string& line : result.notes()) {
    std::cout << "  " << line << "\n";
  }
  for (const MetricSpec& spec : specs) {
    std::cout << e2e::format("  %-34s %16.6g %s\n", spec.name,
                             result.get(spec.name), spec.unit);
  }
  if (traced) {
    const std::string chrome = flags.get("chrome");
    result.check(tracer.write_chrome_json(chrome),
                 "trace written to " + chrome);
    std::cout << "  trace: " << tracer.size() << " spans -> " << chrome << "\n";
  }
  std::cout << "  checks: " << result.attempted() << " attempted, "
            << result.failed() << " failed\n";

  const std::string json = result.json(specs);
  if (flags.has("json")) {
    std::ofstream out(flags.get("json"));
    out << json << "\n";
  }
  std::cout << json << std::endl;
  return result.correct() ? 0 : 1;
}
