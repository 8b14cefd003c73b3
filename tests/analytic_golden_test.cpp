// Golden values of the analytic cost models: the iteration timeline
// (Tables 3/4, Fig. 1), the DataCache storage tiers (Fig. 9), the V100
// operator costs (Fig. 6, §5.4) and the DAWNBench schedule (Table 5).
//
// None of these tables sits behind a bench gate, so the rows below are what
// pin the calibration constants: moving one moves a row.  Doubles are
// hexfloats and every comparison is exact.  When a case disagrees with its
// row, the failure message prints the actual row in table syntax; after
// confirming the change is intended, paste it over the old row.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "data/datacache.h"
#include "simgpu/gpu_model.h"
#include "simnet/topology.h"
#include "train/dawnbench.h"
#include "train/timeline.h"

namespace hitopk {
namespace {

struct Row {
  std::string name;
  std::vector<double> values;
};

const std::vector<Row>& table() {
  static const std::vector<Row> rows = {
      // {name, {values...}}
      {"resnet50_224/Dense-SGD", {0x0p+0, 0x1.a6d01a6d01a6dp-3, 0x0p+0, 0x1.f76b26c052292p-4, 0x1.d5c92caea9a0ap-8, 0x1.0ded288ce703bp-3, 0x1.df908fdfc386p-2, 0x1.11508521cc044p+16, 0x0p+0, 0x1.a6d01a6d01a6dp-3, 0x0p+0, 0x0p+0, 0x1.78458e45b3622p-7, 0x0p+0, 0x1.be5473515cdcfp-3, 0x1.25aa8be9b27fbp+10, 0x1.dc84717a99f37p-2}},
      {"transformer/Dense-SGD", {0x0p+0, 0x1p-1, 0x0p+0, 0x1.54657cae48ce2p-1, 0x1.071e91e7047e7p-6, 0x1.a9930be0ded29p-3, 0x1.63819a1adc536p+0, 0x1.70b0ed2e6a795p+10, 0x0p+0, 0x1p-1, 0x0p+0, 0x0p+0, 0x1.5130d2b9537bep-6, 0x0p+0, 0x1.0a898695ca9bep-1, 0x1.ebc23c2ca4eb7p+4, 0x1.7fdde6f57f658p-2}},
      {"resnet50_224/2DTAR-SGD", {0x0p+0, 0x1.a6d01a6d01a6dp-3, 0x0p+0, 0x1.3e9e8d0ddbdcp-6, 0x1.d5c92caea9a0ap-8, 0x1.89374bc6a7efap-9, 0x1.e37712a34d0f1p-3, 0x1.0f1c09a964c48p+17, 0x0p+0, 0x1.a6d01a6d01a6dp-3, 0x0p+0, 0x0p+0, 0x1.78458e45b3622p-7, 0x0p+0, 0x1.be5473515cdcfp-3, 0x1.25aa8be9b27fbp+10, 0x1.d8ac48280bb1ap-1}},
      {"transformer/2DTAR-SGD", {0x0p+0, 0x1p-1, 0x0p+0, 0x1.aa98697d0b35p-5, 0x1.071e91e7047e7p-6, 0x1.89374bc6a7efap-9, 0x1.246bb272cf7f3p-1, 0x1.c03b1e8c5d555p+11, 0x0p+0, 0x1p-1, 0x0p+0, 0x0p+0, 0x1.5130d2b9537bep-6, 0x0p+0, 0x1.0a898695ca9bep-1, 0x1.ebc23c2ca4eb7p+4, 0x1.d2ae3906693e7p-1}},
      {"resnet50_224/TopK-SGD", {0x0p+0, 0x1.a6d01a6d01a6dp-3, 0x1.b7b0a5f8aeed9p-3, 0x1.aa63e11f553cap-3, 0x1.d5c92caea9a0ap-8, 0x1.6872b020c49bap-6, 0x1.5128503ba4ec6p-1, 0x1.84c18af4059dfp+15, 0x0p+0, 0x1.a6d01a6d01a6dp-3, 0x0p+0, 0x0p+0, 0x1.78458e45b3622p-7, 0x0p+0, 0x1.be5473515cdcfp-3, 0x1.25aa8be9b27fbp+10, 0x1.52e4b75a9cc45p-2}},
      {"transformer/TopK-SGD", {0x0p+0, 0x1p-1, 0x1.e533859b119b8p-1, 0x1.2921e6f642ab8p-3, 0x1.071e91e7047e7p-6, 0x1.6872b020c49bap-6, 0x1.a17c44b47047ap+0, 0x1.39f4b4018c638p+10, 0x0p+0, 0x1p-1, 0x0p+0, 0x0p+0, 0x1.5130d2b9537bep-6, 0x0p+0, 0x1.0a898695ca9bep-1, 0x1.ebc23c2ca4eb7p+4, 0x1.46e0ec0bbad36p-2}},
      {"resnet50_224/MSTopK-SGD", {0x0p+0, 0x1.a6d01a6d01a6dp-3, 0x0p+0, 0x1.5c2cda6f73bp-10, 0x1.d5c92caea9a0ap-8, 0x1.6872b020c49bap-6, 0x1.e545138b6e6eap-3, 0x1.0e19ed344585fp+17, 0x0p+0, 0x1.a6d01a6d01a6dp-3, 0x0p+0, 0x0p+0, 0x1.78458e45b3622p-7, 0x0p+0, 0x1.be5473515cdcfp-3, 0x1.25aa8be9b27fbp+10, 0x1.d6ea456e64032p-1}},
      {"transformer/MSTopK-SGD", {0x0p+0, 0x1p-1, 0x0p+0, 0x1.8f28d44dbcbp-9, 0x1.071e91e7047e7p-6, 0x1.6872b020c49bap-6, 0x1.150bb2e48c058p-1, 0x1.d91b2706895d2p+11, 0x0p+0, 0x1p-1, 0x0p+0, 0x0p+0, 0x1.5130d2b9537bep-6, 0x0p+0, 0x1.0a898695ca9bep-1, 0x1.ebc23c2ca4eb7p+4, 0x1.ec945ecdb6e4fp-1}},
      {"resnet50_224/straggler_pto", {0x0p+0, 0x1.e8ab39a0e31ecp-3, 0x0p+0, 0x1.5c2cda6f73bp-10, 0x1.d5c92caea9a0ap-8, 0x1.6872b020c49bap-6, 0x1.1390195fa7f35p-2, 0x1.dba6e0565f715p+16, 0x0p+0, 0x1.a6d01a6d01a6dp-3, 0x0p+0, 0x0p+0, 0x1.78458e45b3622p-7, 0x0p+0, 0x1.be5473515cdcfp-3, 0x1.25aa8be9b27fbp+10, 0x1.9ea4d1ed9cde8p-1}},
      {"resnet50_224/no_pto_no_cache", {0x1.7d5d4aa99ee5ap-2, 0x1.a6d01a6d01a6dp-3, 0x0p+0, 0x1.5c2cda6f73bp-10, 0x1.78458e45b3622p-7, 0x1.6872b020c49bap-6, 0x1.3a356e176488cp-1, 0x1.a126443a2430ap+15, 0x0p+0, 0x1.a6d01a6d01a6dp-3, 0x0p+0, 0x0p+0, 0x1.78458e45b3622p-7, 0x0p+0, 0x1.be5473515cdcfp-3, 0x1.25aa8be9b27fbp+10, 0x1.6ba523aa399ap-2}},
      {"datacache/cold_ssd_memory", {0x1.3a356e176488cp-1, 0x1p+11, 0x0p+0, 0x0p+0, 0x1.1dcf4d98b0954p-1, 0x0p+0, 0x1p+11, 0x0p+0, 0x1.a412feed0f698p-3, 0x0p+0, 0x0p+0, 0x1p+11}},
      {"gpu/d1048576", {0x1.be18a0ac7f1b3p-8, 0x1.0bb1d11589e38p-8, 0x1.929941a761a5bp-12, 0x1.5c93153dd80b9p-7, 0x1.575bd8a35d8eep-18}},
      {"gpu/d25557032", {0x1.c00dc385bb9d5p-3, 0x1.a4c8d6b3bb633p-4, 0x1.5190cd09edc08p-8, 0x1.657f6fc7cb033p-7, 0x1.070e3950d6af5p-17}},
      {"gpu/d134217728", {0x1.5409f573301f5p+0, 0x1.3dcc098ac7c64p-1, 0x1.aea8bd90ce3f3p-6, 0x1.8d0f58fa89ecp-7, 0x1.4e15af0b3d425p-16}},
      {"dawnbench/paper_recipe", {0x1.1af35e3b5f754p+7, 0x1.cp+2, 0x1.28f35e3b5f754p+7}},
  };
  return rows;
}

std::string format(const Row& row) {
  std::string out = "{\"" + row.name + "\", {";
  for (size_t i = 0; i < row.values.size(); ++i) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a", row.values[i]);
    out += (i == 0 ? "" : ", ") + std::string(buf);
  }
  return out + "}},";
}

bool same_row(const Row& a, const Row& b) {
  if (a.values.size() != b.values.size()) return false;
  for (size_t i = 0; i < a.values.size(); ++i) {
    if (std::bit_cast<uint64_t>(a.values[i]) !=
        std::bit_cast<uint64_t>(b.values[i])) {
      return false;
    }
  }
  return true;
}

// Fails the current test unless `actual` equals its table row bit for bit.
void expect_golden(const Row& actual) {
  for (const Row& want : table()) {
    if (want.name != actual.name) continue;
    if (!same_row(want, actual)) {
      ADD_FAILURE() << "golden row mismatch for " << actual.name
                    << "\n  table:  " << format(want)
                    << "\n  actual: " << format(actual);
    }
    return;
  }
  ADD_FAILURE() << "no golden row named " << actual.name
                << "\n  actual: " << format(actual);
}

void append(std::vector<double>& out, const train::IterationBreakdown& b) {
  out.insert(out.end(), {b.io, b.ffbp, b.compression, b.communication,
                         b.lars, b.overhead, b.total, b.throughput});
}

// Every IterationBreakdown field of simulate_iteration() and
// simulate_single_gpu(), then scaling_efficiency().
Row simulator_row(const std::string& name,
                  const train::TrainerOptions& options) {
  train::TrainingSimulator sim(simnet::Topology::tencent_cloud(16, 8),
                               options);
  Row row{name, {}};
  append(row.values, sim.simulate_iteration());
  append(row.values, sim.simulate_single_gpu());
  row.values.push_back(sim.scaling_efficiency());
  return row;
}

TEST(AnalyticGolden, TrainingSimulatorRowsAreFrozen) {
  const train::Algorithm algorithms[] = {
      train::Algorithm::kDenseTree, train::Algorithm::kDense2dTorus,
      train::Algorithm::kTopkNaiveAg, train::Algorithm::kMstopkHitopk};
  for (train::Algorithm algorithm : algorithms) {
    train::TrainerOptions resnet;
    resnet.algorithm = algorithm;
    expect_golden(simulator_row(
        "resnet50_224/" + train::algorithm_name(algorithm), resnet));

    train::TrainerOptions transformer;
    transformer.model = "transformer";
    transformer.local_batch = 16;
    transformer.algorithm = algorithm;
    expect_golden(simulator_row(
        "transformer/" + train::algorithm_name(algorithm), transformer));
  }

  train::TrainerOptions straggler;
  straggler.straggler_cv = 0.05;
  straggler.use_pto = true;
  expect_golden(simulator_row("resnet50_224/straggler_pto", straggler));

  // Serial LARS and the cold NFS path, which the defaults never take.
  train::TrainerOptions bare;
  bare.use_pto = false;
  bare.use_datacache = false;
  expect_golden(simulator_row("resnet50_224/no_pto_no_cache", bare));
}

TEST(AnalyticGolden, DataCacheTiersAreFrozen) {
  // One node's batch served cold (NFS), then from the SSD cache of a new
  // run, then from the memory cache.
  data::DataCache cache(data::DataCacheConfig{});
  std::vector<uint64_t> ids(2048);
  std::iota(ids.begin(), ids.end(), uint64_t{0});
  Row row{"datacache/cold_ssd_memory", {}};
  auto fetch = [&] {
    const data::FetchBreakdown b = cache.fetch_batch(ids, 224);
    row.values.insert(row.values.end(),
                      {b.seconds, static_cast<double>(b.nfs_samples),
                       static_cast<double>(b.ssd_samples),
                       static_cast<double>(b.memory_samples)});
  };
  fetch();
  cache.new_run();
  fetch();
  fetch();
  expect_golden(row);
}

TEST(AnalyticGolden, GpuCostModelRowsAreFrozen) {
  const simgpu::GpuCostModel gpu;
  // A bucket, ResNet-50's gradient, and Fig. 6's largest input.
  const size_t sizes[] = {size_t{1} << 20, 25'557'032, size_t{1} << 27};
  for (size_t d : sizes) {
    const size_t k = d / 1000;
    expect_golden(Row{"gpu/d" + std::to_string(d),
                      {gpu.exact_topk_seconds(d), gpu.dgc_topk_seconds(d),
                       gpu.mstopk_seconds(d, k), gpu.lars_seconds(161, d),
                       gpu.scatter_add_seconds(k)}});
  }
}

TEST(AnalyticGolden, DawnbenchTotalsAreFrozen) {
  const train::DawnbenchReport report =
      train::simulate_dawnbench(simnet::Topology::tencent_cloud(16, 8),
                                train::DawnbenchSchedule::paper_recipe());
  expect_golden(Row{"dawnbench/paper_recipe",
                    {report.train_seconds, report.eval_seconds,
                     report.total_seconds}});
}

}  // namespace
}  // namespace hitopk
