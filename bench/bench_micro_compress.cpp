// google-benchmark microbenchmarks of the real (CPU) compression operators
// and of HiTopKComm's functional path — wall-clock complements the device
// model used by the figure benches.
//
// The MSTopK rows compare the two bracket-search implementations directly:
// BM_MsTopK runs the single-pass histogram (default) and BM_MsTopKLegacy the
// paper-literal multi-pass binary search; main() first prints a selection-
// quality validation of the histogram variant (exactly k selected, magnitude
// -mass overlap vs exact top-k) so the speedup numbers are read alongside
// proof that the fast path still selects the right elements.
// BM_WireRoundTripFp16 times the fp16 wire codec per element.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

#include "collectives/hitopkcomm.h"
#include "compress/dgc_topk.h"
#include "compress/exact_topk.h"
#include "compress/mstopk.h"
#include "compress/other_compressors.h"
#include "compress/wire_codec.h"
#include "core/rng.h"
#include "core/tensor.h"

namespace {

using namespace hitopk;

Tensor gaussian(size_t d, uint64_t seed) {
  Rng rng(seed);
  Tensor t(d);
  t.fill_normal(rng, 0.0f, 1.0f);
  return t;
}

void BM_ExactTopK(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const Tensor x = gaussian(d, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compress::exact_topk(x.span(), d / 1000));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(d));
}
BENCHMARK(BM_ExactTopK)->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 23);

void BM_ExactTopKLegacy(benchmark::State& state) {
  // The packed-key nth_element reference (compress::select_topk_nth) —
  // bit-identical output, kept as the timing baseline for the histogram.
  const size_t d = static_cast<size_t>(state.range(0));
  const Tensor x = gaussian(d, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compress::select_topk_nth(x.span(), d / 1000));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(d));
}
BENCHMARK(BM_ExactTopKLegacy)->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 23);

void BM_DgcTopK(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const Tensor x = gaussian(d, 2);
  compress::DgcTopK dgc(0.01, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dgc.compress(x.span(), d / 1000));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(d));
}
BENCHMARK(BM_DgcTopK)->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 23);

void BM_MsTopK(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const Tensor x = gaussian(d, 3);
  compress::MsTopK mstopk(30, 5);  // histogram mode (default)
  for (auto _ : state) {
    benchmark::DoNotOptimize(mstopk.compress(x.span(), d / 1000));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(d));
}
BENCHMARK(BM_MsTopK)->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 23);

void BM_MsTopKLegacy(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const Tensor x = gaussian(d, 3);
  compress::MsTopK mstopk(30, 5, compress::MsTopKMode::kMultiPass);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mstopk.compress(x.span(), d / 1000));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(d));
}
BENCHMARK(BM_MsTopKLegacy)->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 23);

void BM_MsTopKSamplings(benchmark::State& state) {
  // Sampling-count ablation: only the legacy multi-pass search reads N.
  const size_t d = 1 << 20;
  const Tensor x = gaussian(d, 4);
  compress::MsTopK mstopk(static_cast<int>(state.range(0)), 7,
                          compress::MsTopKMode::kMultiPass);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mstopk.compress(x.span(), d / 1000));
  }
}
BENCHMARK(BM_MsTopKSamplings)->Arg(5)->Arg(15)->Arg(30)->Arg(60);

void BM_RandomK(benchmark::State& state) {
  const size_t d = 1 << 20;
  const Tensor x = gaussian(d, 5);
  compress::RandomK random_k(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(random_k.compress(x.span(), d / 1000));
  }
}
BENCHMARK(BM_RandomK);

void BM_HiTopKCommFunctional(benchmark::State& state) {
  // Functional hierarchical aggregation over a 2x4 cluster, d = 64k.
  const simnet::Topology topo(2, 4, simnet::LinkParams{1e-6, 1e-9},
                              simnet::LinkParams{1e-5, 1e-8});
  const size_t d = 1 << 16;
  std::vector<Tensor> grads;
  Rng rng(11);
  for (int r = 0; r < 8; ++r) {
    Tensor t(d);
    t.fill_normal(rng, 0.0f, 1.0f);
    grads.push_back(std::move(t));
  }
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<Tensor> copy = grads;
    coll::RankData spans;
    for (auto& g : copy) spans.push_back(g.span());
    simnet::Cluster cluster(topo);
    coll::HiTopKOptions options;
    options.density = 0.01;
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        coll::hitopk_comm(cluster, spans, d, options, 0.0));
  }
}
BENCHMARK(BM_HiTopKCommFunctional);

// A wire codec on a gradient-like mix: ~16% exact zeros, ~1% below the
// smallest normal half (2^-14), the rest N(0, 0.01).  Informational:
// per_elem (wall time per element; real time, because the codec splits
// itself over the pool) is the number to watch for a vectorization or
// partitioning regression.  Every round trip is idempotent, so reusing the
// rounded buffer keeps the mix.
void wire_round_trip_bench(benchmark::State& state, compress::WireDtype wire) {
  const size_t d = static_cast<size_t>(state.range(0));
  Rng rng(12);
  Tensor x(d);
  for (size_t i = 0; i < d; ++i) {
    const double u = rng.uniform();
    x[i] = u < 0.16   ? 0.0f
           : u < 0.17 ? static_cast<float>(rng.normal(0.0, 1e-5))
                      : static_cast<float>(rng.normal(0.0, 1e-2));
  }
  for (auto _ : state) {
    compress::wire_round_trip(wire, x.span());
    benchmark::DoNotOptimize(x.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(d));
  state.counters["per_elem"] = benchmark::Counter(
      static_cast<double>(d),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

void BM_WireRoundTripFp16(benchmark::State& state) {
  wire_round_trip_bench(state, compress::WireDtype::kFp16);
}
BENCHMARK(BM_WireRoundTripFp16)->Arg(1 << 20)->UseRealTime();

void BM_WireRoundTripInt8(benchmark::State& state) {
  wire_round_trip_bench(state, compress::WireDtype::kInt8);
}
BENCHMARK(BM_WireRoundTripInt8)->Arg(1 << 20)->UseRealTime();

// Selection-quality + speedup validation at the acceptance point (d = 1M,
// density 0.001), emitted to stdout and BENCH_compress.json (schema in
// docs/REPRODUCING.md) so the perf trajectory is tracked across PRs:
//   - MSTopK histogram vs legacy multi-pass: exactly k selected, >= 99% of
//     exact top-k magnitude mass, and meaningfully faster.
//   - exact top-k histogram vs nth_element reference: bit-identical indices
//     AND values (the threshold_select contract), and meaningfully faster.
// The deterministic criteria and a conservative speedup floor are enforced
// — returns false so the binary exits non-zero instead of "validating"
// silently.
bool validate_and_report() {
  using clock = std::chrono::steady_clock;
  const size_t d = 1 << 20;
  const size_t k = static_cast<size_t>(0.001 * static_cast<double>(d));
  const Tensor x = gaussian(d, 99);

  compress::MsTopK hist(30, 13);
  compress::MsTopK legacy(30, 13, compress::MsTopKMode::kMultiPass);

  const compress::SparseTensor selection = hist.compress(x.span(), k);
  const compress::SparseTensor exact = compress::exact_topk(x.span(), k);
  double selected_mass = 0.0, exact_mass = 0.0;
  for (float v : selection.values) selected_mass += std::fabs(v);
  for (float v : exact.values) exact_mass += std::fabs(v);

  // Each operator's time is the median of 9 calls after one warm-up, and
  // the two operators of a speedup alternate call by call: a busy host
  // stretches a few calls, which moves a mean but not the median, and a
  // load change mid-run hits both operators alike.
  auto median_seconds_pair = [](auto&& fast, auto&& slow) {
    fast();  // warm-up
    slow();
    std::array<double, 9> fast_s{}, slow_s{};
    auto time_call = [](auto&& call) {
      const auto begin = clock::now();
      call();
      return std::chrono::duration<double>(clock::now() - begin).count();
    };
    for (size_t r = 0; r < fast_s.size(); ++r) {
      fast_s[r] = time_call(fast);
      slow_s[r] = time_call(slow);
    }
    std::nth_element(fast_s.begin(), fast_s.begin() + 4, fast_s.end());
    std::nth_element(slow_s.begin(), slow_s.begin() + 4, slow_s.end());
    return std::pair{fast_s[4], slow_s[4]};
  };
  const auto [hist_s, legacy_s] =
      median_seconds_pair([&] { hist.compress(x.span(), k); },
                          [&] { legacy.compress(x.span(), k); });
  const auto [topk_hist_s, topk_nth_s] = median_seconds_pair(
      [&] { compress::exact_topk(x.span(), k); },
      [&] { compress::select_topk_nth(x.span(), k); });
  const compress::SparseTensor topk_ref =
      compress::select_topk_nth(x.span(), k);
  const bool topk_identical =
      exact.indices == topk_ref.indices && exact.values == topk_ref.values;

  std::printf(
      "MSTopK validation (d=%zu, k=%zu): selected %zu elements, "
      "%.2f%% of exact top-k magnitude mass\n",
      d, k, selection.nnz(), 100.0 * selected_mass / exact_mass);
  std::printf(
      "MSTopK compress: histogram %.4fs vs legacy multi-pass %.4fs "
      "(%.1fx speedup)\n",
      hist_s, legacy_s, legacy_s / hist_s);
  std::printf(
      "exact top-k: histogram %.4fs vs nth_element %.4fs (%.1fx speedup), "
      "outputs %s\n\n",
      topk_hist_s, topk_nth_s, topk_nth_s / topk_hist_s,
      topk_identical ? "bit-identical" : "DIFFER");

  std::FILE* json = std::fopen("BENCH_compress.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n  \"bench\": \"micro_compress\",\n  \"d\": %zu,\n"
                 "  \"k\": %zu,\n"
                 "  \"mstopk\": {\"hist_seconds\": %.6f, \"legacy_seconds\": "
                 "%.6f, \"speedup\": %.2f, \"mass_overlap\": %.6f},\n"
                 "  \"exact_topk\": {\"hist_seconds\": %.6f, "
                 "\"nth_seconds\": %.6f, \"speedup\": %.2f, "
                 "\"bit_identical\": %s}\n}\n",
                 d, k, hist_s, legacy_s, legacy_s / hist_s,
                 selected_mass / exact_mass, topk_hist_s, topk_nth_s,
                 topk_nth_s / topk_hist_s, topk_identical ? "true" : "false");
    std::fclose(json);
    std::printf("wrote BENCH_compress.json\n\n");
  }

  bool ok = true;
  if (selection.nnz() != k) {
    std::fprintf(stderr, "FAIL: histogram MSTopK selected %zu != k=%zu\n",
                 selection.nnz(), k);
    ok = false;
  }
  if (selected_mass < 0.99 * exact_mass) {
    std::fprintf(stderr, "FAIL: magnitude-mass overlap below 99%%\n");
    ok = false;
  }
  if (!topk_identical) {
    std::fprintf(stderr,
                 "FAIL: histogram exact top-k not bit-identical to the "
                 "nth_element reference\n");
    ok = false;
  }
  // Wall-clock floors kept below the observed speedups so a loaded CI
  // machine does not flake; a fast path slower than ~1.2x its reference
  // means it regressed outright.
  if (hist_s * 1.2 >= legacy_s) {
    std::fprintf(stderr,
                 "FAIL: histogram not meaningfully faster than legacy "
                 "(%.4fs vs %.4fs)\n",
                 hist_s, legacy_s);
    ok = false;
  }
  if (topk_hist_s * 1.2 >= topk_nth_s) {
    std::fprintf(stderr,
                 "FAIL: histogram exact top-k not meaningfully faster than "
                 "nth_element (%.4fs vs %.4fs)\n",
                 topk_hist_s, topk_nth_s);
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  if (!validate_and_report()) return 1;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
