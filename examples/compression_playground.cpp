// Scenario: pick a gradient compressor.  Profiles every compression method
// in the library on the same synthetic gradient stream — selection quality,
// wire size, device-model cost — and demonstrates the error-feedback loop
// that makes aggressive compression safe.
#include <cmath>
#include <iostream>

#include "compress/dgc_topk.h"
#include "compress/error_feedback.h"
#include "compress/exact_topk.h"
#include "compress/mstopk.h"
#include "compress/other_compressors.h"
#include "compress/quantizers.h"
#include "core/cli.h"
#include "core/rng.h"
#include "core/table.h"
#include "core/tensor.h"
#include "simgpu/gpu_model.h"

int run() {
  using hitopk::TablePrinter;
  using namespace hitopk;

  const size_t d = 1 << 22;  // 4M-element gradient
  const size_t k = d / 1000;
  Rng rng(7);
  Tensor gradient(d);
  gradient.fill_normal(rng, 0.0f, 1.0f);
  // Heavy tail: a few large coordinates, like real late-training gradients.
  for (int i = 0; i < 200; ++i) {
    gradient[rng.uniform_index(d)] = static_cast<float>(rng.normal(0.0, 25.0));
  }

  const auto exact = compress::exact_topk(gradient.span(), k);
  double exact_mass = 0.0;
  for (float v : exact.values) exact_mass += std::fabs(v);

  const simgpu::GpuCostModel gpu;
  std::cout << "=== Sparsifiers on a 4M-element heavy-tailed gradient "
               "(k = 0.1%) ===\n\n";
  TablePrinter table({"Method", "Mass vs exact top-k", "Wire bytes",
                      "V100 time (ms)"});
  auto add_sparse = [&](const char* name, compress::Compressor& compressor,
                        double device_ms) {
    const auto sparse = compressor.compress(gradient.span(), k);
    double mass = 0.0;
    for (float v : sparse.values) mass += std::fabs(v);
    table.add_row({name, TablePrinter::fmt_percent(mass / exact_mass),
                   std::to_string(sparse.payload_bytes(2)),
                   TablePrinter::fmt(device_ms, 2)});
  };
  compress::ExactTopK exact_compressor;
  compress::DgcTopK dgc(0.01, 3);
  compress::MsTopK mstopk(30, 3);
  compress::RandomK random_k(3);
  add_sparse("exact top-k (nn.topk)", exact_compressor,
             gpu.exact_topk_seconds(d) * 1e3);
  add_sparse("DGC double sampling", dgc, gpu.dgc_topk_seconds(d) * 1e3);
  add_sparse("MSTopK (Alg. 1)", mstopk, gpu.mstopk_seconds(d, k, 30) * 1e3);
  add_sparse("random-k", random_k, 0.01);
  table.print(std::cout);

  std::cout << "\n=== Dense quantizers (whole-tensor) ===\n\n";
  TablePrinter quant({"Method", "Wire bytes", "vs FP32", "RMS error"});
  auto rms = [&](const Tensor& q) {
    double acc = 0.0;
    for (size_t i = 0; i < d; ++i) {
      const double e = q[i] - gradient[i];
      acc += e * e;
    }
    return std::sqrt(acc / d);
  };
  {
    compress::Qsgd qsgd(15, 5);
    Tensor q = gradient;
    const size_t bytes = qsgd.quantize(q.span());
    quant.add_row({"QSGD (15 levels)", std::to_string(bytes),
                   TablePrinter::fmt_percent(static_cast<double>(bytes) /
                                             (d * 4.0)),
                   TablePrinter::fmt(rms(q), 4)});
  }
  {
    Tensor q = gradient;
    const size_t bytes = compress::SignCompressor::compress(q.span());
    quant.add_row({"EF-SignSGD (1 bit)", std::to_string(bytes),
                   TablePrinter::fmt_percent(static_cast<double>(bytes) /
                                             (d * 4.0)),
                   TablePrinter::fmt(rms(q), 4)});
  }
  quant.print(std::cout);

  // Error-feedback demo: MSTopK at 0.1% density still delivers all the
  // gradient mass over time.
  std::cout << "\n=== Error feedback: nothing is lost, only delayed ===\n";
  compress::ErrorFeedback ef;
  Tensor delivered(1 << 12);
  Tensor produced(1 << 12);
  compress::MsTopK loop_compressor(30, 9);
  for (int step = 0; step < 200; ++step) {
    Tensor g(1 << 12);
    g.fill_normal(rng, 0.0f, 1.0f);
    produced += g;
    ef.apply_priming("grad", g.span());
    const auto sent = loop_compressor.compress(g.span(), 4);
    ef.absorb_primed("grad", sent);
    sent.scatter_add_into(delivered.span());
  }
  tensor_ops::add_into(delivered.span(), ef.residual("grad"));
  double max_error = 0.0;
  for (size_t i = 0; i < delivered.size(); ++i) {
    max_error = std::max(max_error,
                         static_cast<double>(std::fabs(delivered[i] -
                                                       produced[i])));
  }
  std::cout << "after 200 steps at density 0.1%: max |delivered + residual - "
               "produced| = "
            << max_error << " (exact closure)\n";
  return 0;
}

int main() { return hitopk::run_main(run); }
