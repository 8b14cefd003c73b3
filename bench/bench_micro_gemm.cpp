// Micro benchmark + CI smoke for the tiled SGEMM core (core/gemm.h).
//
// Runs the register-tiled sgemm() against the naive-loop reference at the
// representative shapes of the autodiff engine — the MLP/sequence layer
// products (batch x hidden) at the convergence-bench batch sizes, their
// backward transposed variants, the im2col-lowered CNN convolutions and the
// 1024-wide layer of the bench/e2e model — and *fails* (non-zero exit) if
// the tiled kernel is slower than the naive loop anywhere.  Every row also
// times the baseline x86-64 build next to the build sgemm() dispatches to
// (core/isa.h; the same build on a host without AVX2 and F16C).  CI runs
// this as a regression gate (tiled must never lose to the naive loop).
// Smaller regressions show in the printed columns: leaving the
// microkernels' accumulator loops rolled (see core/gemm.cpp) roughly halves
// the tiled speed.
#include <chrono>
#include <functional>
#include <iostream>
#include <cstdio>
#include <vector>

#include "core/cli.h"
#include "core/gemm.h"
#include "core/isa.h"
#include "core/rng.h"
#include "core/table.h"
#include "core/tensor.h"

namespace {

using hitopk::gemm::Trans;

struct Shape {
  const char* label;
  Trans trans_a;
  Trans trans_b;
  size_t m, n, k;
};

double best_seconds(const std::function<void()>& fn, int reps) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - start;
    best = std::min(best, dt.count());
  }
  return best;
}

}  // namespace

int run() {
  using hitopk::Rng;
  using hitopk::TablePrinter;
  using hitopk::Tensor;

  // batch x in x out products of the three synthetic convergence tasks
  // (MLP vision proxies, embedding sequence model, im2col'd CNN) plus the
  // backward products dA = dC*B^T (NT) and dB = A^T*dC (TN).
  const Shape shapes[] = {
      {"mlp fwd h1 (b32)", Trans::kNo, Trans::kNo, 32, 96, 64},
      {"mlp fwd h2 (b32)", Trans::kNo, Trans::kNo, 32, 64, 96},
      {"mlp fwd logits", Trans::kNo, Trans::kNo, 32, 50, 64},
      {"mlp fwd (b8, fig10)", Trans::kNo, Trans::kNo, 8, 96, 64},
      {"mlp bwd dA", Trans::kNo, Trans::kYes, 32, 64, 96},
      {"mlp bwd dB", Trans::kYes, Trans::kNo, 64, 96, 32},
      {"seq fwd hidden", Trans::kNo, Trans::kNo, 32, 64, 32},
      {"cnn conv1 im2col", Trans::kNo, Trans::kNo, 16, 144, 9},
      {"cnn conv2 im2col", Trans::kNo, Trans::kNo, 16, 144, 144},
      {"cnn bwd dW", Trans::kNo, Trans::kYes, 16, 144, 144},
      {"cnn bwd dcol", Trans::kYes, Trans::kNo, 144, 144, 16},
      {"eval fwd (b512)", Trans::kNo, Trans::kNo, 512, 96, 64},
      {"e2e fwd 1024 (b8)", Trans::kNo, Trans::kNo, 8, 1024, 1024},
      {"e2e bwd dX 1024", Trans::kNo, Trans::kYes, 8, 1024, 1024},
      {"e2e bwd dW 1024", Trans::kYes, Trans::kNo, 1024, 1024, 8},
  };

  using hitopk::isa::Build;
  std::printf("=== bench_micro_gemm: tiled sgemm vs naive loops ===\n");
  std::printf("sgemm build: %s\n\n",
              hitopk::isa::build_name(hitopk::isa::host_build()));
  TablePrinter table({"shape", "m", "n", "k", "naive us", "baseline us",
                      "tiled us", "speedup"});
  Rng rng(7);
  bool ok = true;
  double worst = 1e100;
  for (const Shape& s : shapes) {
    const size_t a_elems = s.m * s.k;
    const size_t b_elems = s.k * s.n;
    Tensor a(a_elems), b(b_elems), c(s.m * s.n);
    a.fill_normal(rng, 0.0f, 1.0f);
    b.fill_normal(rng, 0.0f, 1.0f);
    const size_t lda = s.trans_a == Trans::kNo ? s.k : s.m;
    const size_t ldb = s.trans_b == Trans::kNo ? s.n : s.k;
    // Enough inner iterations that one rep is comfortably above timer
    // resolution on a 1-vCPU runner.
    const int inner = static_cast<int>(
        std::max<size_t>(4, (1u << 22) / (s.m * s.n * s.k)));
    const double naive = best_seconds(
        [&] {
          for (int i = 0; i < inner; ++i) {
            hitopk::gemm::sgemm_naive(s.trans_a, s.trans_b, s.m, s.n, s.k,
                                      a.data(), lda, b.data(), ldb, c.data(),
                                      s.n, false);
          }
        },
        7) / inner;
    const double baseline = best_seconds(
        [&] {
          for (int i = 0; i < inner; ++i) {
            hitopk::gemm::detail::sgemm_build(
                Build::kBaseline, s.trans_a, s.trans_b, s.m, s.n, s.k,
                a.data(), lda, b.data(), ldb, c.data(), s.n, false);
          }
        },
        7) / inner;
    const double tiled = best_seconds(
        [&] {
          for (int i = 0; i < inner; ++i) {
            hitopk::gemm::sgemm(s.trans_a, s.trans_b, s.m, s.n, s.k, a.data(),
                                lda, b.data(), ldb, c.data(), s.n, false);
          }
        },
        7) / inner;
    const double speedup = naive / tiled;
    worst = std::min(worst, speedup);
    if (tiled > naive) ok = false;
    table.add_row({s.label, std::to_string(s.m), std::to_string(s.n),
                   std::to_string(s.k),
                   TablePrinter::fmt(naive * 1e6, 2),
                   TablePrinter::fmt(baseline * 1e6, 2),
                   TablePrinter::fmt(tiled * 1e6, 2),
                   TablePrinter::fmt(speedup, 2) + "x"});
  }
  table.print(std::cout);
  std::printf("\nworst speedup: %.2fx — %s\n", worst,
              ok ? "OK (tiled never slower than naive)"
                 : "FAIL (tiled slower than the naive loop)");
  return ok ? 0 : 1;
}

int main() { return hitopk::run_main(run); }
