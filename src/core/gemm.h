// Blocked, register-tiled single-precision GEMM for the autodiff engine.
//
// The convergence experiments (Fig. 10 / Table 2) and the bench/e2e training
// step spend nearly all their compute in dense products: MLP layers
// (batch x hidden) and their two backward products (dA = dC*B^T,
// dB = A^T*dC).  sgemm() computes C (+)= op(A) * op(B) by packing op(A)
// into row panels and running a register-tile microkernel against B read
// in place: B's rows for op(B) == B, and B's rows as the tile's columns for
// op(B) == B^T, so no call copies B.
//
// One kernel source is compiled twice: a baseline x86-64 build (SSE2,
// 4-lane vectors, 4x8 tiles in 8 of the 16 xmm registers) and an AVX2
// build (8-lane vectors, 8x8 tiles in 8 of the 16 ymm registers).  sgemm()
// runs the host's build (core/isa.h); other targets compile only the
// baseline.  Neither build uses FMA, so both round every product and every
// sum separately and give identical bits: each output element sums its
// products in increasing k from +0.0 within each kKc block, and adds the
// block partials to C in block order.  For K <= kKc that is bitwise the
// textbook `for k: c += a[i][k] * b[k][j]` loop.
#pragma once

#include <cstddef>

#include "core/isa.h"

namespace hitopk::gemm {

enum class Trans {
  kNo,   // operand used as stored
  kYes,  // operand used transposed
};

// K blocking: products are summed in blocks of kKc consecutive k.  Part of
// the result's bits, so it is the same in every build.
inline constexpr size_t kKc = 256;

// C (m x n, leading dimension ldc) (+)= op(A) * op(B) where op(A) is m x k
// and op(B) is k x n.  `lda`/`ldb` are the leading dimensions of the
// *stored* row-major matrices: op(X) == kYes means the stored matrix is the
// transpose (so A is stored k x m / B is stored n x k).  When `accumulate`
// is false C is overwritten, otherwise the product is added into it — the
// form backward passes need to merge gradients from several consumers.
void sgemm(Trans trans_a, Trans trans_b, size_t m, size_t n, size_t k,
           const float* a, size_t lda, const float* b, size_t ldb, float* c,
           size_t ldc, bool accumulate);

namespace detail {

// sgemm() through the given build; a CheckError if the host cannot run it.
// gemm_test and bench_micro_gemm run each build directly; everything else
// calls sgemm().
void sgemm_build(isa::Build build, Trans trans_a, Trans trans_b, size_t m,
                 size_t n, size_t k, const float* a, size_t lda,
                 const float* b, size_t ldb, float* c, size_t ldc,
                 bool accumulate);

}  // namespace detail

// Reference implementation (textbook triple loop, k innermost in increasing
// order).  The property tests compare sgemm against this, and
// bench_micro_gemm uses it as the speedup baseline.
void sgemm_naive(Trans trans_a, Trans trans_b, size_t m, size_t n, size_t k,
                 const float* a, size_t lda, const float* b, size_t ldb,
                 float* c, size_t ldc, bool accumulate);

}  // namespace hitopk::gemm
