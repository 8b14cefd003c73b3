#include "core/gemm.h"

#include <algorithm>
#include <cstring>

#include "core/check.h"
#include "core/workspace.h"

namespace hitopk::gemm {
namespace {

// The sgemm body for one register tile of W x (NV * W) floats: every row of
// the tile is NV vectors of W lanes, and a tile has W rows, so both
// microkernels keep W * NV vector accumulators in registers.  The baseline
// build (W = 4, NV = 2: 8 xmm accumulators) and the AVX2 build (W = 8,
// NV = 1: 8 ymm accumulators) instantiate this one source.  The loops over
// accumulators are fully unrolled (#pragma GCC unroll) so that the tile
// arrays become registers rather than stack slots.
//
// The arithmetic is a separate multiply and add per product (neither build
// enables FMA), and every accumulator starts at +0.0 and adds its products
// in increasing kk, so the bits of C do not depend on the tile shape.
template <size_t W, size_t NV>
struct Tiled {
  static constexpr size_t kMr = W;       // rows of op(A) per tile
  static constexpr size_t kNr = NV * W;  // columns of op(B) per tile
  // op(B) == B: rows of B per sweep across the column tiles.
  static constexpr size_t kKb = 32;
  typedef float Vec __attribute__((vector_size(W * sizeof(float))));

  // Packs the (mb x kb) block of op(A) into kMr-row panels: panel p holds
  // rows [p*kMr, p*kMr + kMr), element (m, kk) at panel[kk * kMr + m].  Rows
  // past mb are zero-filled so the microkernels always run a full tile.
  static void pack_a(Trans trans, const float* a, size_t lda, size_t mb,
                     size_t k0, size_t kb, float* dst) {
    const size_t panels = (mb + kMr - 1) / kMr;
    for (size_t p = 0; p < panels; ++p) {
      float* panel = dst + p * kMr * kb;
      const size_t i0 = p * kMr;
      const size_t rows = std::min(kMr, mb - i0);
      for (size_t kk = 0; kk < kb; ++kk) {
        float* col = panel + kk * kMr;
        for (size_t m = 0; m < rows; ++m) {
          col[m] = trans == Trans::kNo ? a[(i0 + m) * lda + k0 + kk]
                                       : a[(k0 + kk) * lda + i0 + m];
        }
        for (size_t m = rows; m < kMr; ++m) col[m] = 0.0f;
      }
    }
  }

  // Stores the leading mr x nr corner of a row-major kMr x kNr tile into C,
  // overwriting or adding.
  static void store_tile(const float* tile, float* c, size_t ldc, size_t mr,
                         size_t nr, bool add) {
    for (size_t m = 0; m < mr; ++m) {
      float* crow = c + m * ldc;
      const float* trow = tile + m * kNr;
      for (size_t j = 0; j < nr; ++j) {
        crow[j] = add ? crow[j] + trow[j] : trow[j];
      }
    }
  }

  // op(B) == B: one kMr x kNr tile against kNr columns of B read in place,
  // consecutive B rows ldb floats apart, over kc rows of one kKc block.
  // Per kk: NV vector loads of the B row, and one broadcast A element per
  // tile row.  `first` starts the accumulators at +0.0, otherwise they
  // resume from `partial` (kMr rows, ldp apart); `last` adds them into C
  // (or overwrites it) instead of saving them back to `partial`.  A float
  // saved and reloaded is exact, so a block summed in chunks has the bits
  // of one summed in a single pass.
  static void kernel_b(size_t kc, const float* __restrict__ ap,
                       const float* __restrict__ b, size_t ldb,
                       float* __restrict__ partial, size_t ldp, bool first,
                       bool last, float* __restrict__ c, size_t ldc,
                       size_t mr, bool add) {
    Vec acc[kMr][NV] = {};
    if (!first) {
#pragma GCC unroll 8
      for (size_t m = 0; m < kMr; ++m) {
#pragma GCC unroll 8
        for (size_t v = 0; v < NV; ++v) {
          std::memcpy(&acc[m][v], partial + m * ldp + v * W, sizeof(Vec));
        }
      }
    }
    for (size_t kk = 0; kk < kc; ++kk) {
      const float* av = ap + kk * kMr;
      Vec bv[NV];
#pragma GCC unroll 8
      for (size_t v = 0; v < NV; ++v) {
        std::memcpy(&bv[v], b + kk * ldb + v * W, sizeof(Vec));
      }
#pragma GCC unroll 8
      for (size_t m = 0; m < kMr; ++m) {
        const float am = av[m];
#pragma GCC unroll 8
        for (size_t v = 0; v < NV; ++v) acc[m][v] += bv[v] * am;
      }
    }
    if (!last) {
#pragma GCC unroll 8
      for (size_t m = 0; m < kMr; ++m) {
#pragma GCC unroll 8
        for (size_t v = 0; v < NV; ++v) {
          std::memcpy(partial + m * ldp + v * W, &acc[m][v], sizeof(Vec));
        }
      }
    } else if (mr == kMr) {
#pragma GCC unroll 8
      for (size_t m = 0; m < kMr; ++m) {
#pragma GCC unroll 8
        for (size_t v = 0; v < NV; ++v) {
          float* cp = c + m * ldc + v * W;
          Vec out = acc[m][v];
          if (add) {
            Vec old;
            std::memcpy(&old, cp, sizeof(Vec));
            out = old + out;
          }
          std::memcpy(cp, &out, sizeof(Vec));
        }
      }
    } else {
      float tile[kMr * kNr];
      std::memcpy(tile, acc, sizeof(tile));
      store_tile(tile, c, ldc, mr, kNr, add);
    }
  }

  // op(B) == B^T: column j of op(B) is row j of the stored B, so the tile
  // reads kNr rows of B in place (rows past nr repeat row 0 and are not
  // stored) instead of packing a transposed copy.  Per kk: one vector of
  // the packed A panel and one broadcast B element per tile column; the
  // accumulators hold tile columns, transposed into C at the end.
  static void kernel_bt(size_t kb, const float* __restrict__ ap,
                        const float* __restrict__ b, size_t ldb, size_t nr,
                        float* __restrict__ c, size_t ldc, size_t mr,
                        bool add) {
    const float* rows[kNr];
    for (size_t j = 0; j < kNr; ++j) rows[j] = b + (j < nr ? j : 0) * ldb;
    Vec acc[kNr] = {};
    for (size_t kk = 0; kk < kb; ++kk) {
      Vec av;
      std::memcpy(&av, ap + kk * kMr, sizeof(Vec));
#pragma GCC unroll 16
      for (size_t j = 0; j < kNr; ++j) acc[j] += av * rows[j][kk];
    }
    float cols[kNr][kMr];
    std::memcpy(cols, acc, sizeof(cols));
    float tile[kMr * kNr];
    for (size_t m = 0; m < kMr; ++m) {
      for (size_t j = 0; j < kNr; ++j) tile[m * kNr + j] = cols[j][m];
    }
    store_tile(tile, c, ldc, mr, nr, add);
  }

  // Ragged column tail for op(B) == B: each output element is the
  // increasing-kk dot of a packed-A row with a B column (the tiles' order).
  static void b_tail(size_t kb, size_t mr, const float* ap, const float* b,
                     size_t ldb, size_t j0, size_t n, float* c, size_t ldc,
                     bool add) {
    for (size_t m = 0; m < mr; ++m) {
      for (size_t j = j0; j < n; ++j) {
        float acc = 0.0f;
        for (size_t kk = 0; kk < kb; ++kk) {
          acc += ap[kk * kMr + m] * b[kk * ldb + j];
        }
        c[m * ldc + j] = add ? c[m * ldc + j] + acc : acc;
      }
    }
  }

  static void sgemm(Trans trans_a, Trans trans_b, size_t m, size_t n,
                    size_t k, const float* a, size_t lda, const float* b,
                    size_t ldb, float* c, size_t ldc, bool accumulate) {
    const size_t mp = (m + kMr - 1) / kMr;
    const size_t n_full = (n / kNr) * kNr;
    // op(A) is packed whole, one K block after another: panel p of the
    // block at k0 (kb rows of K) starts at panel(p, k0, kb).
    Scratch<float> a_pack(mp * kMr * k);
    for (size_t k0 = 0; k0 < k; k0 += kKc) {
      pack_a(trans_a, a, lda, m, k0, std::min(kKc, k - k0),
             a_pack.data() + mp * kMr * k0);
    }
    const auto panel = [&](size_t p, size_t k0, size_t kb) {
      return a_pack.data() + mp * kMr * k0 + p * kMr * kb;
    };
    // The first K block overwrites C unless the caller asked to
    // accumulate; later blocks add their partial sums in k0 order.
    if (trans_b == Trans::kNo) {
      // Per panel, the kMr x n_full partial sums between kKb chunks.
      Scratch<float> partial(kMr * n_full);
      for (size_t k0 = 0; k0 < k; k0 += kKc) {
        const size_t kb = std::min(kKc, k - k0);
        const bool add = accumulate || k0 > 0;
        const float* b_block = b + k0 * ldb;
        for (size_t p = 0; p < mp; ++p) {
          const float* ap = panel(p, k0, kb);
          const size_t mr = std::min(kMr, m - p * kMr);
          float* c_rows = c + p * kMr * ldc;
          // The block's rows go by in chunks of kKb, each swept across
          // every column tile, so the tiles of a chunk share its B rows
          // in cache and each B row streams left to right.  One tile down
          // all kb rows would touch kb rows ldb floats apart per tile, a
          // fresh page each when ldb is 1024.
          for (size_t k1 = 0; k1 < kb; k1 += kKb) {
            const size_t kc = std::min(kKb, kb - k1);
            for (size_t j0 = 0; j0 < n_full; j0 += kNr) {
              kernel_b(kc, ap + k1 * kMr, b_block + k1 * ldb + j0, ldb,
                       partial.data() + j0, n_full, k1 == 0, k1 + kc == kb,
                       c_rows + j0, ldc, mr, add);
            }
          }
          if (n_full < n) {
            b_tail(kb, mr, ap, b_block, ldb, n_full, n, c_rows, ldc, add);
          }
        }
      }
    } else {
      // A tile runs its K blocks back to back, so each of its kNr B rows
      // streams through once rather than in kKc-float pieces per block.
      for (size_t p = 0; p < mp; ++p) {
        const size_t mr = std::min(kMr, m - p * kMr);
        float* c_rows = c + p * kMr * ldc;
        for (size_t j0 = 0; j0 < n; j0 += kNr) {
          for (size_t k0 = 0; k0 < k; k0 += kKc) {
            const size_t kb = std::min(kKc, k - k0);
            kernel_bt(kb, panel(p, k0, kb), b + j0 * ldb + k0, ldb,
                      std::min(kNr, n - j0), c_rows + j0, ldc, mr,
                      accumulate || k0 > 0);
          }
        }
      }
    }
  }
};

void sgemm_baseline(Trans trans_a, Trans trans_b, size_t m, size_t n,
                    size_t k, const float* a, size_t lda, const float* b,
                    size_t ldb, float* c, size_t ldc, bool accumulate) {
  Tiled<4, 2>::sgemm(trans_a, trans_b, m, n, k, a, lda, b, ldb, c, ldc,
                     accumulate);
}

#if defined(__x86_64__)
// `flatten` inlines the whole body, so every helper is compiled for AVX2 as
// well (a target attribute alone applies to this function only).  AVX2
// without FMA: the products and sums round exactly as in the baseline.
__attribute__((target("avx2"), flatten)) void sgemm_avx2(
    Trans trans_a, Trans trans_b, size_t m, size_t n, size_t k,
    const float* a, size_t lda, const float* b, size_t ldb, float* c,
    size_t ldc, bool accumulate) {
  Tiled<8, 1>::sgemm(trans_a, trans_b, m, n, k, a, lda, b, ldb, c, ldc,
                     accumulate);
}
#endif

using SgemmFn = void (*)(Trans, Trans, size_t, size_t, size_t, const float*,
                         size_t, const float*, size_t, float*, size_t, bool);

// Callers pass only builds that isa::build_supported() accepts.
SgemmFn build_fn(isa::Build build) {
#if defined(__x86_64__)
  if (build == isa::Build::kAvx2) return sgemm_avx2;
#endif
  return sgemm_baseline;
}

// The degenerate shapes, shared by every build; fn runs the rest.
void run(SgemmFn fn, Trans trans_a, Trans trans_b, size_t m, size_t n,
         size_t k, const float* a, size_t lda, const float* b, size_t ldb,
         float* c, size_t ldc, bool accumulate) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (!accumulate) {
      for (size_t i = 0; i < m; ++i) {
        std::memset(c + i * ldc, 0, n * sizeof(float));
      }
    }
    return;
  }
  fn(trans_a, trans_b, m, n, k, a, lda, b, ldb, c, ldc, accumulate);
}

}  // namespace

namespace detail {

void sgemm_build(isa::Build build, Trans trans_a, Trans trans_b, size_t m,
                 size_t n, size_t k, const float* a, size_t lda,
                 const float* b, size_t ldb, float* c, size_t ldc,
                 bool accumulate) {
  HITOPK_CHECK(isa::build_supported(build))
      << "sgemm build unsupported on host";
  run(build_fn(build), trans_a, trans_b, m, n, k, a, lda, b, ldb, c, ldc,
      accumulate);
}

}  // namespace detail

void sgemm(Trans trans_a, Trans trans_b, size_t m, size_t n, size_t k,
           const float* a, size_t lda, const float* b, size_t ldb, float* c,
           size_t ldc, bool accumulate) {
  static const SgemmFn host_fn = build_fn(isa::host_build());
  run(host_fn, trans_a, trans_b, m, n, k, a, lda, b, ldb, c, ldc,
      accumulate);
}

void sgemm_naive(Trans trans_a, Trans trans_b, size_t m, size_t n, size_t k,
                 const float* a, size_t lda, const float* b, size_t ldb,
                 float* c, size_t ldc, bool accumulate) {
  // Loop orders mirror the pre-GEMM tape kernels (forward ikj, backward
  // dot-product / rank-1 loops), so bench_micro_gemm's baseline is the real
  // pre-rebuild engine, not a strawman.  Per output element every variant
  // accumulates its k products in increasing order, like sgemm().
  if (!accumulate) {
    for (size_t i = 0; i < m; ++i) {
      std::memset(c + i * ldc, 0, n * sizeof(float));
    }
  }
  if (trans_a == Trans::kNo && trans_b == Trans::kNo) {
    for (size_t i = 0; i < m; ++i) {
      for (size_t kk = 0; kk < k; ++kk) {
        const float aik = a[i * lda + kk];
        const float* brow = b + kk * ldb;
        float* crow = c + i * ldc;
        for (size_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
      }
    }
  } else if (trans_a == Trans::kNo && trans_b == Trans::kYes) {
    for (size_t i = 0; i < m; ++i) {
      const float* arow = a + i * lda;
      for (size_t j = 0; j < n; ++j) {
        const float* brow = b + j * ldb;
        float acc = 0.0f;
        for (size_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
        c[i * ldc + j] += acc;
      }
    }
  } else if (trans_a == Trans::kYes && trans_b == Trans::kNo) {
    for (size_t kk = 0; kk < k; ++kk) {
      const float* arow = a + kk * lda;
      const float* brow = b + kk * ldb;
      for (size_t i = 0; i < m; ++i) {
        const float aki = arow[i];
        float* crow = c + i * ldc;
        for (size_t j = 0; j < n; ++j) crow[j] += aki * brow[j];
      }
    }
  } else {
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < n; ++j) {
        float acc = 0.0f;
        for (size_t kk = 0; kk < k; ++kk) {
          acc += a[kk * lda + i] * b[j * ldb + kk];
        }
        c[i * ldc + j] += acc;
      }
    }
  }
}

}  // namespace hitopk::gemm
