// Property tests for the tiled SGEMM core.  The contract is exact: within
// each kKc block of k an output element sums its products in increasing k
// from +0.0, and the block partials are added to C in block order.  An
// independent scalar oracle (sgemm_blocked below) computes exactly that, so
// every case compares bits; only NaN payloads are not compared (x86 keeps
// the first operand's payload, and a compiler may commute operands).
//
// The Gemm suite checks sgemm() as dispatched, including against the
// textbook loop where the two coincide (K <= kKc, overwriting C).  The
// GemmBuild suite runs the oracle corpus through each compiled kernel build
// (baseline and AVX2, core/isa.h) via gemm::detail::sgemm_build; the AVX2
// instance skips itself on hosts without AVX2 and F16C.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "core/gemm.h"
#include "core/rng.h"
#include "core/tensor.h"
#include "isa_builds.h"

namespace hitopk::gemm {
namespace {

using isa::Build;

using SgemmEntry =
    std::function<void(Trans, Trans, size_t, size_t, size_t, const float*,
                       size_t, const float*, size_t, float*, size_t, bool)>;

// The blocked-order oracle: one scalar partial per kKc block, summed from
// +0.0 in increasing k; the first block overwrites C unless accumulating,
// later blocks add to it in order.
void sgemm_blocked(Trans trans_a, Trans trans_b, size_t m, size_t n, size_t k,
                   const float* a, size_t lda, const float* b, size_t ldb,
                   float* c, size_t ldc, bool accumulate) {
  auto op_a = [&](size_t i, size_t kk) {
    return trans_a == Trans::kNo ? a[i * lda + kk] : a[kk * lda + i];
  };
  auto op_b = [&](size_t kk, size_t j) {
    return trans_b == Trans::kNo ? b[kk * ldb + j] : b[j * ldb + kk];
  };
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      float& out = c[i * ldc + j];
      if (k == 0 && !accumulate) out = 0.0f;
      for (size_t k0 = 0; k0 < k; k0 += kKc) {
        float partial = 0.0f;
        for (size_t kk = k0; kk < std::min(k, k0 + kKc); ++kk) {
          partial += op_a(i, kk) * op_b(kk, j);
        }
        out = k0 == 0 && !accumulate ? partial : out + partial;
      }
    }
  }
}

bool same_value(float x, float y) {
  return std::bit_cast<uint32_t>(x) == std::bit_cast<uint32_t>(y) ||
         (std::isnan(x) && std::isnan(y));
}

// How a case fills A, B and (when accumulating) C.
enum class Fill {
  kNormal,    // N(0, 1)
  kSpecial,   // N(0, 1) with ~1 in 16 elements NaN, +-Inf, +-0.0 or subnormal
  kTiny,      // N(0, 1) * 2^-70: products and sums land in the subnormals
  kZeros,     // +-0.0 only
};

float special_value(Rng& rng) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float values[] = {
      std::numeric_limits<float>::quiet_NaN(),
      kInf,
      -kInf,
      0.0f,
      -0.0f,
      std::numeric_limits<float>::denorm_min(),
      -3.0f * std::numeric_limits<float>::denorm_min(),
      std::numeric_limits<float>::min() / 3.0f,
      std::numeric_limits<float>::max(),
  };
  return values[rng.uniform_index(std::size(values))];
}

void fill(std::vector<float>& v, Fill kind, Rng& rng) {
  for (float& x : v) {
    const float normal = static_cast<float>(rng.normal());
    switch (kind) {
      case Fill::kNormal:
        x = normal;
        break;
      case Fill::kSpecial:
        x = rng.uniform_index(16) == 0 ? special_value(rng) : normal;
        break;
      case Fill::kTiny:
        x = std::ldexp(normal, -70);
        break;
      case Fill::kZeros:
        x = rng.uniform_index(2) == 0 ? 0.0f : -0.0f;
        break;
    }
  }
}

struct Case {
  Trans trans_a;
  Trans trans_b;
  size_t m, n, k;
  bool accumulate = false;
  // Extra floats at the end of every stored row of A, B and C.  A and B
  // padding holds NaN, so a kernel that reads it poisons its result; C
  // padding must come back untouched.
  size_t pad_a = 0, pad_b = 0, pad_c = 0;
  Fill fill = Fill::kNormal;
};

std::string describe(const Case& c) {
  auto t = [](Trans x) { return x == Trans::kNo ? "N" : "T"; };
  return std::string(t(c.trans_a)) + t(c.trans_b) + " m=" +
         std::to_string(c.m) + " n=" + std::to_string(c.n) +
         " k=" + std::to_string(c.k) + (c.accumulate ? " acc" : "") +
         " pad=" + std::to_string(c.pad_a) + "/" + std::to_string(c.pad_b) +
         "/" + std::to_string(c.pad_c) +
         " fill=" + std::to_string(static_cast<int>(c.fill));
}

// Runs `gemm` and the oracle on identical inputs; expects identical C
// buffers, padding included.
void expect_matches_oracle(const SgemmEntry& gemm, const Case& c,
                           uint64_t seed) {
  SCOPED_TRACE(describe(c));
  Rng rng(seed);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const size_t a_rows = c.trans_a == Trans::kNo ? c.m : c.k;
  const size_t a_cols = c.trans_a == Trans::kNo ? c.k : c.m;
  const size_t b_rows = c.trans_b == Trans::kNo ? c.k : c.n;
  const size_t b_cols = c.trans_b == Trans::kNo ? c.n : c.k;
  const size_t lda = a_cols + c.pad_a;
  const size_t ldb = b_cols + c.pad_b;
  const size_t ldc = c.n + c.pad_c;
  auto padded = [&](size_t rows, size_t cols, size_t ld, Fill kind) {
    std::vector<float> dense(rows * cols);
    fill(dense, kind, rng);
    std::vector<float> out(rows * ld, nan);
    for (size_t r = 0; r < rows; ++r) {
      std::copy_n(dense.begin() + r * cols, cols, out.begin() + r * ld);
    }
    return out;
  };
  const std::vector<float> a = padded(a_rows, a_cols, lda, c.fill);
  const std::vector<float> b = padded(b_rows, b_cols, ldb, c.fill);
  // Overwritten C starts as NaN, so a kernel that adds where it should
  // overwrite shows up too.
  std::vector<float> want = c.accumulate
                                ? padded(c.m, c.n, ldc, c.fill)
                                : std::vector<float>(c.m * ldc, nan);
  std::vector<float> got = want;
  gemm(c.trans_a, c.trans_b, c.m, c.n, c.k, a.data(), lda, b.data(), ldb,
       got.data(), ldc, c.accumulate);
  sgemm_blocked(c.trans_a, c.trans_b, c.m, c.n, c.k, a.data(), lda, b.data(),
                ldb, want.data(), ldc, c.accumulate);
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(same_value(got[i], want[i]))
        << "row " << i / ldc << " col " << i % ldc << ": got " << got[i]
        << " (0x" << std::hex << std::bit_cast<uint32_t>(got[i])
        << "), oracle " << want[i] << " (0x"
        << std::bit_cast<uint32_t>(want[i]) << ")" << std::dec;
  }
}

const SgemmEntry kDispatched = [](auto... args) { sgemm(args...); };

SgemmEntry build_entry(Build build) {
  return [build](auto... args) { detail::sgemm_build(build, args...); };
}

constexpr Trans kVariants[] = {Trans::kNo, Trans::kYes};

// Ragged sizes straddling the tile edges of both builds (baseline 4x8,
// AVX2 8x8): one below, exact and one above 4, 8 and 16, plus 1 and 33.
constexpr size_t kRaggedSizes[] = {1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33};

// Runs sgemm and sgemm_naive on identical inputs; both sum each element's
// products in increasing k from +0.0 into an overwritten C, so for
// K <= kKc they agree bitwise.
void expect_matches_naive(Trans trans_a, Trans trans_b, size_t m, size_t n,
                          size_t k, uint64_t seed) {
  ASSERT_LE(k, kKc);
  Rng rng(seed);
  Tensor a(m * k), b(k * n), c_tiled(m * n), c_naive(m * n);
  a.fill_normal(rng, 0.0f, 1.0f);
  b.fill_normal(rng, 0.0f, 1.0f);
  const size_t lda = trans_a == Trans::kNo ? k : m;
  const size_t ldb = trans_b == Trans::kNo ? n : k;
  sgemm(trans_a, trans_b, m, n, k, a.data(), lda, b.data(), ldb,
        c_tiled.data(), n, false);
  sgemm_naive(trans_a, trans_b, m, n, k, a.data(), lda, b.data(), ldb,
              c_naive.data(), n, false);
  for (size_t i = 0; i < m * n; ++i) {
    ASSERT_EQ(c_tiled[i], c_naive[i])
        << "element " << i << " m=" << m << " n=" << n << " k=" << k;
  }
}

TEST(Gemm, AllVariantsRaggedShapesMatchNaive) {
  uint64_t seed = 1;
  for (Trans ta : kVariants) {
    for (Trans tb : kVariants) {
      for (size_t m : kRaggedSizes) {
        for (size_t n : kRaggedSizes) {
          for (size_t k : {size_t{1}, size_t{5}, size_t{32}}) {
            expect_matches_naive(ta, tb, m, n, k, seed++);
          }
        }
      }
    }
  }
}

TEST(Gemm, BitwiseIdenticalToKOrderedLoopWithinOneKBlock) {
  // The accumulation-order contract the determinism tests lean on: for
  // K <= kKc each output element is the increasing-k float sum.
  expect_matches_naive(Trans::kNo, Trans::kNo, 32, 96, 64, 101);
  expect_matches_naive(Trans::kNo, Trans::kYes, 32, 64, 96, 102);
  expect_matches_naive(Trans::kYes, Trans::kNo, 64, 96, 32, 103);
}

TEST(Gemm, AccumulateAddsIntoExistingC) {
  for (Trans ta : kVariants) {
    for (Trans tb : kVariants) {
      expect_matches_oracle(kDispatched, {ta, tb, 13, 21, 17, true}, 201);
    }
  }
}

TEST(Gemm, LargeKSpansMultipleBlocks) {
  expect_matches_oracle(kDispatched,
                        {Trans::kNo, Trans::kNo, 9, 11, kKc + 37}, 301);
  expect_matches_oracle(kDispatched,
                        {Trans::kNo, Trans::kYes, 9, 11, 2 * kKc + 3}, 302);
  expect_matches_oracle(kDispatched,
                        {Trans::kYes, Trans::kNo, 9, 11, kKc + 1, true}, 303);
  expect_matches_oracle(kDispatched,
                        {Trans::kYes, Trans::kYes, 9, 11, 3 * kKc, true},
                        304);
}

TEST(Gemm, KZeroOverwritesOrKeepsC) {
  Tensor a(0), b(0), c(6);
  c.fill(3.0f);
  sgemm(Trans::kNo, Trans::kNo, 2, 3, 0, a.data(), 1, b.data(), 3, c.data(),
        3, /*accumulate=*/true);
  for (size_t i = 0; i < 6; ++i) EXPECT_EQ(c[i], 3.0f);
  sgemm(Trans::kNo, Trans::kNo, 2, 3, 0, a.data(), 1, b.data(), 3, c.data(),
        3, /*accumulate=*/false);
  for (size_t i = 0; i < 6; ++i) EXPECT_EQ(c[i], 0.0f);
}

TEST(Gemm, StridedOutputRowsRespectLdc) {
  // C rows embedded in a wider matrix: columns outside n are untouched.
  const size_t m = 5, n = 6, k = 7, ldc = 9;
  Rng rng(11);
  Tensor a(m * k), b(k * n);
  a.fill_normal(rng, 0.0f, 1.0f);
  b.fill_normal(rng, 0.0f, 1.0f);
  std::vector<float> c(m * ldc, -7.0f);
  Tensor ref(m * n);
  sgemm(Trans::kNo, Trans::kNo, m, n, k, a.data(), k, b.data(), n, c.data(),
        ldc, false);
  sgemm_naive(Trans::kNo, Trans::kNo, m, n, k, a.data(), k, b.data(), n,
              ref.data(), n, false);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < ldc; ++j) {
      if (j < n) {
        EXPECT_EQ(c[i * ldc + j], ref[i * n + j]);
      } else {
        EXPECT_EQ(c[i * ldc + j], -7.0f) << "padding clobbered";
      }
    }
  }
}

// ------------------------------------------------- every build vs oracle

std::vector<Case> ragged_cases() {
  std::vector<Case> cases;
  for (Trans ta : kVariants) {
    for (Trans tb : kVariants) {
      for (size_t m : kRaggedSizes) {
        for (size_t n : kRaggedSizes) {
          cases.push_back({ta, tb, m, n, 7});
          cases.push_back({ta, tb, m, n, kKc + 5, true});
        }
      }
    }
  }
  return cases;
}

std::vector<Case> padded_cases() {
  // lda/ldb wider than the row: the in-place B^T kernel walks B's rows with
  // stride ldb, and the packing of A and the op(B) == B tiles stride too.
  std::vector<Case> cases;
  for (Trans ta : kVariants) {
    for (Trans tb : kVariants) {
      for (bool acc : {false, true}) {
        cases.push_back({ta, tb, 9, 17, 21, acc, 3, 5, 2});
        cases.push_back({ta, tb, 16, 8, kKc + 9, acc, 1, 7, 0});
        cases.push_back({ta, tb, 5, 33, 4, acc, 11, 1, 3});
      }
    }
  }
  return cases;
}

std::vector<Case> e2e_cases() {
  // The 1024-wide layer of the bench/e2e model at batch 8: forward (NN),
  // dX = dC * W^T (NT) and dW = X^T * dC (TN).  The backward products
  // accumulate, as the tape's do.
  return {{Trans::kNo, Trans::kNo, 8, 1024, 1024},
          {Trans::kNo, Trans::kYes, 8, 1024, 1024, true},
          {Trans::kYes, Trans::kNo, 1024, 1024, 8, true}};
}

std::vector<Case> special_value_cases() {
  std::vector<Case> cases;
  for (Fill kind : {Fill::kSpecial, Fill::kTiny, Fill::kZeros}) {
    for (Trans ta : kVariants) {
      for (Trans tb : kVariants) {
        for (bool acc : {false, true}) {
          cases.push_back({ta, tb, 11, 19, 23, acc, 0, 0, 0, kind});
          cases.push_back({ta, tb, 8, 16, kKc + 3, acc, 0, 0, 0, kind});
        }
      }
    }
  }
  return cases;
}

class GemmBuild : public IsaBuildTest {
 protected:
  void expect_cases_match_oracle(const std::vector<Case>& cases) {
    const SgemmEntry entry = build_entry(GetParam());
    uint64_t seed = 1000;
    for (const Case& c : cases) {
      expect_matches_oracle(entry, c, seed++);
      if (HasFatalFailure()) return;
    }
  }
};

TEST_P(GemmBuild, RaggedShapesMatchOracle) {
  expect_cases_match_oracle(ragged_cases());
}

TEST_P(GemmBuild, PaddedOperandRowsMatchOracle) {
  expect_cases_match_oracle(padded_cases());
}

TEST_P(GemmBuild, E2eLayerProductsMatchOracle) {
  expect_cases_match_oracle(e2e_cases());
}

TEST_P(GemmBuild, SpecialValuesMatchOracle) {
  expect_cases_match_oracle(special_value_cases());
}

INSTANTIATE_TEST_SUITE_P(Builds, GemmBuild,
                         ::testing::ValuesIn(isa::kBuilds),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace hitopk::gemm
