// Golden outputs of the top-k selection operators.
//
// Each row pins one (operator, input, k) case:
//   - an FNV-1a 64 digest over the selected indices and values (the raw
//     bytes, so -0.0 vs 0.0 counts); MSTopK rows also fold in the bracket
//     counts k1/k2 and the sampling count, and cover two consecutive
//     compress() calls on one object, so the RNG continuation is pinned;
//   - two hexfloat thresholds: MSTopK's thres1/thres2, or the k-th
//     magnitude for exact_topk_threshold (0 elsewhere).
//
// The rows live in selection_golden.inc.  When a case disagrees with its
// row, the failure message prints the actual row in table syntax; after
// confirming the change is intended, paste it over the old row.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "compress/dgc_topk.h"
#include "compress/exact_topk.h"
#include "compress/mstopk.h"
#include "core/rng.h"
#include "core/tensor.h"
#include "train/checkpoint.h"

namespace hitopk::compress {
namespace {

struct Row {
  std::string name;
  uint64_t digest = 0;
  float thres1 = 0.0f;
  float thres2 = 0.0f;
};

const std::vector<Row>& table() {
  static const std::vector<Row> rows = {
#include "selection_golden.inc"
  };
  return rows;
}

std::string format(const Row& row) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "{\"%s\", 0x%016" PRIx64 "ull, %af, %af},",
                row.name.c_str(), row.digest, row.thres1, row.thres2);
  return buf;
}

void expect_golden(const Row& actual) {
  for (const Row& want : table()) {
    if (want.name != actual.name) continue;
    if (want.digest != actual.digest ||
        std::bit_cast<uint32_t>(want.thres1) !=
            std::bit_cast<uint32_t>(actual.thres1) ||
        std::bit_cast<uint32_t>(want.thres2) !=
            std::bit_cast<uint32_t>(actual.thres2)) {
      ADD_FAILURE() << "golden row mismatch for " << actual.name
                    << "\n  table:  " << format(want)
                    << "\n  actual: " << format(actual);
    }
    return;
  }
  ADD_FAILURE() << "no golden row named " << actual.name
                << "\n  actual: " << format(actual);
}

template <typename T>
uint64_t fold(const T* data, size_t n, uint64_t hash) {
  return train::fnv1a64(
      {reinterpret_cast<const uint8_t*>(data), n * sizeof(T)}, hash);
}

uint64_t fold(const SparseTensor& s, uint64_t hash) {
  hash = fold(s.indices.data(), s.indices.size(), hash);
  return fold(s.values.data(), s.values.size(), hash);
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

struct NamedInput {
  std::string name;
  Tensor x;
};

Tensor gaussian(size_t d, uint64_t seed) {
  Rng rng(seed);
  Tensor x(d);
  x.fill_normal(rng, 0.0f, 1e-3f);
  return x;
}

// Seeded inputs: the bench/e2e gradient shard size, sizes straddling
// kHistogramMinSize, and the adversarial bit patterns.
const std::vector<NamedInput>& inputs() {
  static const std::vector<NamedInput> all = [] {
    std::vector<NamedInput> v;
    v.push_back({"normal292608", gaussian(292608, 2301)});
    v.push_back({"normal2047", gaussian(2047, 2302)});
    v.push_back({"normal2048", gaussian(2048, 2303)});
    v.push_back({"normal2049", gaussian(2049, 2304)});
    {
      // Heavy ties: three magnitudes, so selection turns on the index
      // tie-break and MSTopK's band is mostly one value.
      Rng rng(2305);
      Tensor x(8192);
      for (size_t i = 0; i < x.size(); ++i) {
        const uint64_t r = rng.uniform_index(3);
        x[i] = r == 0 ? 0.5f : r == 1 ? -2.0f : 8.0f;
      }
      v.push_back({"ties8192", std::move(x)});
    }
    {
      Tensor x(4096);
      x.fill(-3.25f);
      v.push_back({"equal4096", std::move(x)});
    }
    {
      // Subnormals of both signs mixed with signed zeros.
      Rng rng(2307);
      Tensor x(4096);
      for (size_t i = 0; i < x.size(); ++i) {
        const uint64_t r = rng.uniform_index(5);
        x[i] = r == 0   ? 0.0f
               : r == 1 ? -0.0f
               : r == 2 ? static_cast<float>(1 + rng.uniform_index(7)) *
                            1.0e-40f
               : r == 3 ? -1.2e-40f
                        : 1.4e-45f;
      }
      v.push_back({"subnormal4096", std::move(x)});
    }
    {
      // Mostly signed zeros with a sparse Gaussian spike set.
      Rng rng(2308);
      Tensor x(3000);
      for (size_t i = 0; i < x.size(); ++i) {
        x[i] = rng.uniform_index(2) == 0 ? 0.0f : -0.0f;
        if (rng.uniform_index(50) == 0) {
          x[i] = static_cast<float>(rng.normal(0.0, 1.0));
        }
      }
      v.push_back({"signedzero3000", std::move(x)});
    }
    return v;
  }();
  return all;
}

// k in {1, 1%, d - 1}.
std::vector<std::pair<std::string, size_t>> ks(size_t d) {
  return {{"k1", 1},
          {"k1pct", std::max<size_t>(1, d / 100)},
          {"kdm1", d - 1}};
}

void for_each_case(
    const std::string& op,
    const std::function<Row(std::span<const float>, size_t)>& run) {
  for (const NamedInput& in : inputs()) {
    for (const auto& [k_name, k] : ks(in.x.size())) {
      Row row = run(in.x.span(), k);
      row.name = op + "/" + in.name + "/" + k_name;
      expect_golden(row);
    }
  }
}

Row mstopk_row(MsTopKMode mode, std::span<const float> x, size_t k) {
  MsTopK op(30, 77, mode);
  uint64_t hash = kFnvBasis;
  for (int call = 0; call < 2; ++call) {
    hash = fold(op.compress(x, k), hash);
    const MsTopKStats& s = op.last_stats();
    const uint64_t counts[] = {s.k1, s.k2,
                               static_cast<uint64_t>(s.samplings)};
    hash = fold(counts, 3, hash);
  }
  return {"", hash, op.last_stats().thres1, op.last_stats().thres2};
}

TEST(SelectionGolden, ExactTopK) {
  for_each_case("exact_topk", [](std::span<const float> x, size_t k) {
    return Row{"", fold(exact_topk(x, k), kFnvBasis)};
  });
}

TEST(SelectionGolden, ExactTopKThreshold) {
  for_each_case("exact_topk_threshold",
                [](std::span<const float> x, size_t k) {
                  return Row{"", 0, exact_topk_threshold(x, k)};
                });
}

TEST(SelectionGolden, MsTopKHistogram) {
  for_each_case("mstopk", [](std::span<const float> x, size_t k) {
    return mstopk_row(MsTopKMode::kHistogram, x, k);
  });
}

TEST(SelectionGolden, MsTopKMultiPass) {
  for_each_case("mstopk_multipass", [](std::span<const float> x, size_t k) {
    return mstopk_row(MsTopKMode::kMultiPass, x, k);
  });
}

TEST(SelectionGolden, DgcTopK) {
  for_each_case("dgc", [](std::span<const float> x, size_t k) {
    DgcTopK op(0.01, 77);
    uint64_t hash = fold(op.compress(x, k), kFnvBasis);
    hash = fold(op.compress(x, k), hash);
    return Row{"", hash};
  });
}

// Every row is checked by one of the cases above.
TEST(SelectionGolden, TableHasNoStaleRows) {
  size_t cases = 0;
  for (const NamedInput& in : inputs()) cases += ks(in.x.size()).size();
  EXPECT_EQ(table().size(), 5 * cases);
}

}  // namespace
}  // namespace hitopk::compress
