// Golden outputs of the collectives, recorded from the per-hop reference
// loops the schedule engine replaced.
//
// Each row pins one test case:
//   - an FNV-1a 64 digest over every rank buffer after the call, in rank
//     order (the raw float bytes, so -0.0 vs 0.0 and NaN payloads count);
//   - every returned clock and breakdown field, in the result struct's
//     field order;
//   - the clock of the same call with no buffers (timing-only);
//   - the error-feedback residual norm (0 without error feedback);
//   - gTop-k's exchange rounds and final nonzero count (0 elsewhere).
// Doubles are written as hexfloats, so every comparison is exact.
//
// The rows live in collective_golden.inc.  When a case disagrees with its
// row, the failure message prints the actual row in table syntax; after
// confirming the change is intended, paste it over the old row.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/tensor.h"
#include "train/checkpoint.h"

namespace hitopk::golden {

struct Row {
  std::string name;
  uint64_t digest = 0;
  std::vector<double> clocks;
  double timing_only = 0.0;
  double residual_sq_norm = 0.0;
  size_t rounds = 0;
  size_t final_nnz = 0;
};

inline uint64_t digest(const std::vector<Tensor>& buffers) {
  uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  for (const Tensor& t : buffers) {
    hash = train::fnv1a64(
        {reinterpret_cast<const uint8_t*>(t.data()), t.size() * sizeof(float)},
        hash);
  }
  return hash;
}

inline std::string hexfloat(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

// One row in the syntax of collective_golden.inc.
inline std::string format(const Row& row) {
  char digest_hex[24];
  std::snprintf(digest_hex, sizeof digest_hex, "0x%016" PRIx64 "ull",
                row.digest);
  std::string out = "{\"" + row.name + "\", " + digest_hex + ", {";
  for (size_t i = 0; i < row.clocks.size(); ++i) {
    out += (i == 0 ? "" : ", ") + hexfloat(row.clocks[i]);
  }
  out += "}, " + hexfloat(row.timing_only) + ", " +
         hexfloat(row.residual_sq_norm) + ", " + std::to_string(row.rounds) +
         ", " + std::to_string(row.final_nnz) + "},";
  return out;
}

inline const std::vector<Row>& table() {
  static const std::vector<Row> rows = {
#include "collective_golden.inc"
  };
  return rows;
}

inline bool same_bits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

inline bool same_row(const Row& a, const Row& b) {
  if (a.digest != b.digest || a.clocks.size() != b.clocks.size() ||
      !same_bits(a.timing_only, b.timing_only) ||
      !same_bits(a.residual_sq_norm, b.residual_sq_norm) ||
      a.rounds != b.rounds || a.final_nnz != b.final_nnz) {
    return false;
  }
  for (size_t i = 0; i < a.clocks.size(); ++i) {
    if (!same_bits(a.clocks[i], b.clocks[i])) return false;
  }
  return true;
}

// Fails the current test unless `actual` equals its table row exactly.
inline void expect_golden(const Row& actual) {
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

}  // namespace hitopk::golden
