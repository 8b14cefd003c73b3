// gTop-k: global top-k sparse aggregation (Shi et al. 2019c, cited in §6).
//
// A tree/hypercube alternative to both NaiveAG and HiTopKComm: every rank
// selects its local top-k, then in log2(P) recursive-doubling rounds pairs
// exchange their k (value, index) entries, sum coincident indices, and
// re-select the top-k of the merge.  All ranks end with the *same* global
// top-k approximation of the gradient sum, moving only O(k log P) bytes per
// rank — less traffic than NaiveAG's O(kP) but with log P rounds of
// re-selection (and more selection bias, since mass outside the running
// top-k is dropped at every merge unless error feedback catches it).
//
// Non-power-of-two worlds run a documented pre-fold: with q the largest
// power of two <= P and rem = P - q, the rem extra ranks first fold their
// selections into ranks 0..rem-1 (one merge round), the q-rank hypercube
// runs the recursive doubling, and a final unfold round sends the result
// back to the extra ranks.  `rounds` counts every exchange round:
// log2(q) + 2 when rem > 0, log2(P) otherwise.
//
// Like the other collectives, the timed exchange is a recorded transfer
// schedule (collectives/schedule.h); each merge sums into a workspace-backed
// dense accumulator and re-selects (outputs pinned by the golden rows in
// tests/collective_golden.inc).
#pragma once

#include "collectives/common.h"
#include "compress/error_feedback.h"
#include "compress/sparse_tensor.h"

namespace hitopk::coll {

struct GtopkOptions {
  // Elements each rank keeps at every merge (k = density * d).
  double density = 0.01;
  size_t value_wire_bytes = 4;
  // Optional error feedback applied to the local selection (functional
  // mode); keys are "<ef_key_prefix>:<rank>".
  compress::ErrorFeedback* error_feedback = nullptr;
  std::string ef_key_prefix = "gtopk";
  uint64_t seed = 42;
};

struct GtopkResult {
  double total = 0.0;
  size_t rounds = 0;
  size_t final_nnz = 0;
};

// In-place global top-k aggregation over the whole cluster (any world
// size; non-powers-of-two pay one fold and one unfold round).  Functional
// mode: each data[rank] (full d elements) is replaced by the identical
// global top-k of the sum.  Timing-only mode: data empty.
GtopkResult gtopk_comm(simnet::Cluster& cluster, const RankData& data,
                       size_t elems, const GtopkOptions& options, double start);

}  // namespace hitopk::coll
