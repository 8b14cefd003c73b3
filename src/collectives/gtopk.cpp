#include "collectives/gtopk.h"

#include <algorithm>
#include <cmath>

#include "collectives/schedule.h"
#include "compress/exact_topk.h"
#include "core/parallel.h"
#include "core/workspace.h"

namespace hitopk::coll {
namespace {

int floor_pow2(int v) {
  int q = 1;
  while (q * 2 <= v) q *= 2;
  return q;
}

// Sums two sparse tensors and keeps the top-k of the result.  The dense
// accumulator comes from the thread-local workspace pool (no allocation at
// steady state) and one fused accumulate_into adds every coordinate as
// (0 + a) + b: a's entries first, then b's.
compress::SparseTensor merge_topk(const compress::SparseTensor& a,
                                  const compress::SparseTensor& b, size_t k) {
  HITOPK_CHECK_EQ(a.dense_size, b.dense_size);
  Scratch<float> dense(a.dense_size);
  const compress::SparseTensor* parts[2] = {&a, &b};
  compress::accumulate_into(parts, dense.span());
  return compress::exact_topk(dense.span(), k);
}

struct GtopkShape {
  int p = 0;    // world size
  int q = 0;    // hypercube size: largest power of two <= p
  int rem = 0;  // ranks folded in before / out after the hypercube
};

// One schedule: fold step, log2(q) hypercube steps, unfold step; each
// round's sends start from the previous round's per-rank readiness.  The
// functional merges run per round on the parallel_for pool: each rank's
// merge reads the previous round's state and writes its own slot, so the
// rounds are bitwise-identical to running the merges serially.
double schedule_gtopk(simnet::Cluster& cluster, const GtopkShape& shape,
                      size_t payload, size_t k,
                      std::vector<compress::SparseTensor>& state,
                      double start, size_t& rounds) {
  const auto [p, q, rem] = shape;
  const bool functional = !state.empty();

  Schedule sched;
  const uint32_t slot0 = sched.add_slots(static_cast<uint32_t>(p));
  auto slot = [&](int r) { return slot0 + static_cast<uint32_t>(r); };

  if (rem > 0) {
    ++rounds;
    for (int r = 0; r < rem; ++r) {
      sched.send(q + r, r, payload, slot(q + r), slot(r));
    }
    sched.end_step();
  }
  for (int gap = 1; gap < q; gap <<= 1) {
    ++rounds;
    for (int r = 0; r < q; ++r) {
      sched.send(r, r ^ gap, payload, slot(r), slot(r ^ gap));
    }
    sched.end_step();
  }
  if (rem > 0) {
    ++rounds;
    for (int r = 0; r < rem; ++r) {
      sched.send(r, q + r, payload, slot(r), slot(q + r));
    }
    sched.end_step();
  }
  const double done = sched.run_timing(cluster, start).finish;

  if (functional) {
    if (rem > 0) {
      parallel_for(0, static_cast<size_t>(rem), [&](size_t r) {
        state[r] = merge_topk(state[r], state[static_cast<size_t>(q) + r], k);
      });
    }
    std::vector<compress::SparseTensor> merged(static_cast<size_t>(q));
    for (int gap = 1; gap < q; gap <<= 1) {
      parallel_for(0, static_cast<size_t>(q), [&](size_t r) {
        merged[r] =
            merge_topk(state[r], state[r ^ static_cast<size_t>(gap)], k);
      });
      for (int r = 0; r < q; ++r) {
        std::swap(state[static_cast<size_t>(r)],
                  merged[static_cast<size_t>(r)]);
      }
    }
    if (rem > 0) {
      parallel_for(0, static_cast<size_t>(rem), [&](size_t r) {
        state[static_cast<size_t>(q) + r] = state[r];
      });
    }
  }
  return done;
}

}  // namespace

GtopkResult gtopk_comm(simnet::Cluster& cluster, const RankData& data,
                       size_t elems, const GtopkOptions& options,
                       double start) {
  HITOPK_VALIDATE(options.density > 0.0 && options.density <= 1.0)
      << "gtopk_comm density must lie in (0, 1]; got" << options.density;
  const simnet::Topology& topo = cluster.topology();
  GtopkShape shape;
  shape.p = topo.world_size();
  shape.q = floor_pow2(shape.p);
  shape.rem = shape.p - shape.q;
  const bool functional = !data.empty();
  check_data(world_group(topo), data, elems);

  const size_t k = std::max<size_t>(
      1, static_cast<size_t>(std::llround(options.density *
                                          static_cast<double>(elems))));
  const size_t payload = k * (options.value_wire_bytes + 4);

  GtopkResult out;

  // Local selection (with optional error feedback).  Ranks are independent
  // — per-rank EF entries are pre-created so the pool workers only look
  // them up — and each iteration is deterministic, so the parallel run is
  // bitwise identical to the serial loop (same argument as HiTopKComm's
  // selection step).
  std::vector<compress::SparseTensor> state(
      functional ? static_cast<size_t>(shape.p) : 0);
  if (functional) {
    std::vector<std::string> ef_keys;
    if (options.error_feedback != nullptr) {
      ef_keys.resize(static_cast<size_t>(shape.p));
      for (int r = 0; r < shape.p; ++r) {
        ef_keys[static_cast<size_t>(r)] =
            options.ef_key_prefix + ":" + std::to_string(r);
        options.error_feedback->ensure(ef_keys[static_cast<size_t>(r)], elems);
      }
    }
    parallel_for(0, static_cast<size_t>(shape.p), [&](size_t r) {
      auto grad = data[r];
      // Fused EF exchange (grad untouched between compensation and
      // absorption; see ErrorFeedback::apply_priming).
      if (options.error_feedback != nullptr) {
        options.error_feedback->apply_priming(ef_keys[r], grad);
      }
      state[r] = compress::exact_topk(grad, k);
      if (options.error_feedback != nullptr) {
        options.error_feedback->absorb_primed(ef_keys[r], state[r]);
      }
    });
  }

  const double done =
      schedule_gtopk(cluster, shape, payload, k, state, start, out.rounds);
  out.total = done - start;

  if (functional) {
    out.final_nnz = state[0].nnz();
    parallel_for(0, static_cast<size_t>(shape.p), [&](size_t r) {
      auto dst = data[r];
      std::fill(dst.begin(), dst.end(), 0.0f);
      state[r].scatter_add_into(dst);
    });
  } else {
    out.final_nnz = k;
  }
  return out;
}

}  // namespace hitopk::coll
