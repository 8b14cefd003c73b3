// Tests for the shared thread pool (core/parallel.h), the thread-local
// scratch arena (core/workspace.h), and the determinism contract of the
// parallel code: the bulk kernels that split themselves into
// parallel_chunks chunks (wire codec, quantized reduce kernels, SGD step)
// must match an unpartitioned serial reference bitwise, and hitopk_comm /
// ring_allreduce executed on the pool must produce bitwise-identical
// RankData to serial execution.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "collectives/hitopkcomm.h"
#include "collectives/ring.h"
#include "compress/error_feedback.h"
#include "compress/wire_codec.h"
#include "core/half.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/tensor.h"
#include "core/workspace.h"
#include "pto/lars.h"

namespace hitopk {
namespace {

using coll::HiTopKOptions;
using compress::WireDtype;
using coll::RankData;
using simnet::Cluster;
using simnet::LinkParams;
using simnet::Topology;

// Restores the configured pool width when a test returns.
class ThreadGuard {
 public:
  ThreadGuard() : saved_(parallel_threads()) {}
  ~ThreadGuard() { set_parallel_threads(saved_); }

 private:
  int saved_;
};

// ------------------------------------------------------------- parallel_for
TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  ThreadGuard guard;
  set_parallel_threads(4);
  const size_t n = 10000;
  std::vector<int> visits(n, 0);
  parallel_for(0, n, [&](size_t i) { ++visits[i]; });
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(visits[i], 1) << "index " << i;
}

TEST(ParallelFor, HonorsBeginOffsetAndEmptyRange) {
  ThreadGuard guard;
  set_parallel_threads(4);
  std::atomic<size_t> sum{0};
  parallel_for(100, 200, [&](size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), (100u + 199u) * 100u / 2u);
  parallel_for(5, 5, [&](size_t) { FAIL() << "empty range ran"; });
  parallel_for(7, 3, [&](size_t) { FAIL() << "inverted range ran"; });
}

TEST(ParallelFor, SerialFallbackMatchesParallel) {
  ThreadGuard guard;
  const size_t n = 4096;
  std::vector<double> serial(n), parallel(n);
  set_parallel_threads(1);
  parallel_for(0, n, [&](size_t i) {
    serial[i] = static_cast<double>(i) * 1.5 + 2.0;
  });
  set_parallel_threads(8);
  parallel_for(0, n, [&](size_t i) {
    parallel[i] = static_cast<double>(i) * 1.5 + 2.0;
  });
  EXPECT_EQ(0, std::memcmp(serial.data(), parallel.data(),
                           n * sizeof(double)));
}

TEST(ParallelFor, PropagatesExceptions) {
  ThreadGuard guard;
  set_parallel_threads(4);
  EXPECT_THROW(
      parallel_for(0, 1000,
                   [&](size_t i) {
                     if (i == 777) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, NestedCallsRunInline) {
  ThreadGuard guard;
  set_parallel_threads(4);
  std::vector<int> visits(64 * 64, 0);
  parallel_for(0, 64, [&](size_t outer) {
    parallel_for(0, 64, [&](size_t inner) { ++visits[outer * 64 + inner]; });
  });
  for (int v : visits) ASSERT_EQ(v, 1);
}

TEST(ParallelFor, ShrinkingThreadCountTakesEffect) {
  ThreadGuard guard;
  // Grow the pool first, then shrink: iterations must run on at most the
  // configured number of distinct threads (workers beyond the width park).
  set_parallel_threads(8);
  parallel_for(0, 64, [](size_t) {});
  set_parallel_threads(2);
  std::mutex mutex;
  std::set<std::thread::id> seen;
  parallel_for(0, 256, [&](size_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    std::lock_guard<std::mutex> lock(mutex);
    seen.insert(std::this_thread::get_id());
  });
  EXPECT_LE(seen.size(), 2u);
}

TEST(ParallelFor, GrainLargerThanRangeRunsInline) {
  ThreadGuard guard;
  set_parallel_threads(4);
  std::vector<int> visits(10, 0);
  parallel_for(0, 10, [&](size_t i) { ++visits[i]; }, /*grain=*/100);
  for (int v : visits) ASSERT_EQ(v, 1);
}

// ---------------------------------------------------------- parallel_chunks
TEST(ParallelChunks, RunsEachFixedChunkOnce) {
  ThreadGuard guard;
  for (const int threads : {1, 4}) {
    set_parallel_threads(threads);
    for (const size_t n : {size_t{0}, size_t{1}, kParallelChunk,
                           kParallelChunk + 1, 3 * kParallelChunk + 5}) {
      std::vector<int> visits(n, 0);
      std::mutex mutex;
      std::set<std::pair<size_t, size_t>> chunks;
      parallel_chunks(n, [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) ++visits[i];
        std::lock_guard<std::mutex> lock(mutex);
        chunks.emplace(lo, hi);
      });
      for (int v : visits) ASSERT_EQ(v, 1);
      ASSERT_EQ(chunks.size(), parallel_chunk_count(n)) << "n=" << n;
      for (const auto& [lo, hi] : chunks) {
        EXPECT_EQ(lo % kParallelChunk, 0u);
        EXPECT_EQ(hi, std::min(n, lo + kParallelChunk));
      }
    }
  }
}

TEST(ParallelChunks, NestedCallsRunInline) {
  ThreadGuard guard;
  set_parallel_threads(4);
  const size_t n = 2 * kParallelChunk + 3;
  std::vector<std::vector<int>> visits(8, std::vector<int>(n, 0));
  parallel_for(0, visits.size(), [&](size_t outer) {
    const auto caller = std::this_thread::get_id();
    parallel_chunks(n, [&](size_t lo, size_t hi) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      for (size_t i = lo; i < hi; ++i) ++visits[outer][i];
    });
  });
  for (const auto& row : visits) {
    for (int v : row) ASSERT_EQ(v, 1);
  }
}

// The sizes every bulk kernel is checked at: tiny spans, every n % 4 tail,
// the 16-element SGD block edge, and spans around and across chunk edges.
const std::vector<size_t>& partition_sizes() {
  static const std::vector<size_t> sizes = {
      1, 2, 3, 6, 15, 16, 17, kParallelChunk - 1, kParallelChunk,
      kParallelChunk + 1, 3 * kParallelChunk + 5};
  return sizes;
}

// Gradient-like values N(0, 0.01) laced with the wire's edge cases: +-Inf,
// float and fp16 subnormals and -0 for every quantized wire; fp16
// round-to-nearest-even ties and the fp16 overflow tie; ties on the int8
// grid; and NaN payloads when `with_nan`.  The last element is 3.0, the
// largest finite magnitude, so the int8 scale (2^-5) comes from the last
// chunk.  kFp32 gets the plain mix.
std::vector<float> codec_inputs(WireDtype wire, size_t n, uint64_t seed,
                                bool with_nan = true) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal() * 0.01);
  if (wire == WireDtype::kFp32) return v;
  std::vector<float> specials = {
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      1e-40f,  // float subnormal
      -3e-6f,  // fp16 subnormal
      -0.0f,
  };
  if (wire == WireDtype::kFp16) {
    specials.insert(specials.end(), {
        std::bit_cast<float>(0x3f801000u),  // 1 + 2^-11: ties down to even
        std::bit_cast<float>(0x3f803000u),  // 1 + 3*2^-11: ties up to even
        std::bit_cast<float>(0x33000000u),  // 2^-25: subnormal tie to 0
        std::bit_cast<float>(0x33400000u),  // 3*2^-25: ties up to 2^-23
        65520.0f,                           // ties up to fp16 Inf
    });
  } else {
    specials.insert(specials.end(), {
        2.5f / 32.0f,   // 2.5 steps: rounds away to 3
        -6.5f / 32.0f,  // -6.5 steps: rounds away to -7
    });
  }
  size_t next = 0;
  for (size_t i = 5; i + 1 < n; i += 97) {
    v[i] = specials[next++ % specials.size()];
  }
  if (with_nan) {
    for (size_t i = 11; i + 1 < n; i += 1009) {
      v[i] = std::bit_cast<float>(i % 2 ? 0x7fc00123u : 0xff800001u);
    }
  }
  if (n > 1) v[n - 1] = 3.0f;
  return v;
}

// Serial, unpartitioned references: the scalar fp16 pair and the int8
// quantizer written out over the whole span.
void reference_round_trip(WireDtype wire, std::span<float> values) {
  if (wire == WireDtype::kFp16) {
    for (float& x : values) x = half_to_float(float_to_half(x));
  } else if (wire == WireDtype::kInt8) {
    float maxabs = 0.0f;
    for (float x : values) {
      if (std::isfinite(x) && std::fabs(x) > maxabs) maxabs = std::fabs(x);
    }
    if (maxabs == 0.0f) return;
    int e = 0;
    std::frexp(maxabs, &e);
    const float scale = std::ldexp(1.0f, e - 7);
    for (float& x : values) {
      if (!std::isfinite(x)) continue;
      const long q = std::clamp(std::lround(x / scale), -127l, 127l);
      x = static_cast<float>(q) * scale;
    }
  }
}

void expect_same_bits(std::span<const float> want, std::span<const float> got,
                      const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(want[i]), std::bit_cast<uint32_t>(got[i]))
        << what << " element " << i << " of " << want.size();
  }
}

std::string case_name(const char* kernel, WireDtype wire, size_t n,
                      int threads) {
  return std::string(kernel) + " " + compress::wire_dtype_name(wire) +
         " n=" + std::to_string(n) + " threads=" + std::to_string(threads);
}

TEST(ParallelChunks, WireRoundTripMatchesSerialReference) {
  ThreadGuard guard;
  for (const int threads : {1, 4}) {
    set_parallel_threads(threads);
    for (const WireDtype wire : {WireDtype::kFp16, WireDtype::kInt8}) {
      for (const size_t n : partition_sizes()) {
        std::vector<float> want = codec_inputs(wire, n, n);
        std::vector<float> got = want;
        reference_round_trip(wire, want);
        compress::wire_round_trip(wire, got);
        expect_same_bits(want, got, case_name("round_trip", wire, n, threads));
      }
    }
  }
}

// The fused quantized-reduce kernels against today's unfused sequence:
// copy -> wire_round_trip -> add_into.  NaN rides only in src: NaN + NaN
// keeps either payload depending on the operand order the compiler picks.
TEST(ParallelChunks, FusedReduceKernelsMatchTheUnfusedSequence) {
  ThreadGuard guard;
  for (const int threads : {1, 4}) {
    set_parallel_threads(threads);
    for (const WireDtype wire :
         {WireDtype::kFp32, WireDtype::kFp16, WireDtype::kInt8}) {
      for (const size_t n : partition_sizes()) {
        const std::vector<float> src = codec_inputs(wire, n, 2 * n + 1);
        const std::vector<float> dst =
            codec_inputs(wire, n, 2 * n + 2, /*with_nan=*/false);

        std::vector<float> want = src;  // dst = rt(src)
        reference_round_trip(wire, want);
        std::vector<float> got(n, 7.0f);
        compress::wire_round_copy(wire, got, src);
        expect_same_bits(want, got, case_name("round_copy", wire, n, threads));

        std::vector<float> staged = src;  // dst += rt(src)
        reference_round_trip(wire, staged);
        want = dst;
        tensor_ops::add_into(want, staged);
        got = dst;
        compress::wire_round_add(wire, got, src);
        expect_same_bits(want, got, case_name("round_add", wire, n, threads));

        want = dst;  // acc = rt(acc + src)
        tensor_ops::add_into(want, src);
        reference_round_trip(wire, want);
        got = dst;
        compress::wire_sum_round(wire, got, src);
        expect_same_bits(want, got, case_name("sum_round", wire, n, threads));
      }
    }
  }
}

TEST(ParallelChunks, SgdStepMatchesSerialReference) {
  ThreadGuard guard;
  const float momentum = 0.9f;
  const float weight_decay = 1e-4f;
  const float lr = 0.05f;
  for (const int threads : {1, 4}) {
    set_parallel_threads(threads);
    for (const size_t n : partition_sizes()) {
      const std::vector<float> w0 =
          codec_inputs(WireDtype::kFp32, n, 3 * n + 1);
      const std::vector<float> g0 =
          codec_inputs(WireDtype::kFp32, n, 3 * n + 2);
      const std::vector<float> g1 =
          codec_inputs(WireDtype::kFp32, n, 3 * n + 3);
      std::vector<float> want_w = w0;
      std::vector<float> want_v(n, 0.0f);
      for (const auto* g : {&g0, &g1}) {
        for (size_t i = 0; i < n; ++i) {
          want_v[i] =
              momentum * want_v[i] + ((*g)[i] + weight_decay * want_w[i]);
          want_w[i] -= lr * want_v[i];
        }
      }
      pto::SgdOptimizer sgd(momentum, weight_decay);
      std::vector<float> w = w0;
      sgd.step("p", w, g0, lr);  // second step: warm momentum
      sgd.step("p", w, g1, lr);
      const std::string what = "sgd n=" + std::to_string(n) +
                               " threads=" + std::to_string(threads);
      expect_same_bits(want_w, w, what);
      expect_same_bits(want_v, sgd.state("p"), what + " velocity");
    }
  }
}

// --------------------------------------------------------------- workspace
TEST(Workspace, BuffersAreReturnedAndReused) {
  workspace_clear();
  EXPECT_EQ(workspace_cached_buffers(), 0u);
  const float* first_data = nullptr;
  {
    Scratch<float> a(1024);
    first_data = a.data();
    EXPECT_EQ(a.size(), 1024u);
  }
  EXPECT_EQ(workspace_cached_buffers(), 1u);
  {
    // Same thread, same type: the returned buffer (and its allocation) is
    // handed back out.
    Scratch<float> b(512);
    EXPECT_EQ(b.data(), first_data);
    EXPECT_EQ(workspace_cached_buffers(), 0u);
  }
  workspace_clear();
}

TEST(Workspace, ZeroedCheckoutIsZero) {
  {
    Scratch<float> dirty(256);
    for (size_t i = 0; i < dirty.size(); ++i) dirty[i] = 1.0f;
  }
  Scratch<float> clean(256, /*zeroed=*/true);
  for (size_t i = 0; i < clean.size(); ++i) ASSERT_EQ(clean[i], 0.0f);
}

TEST(Workspace, NestedCheckoutsAreDistinct) {
  Scratch<uint32_t> outer(100);
  Scratch<uint32_t> inner(100);
  EXPECT_NE(outer.data(), inner.data());
}

// ------------------------------------------------- collective determinism
Topology fabric(int nodes, int gpus) {
  return Topology(nodes, gpus, LinkParams{1e-6, 1e-9}, LinkParams{1e-5, 1e-8});
}

std::vector<Tensor> random_grads(int world, size_t elems, uint64_t seed) {
  std::vector<Tensor> grads;
  Rng rng(seed);
  for (int r = 0; r < world; ++r) {
    Tensor t(elems);
    t.fill_normal(rng, 0.0f, 1.0f);
    grads.push_back(std::move(t));
  }
  return grads;
}

// Runs functional hitopk_comm over a copy of `grads` with the given pool
// width and returns the per-rank buffers: the aggregate in rank 0's, step
// 1's partial sums in the others.
std::vector<Tensor> run_hitopk(const std::vector<Tensor>& grads, size_t elems,
                               const Topology& topo,
                               const HiTopKOptions& options, int threads,
                               compress::ErrorFeedback* ef = nullptr) {
  set_parallel_threads(threads);
  std::vector<Tensor> copy = grads;
  RankData spans;
  for (auto& g : copy) spans.push_back(g.span());
  Cluster cluster(topo);
  HiTopKOptions opts = options;
  opts.error_feedback = ef;
  coll::hitopk_comm(cluster, spans, elems, opts, 0.0);
  return copy;
}

void expect_bitwise_equal(const std::vector<Tensor>& a,
                          const std::vector<Tensor>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t r = 0; r < a.size(); ++r) {
    ASSERT_EQ(a[r].size(), b[r].size());
    ASSERT_EQ(0, std::memcmp(a[r].data(), b[r].data(),
                             a[r].size() * sizeof(float)))
        << "rank " << r << " diverged";
  }
}

// The {8, 8, 4, 4} spot fleet: a GPU of a 4-GPU node owns two of the eight
// shards, so the per-(shard, node) selection units outnumber its ranks.
Topology fleet_8844() {
  return Topology(std::vector<int>{8, 8, 4, 4}, LinkParams{1e-6, 1e-9},
                  LinkParams{1e-5, 1e-8});
}

TEST(ParallelDeterminism, HiTopKCommMatchesSerialBitwise) {
  ThreadGuard guard;
  for (const Topology& topo : {fabric(3, 4), fleet_8844()}) {
    SCOPED_TRACE(topo.world_size());
    const size_t elems = 1 << 13;
    const auto grads = random_grads(topo.world_size(), elems, 301);
    HiTopKOptions options;
    options.density = 0.01;

    const auto serial = run_hitopk(grads, elems, topo, options, 1);
    const auto parallel = run_hitopk(grads, elems, topo, options, 8);
    expect_bitwise_equal(serial, parallel);
  }
}

TEST(ParallelDeterminism, HiTopKCommLegacyOperatorMatchesSerialBitwise) {
  ThreadGuard guard;
  const Topology topo = fabric(2, 4);
  const size_t elems = 1 << 12;
  const auto grads = random_grads(topo.world_size(), elems, 307);
  HiTopKOptions options;
  options.density = 0.01;
  options.mstopk_histogram = false;

  const auto serial = run_hitopk(grads, elems, topo, options, 1);
  const auto parallel = run_hitopk(grads, elems, topo, options, 8);
  expect_bitwise_equal(serial, parallel);
}

TEST(ParallelDeterminism, HiTopKCommWithErrorFeedbackMatchesSerialBitwise) {
  ThreadGuard guard;
  for (const Topology& topo : {fabric(2, 2), fleet_8844()}) {
    SCOPED_TRACE(topo.world_size());
    const size_t elems = 1 << 12;
    HiTopKOptions options;
    options.density = 0.01;

    // Two iterations so the second run consumes residuals written by the
    // first: both the residual state and the aggregated output must match.
    compress::ErrorFeedback ef_serial;
    compress::ErrorFeedback ef_parallel;
    std::vector<Tensor> out_serial, out_parallel;
    for (uint64_t step = 0; step < 2; ++step) {
      const auto grads = random_grads(topo.world_size(), elems, 311 + step);
      out_serial = run_hitopk(grads, elems, topo, options, 1, &ef_serial);
      out_parallel = run_hitopk(grads, elems, topo, options, 8, &ef_parallel);
    }
    expect_bitwise_equal(out_serial, out_parallel);
    EXPECT_EQ(ef_serial.num_tensors(), ef_parallel.num_tensors());
    EXPECT_EQ(ef_serial.residual_sq_norm(), ef_parallel.residual_sq_norm());
  }
}

TEST(ParallelDeterminism, HiTopKCommHandlesFewerElemsThanGpus) {
  // Regression: with elems < gpus_per_node some shards are empty; their
  // streams are skipped but must still contribute valid (empty) sparse
  // tensors to the rebuild instead of default dense_size-0 ones.
  ThreadGuard guard;
  set_parallel_threads(1);
  const Topology topo = fabric(2, 4);
  const size_t elems = 3;
  const auto grads = random_grads(topo.world_size(), elems, 317);
  HiTopKOptions options;
  options.density = 0.5;
  const auto out = run_hitopk(grads, elems, topo, options, 1);
  // Each non-empty shard holds one element and k~ = 1, so every element is
  // selected: rank 0 holds the dense aggregate, as at density 1.
  HiTopKOptions dense = options;
  dense.density = 1.0;
  const auto dense_out = run_hitopk(grads, elems, topo, dense, 1);
  for (size_t i = 0; i < elems; ++i) {
    ASSERT_EQ(out[0][i], dense_out[0][i]);
    ASSERT_NE(out[0][i], 0.0f);
  }

  // GPU 3 of each node owns the empty shard 3: it selects nothing, so it
  // holds no residual entry...
  compress::ErrorFeedback ef;
  run_hitopk(grads, elems, topo, options, 1, &ef);
  EXPECT_EQ(ef.num_tensors(), 6u);
  EXPECT_TRUE(ef.has("grad:2"));
  EXPECT_FALSE(ef.has("grad:3"));
  EXPECT_FALSE(ef.has("grad:7"));

  // ...and contributes no step-4 block, not even an int8 scale record.
  options.value_wire = coll::WireDtype::kInt8;
  std::vector<Tensor> copy = grads;
  RankData spans;
  for (auto& g : copy) spans.push_back(g.span());
  Cluster cluster(topo);
  coll::hitopk_comm(cluster, spans, elems, options, 0.0);
  EXPECT_EQ(cluster.intra_node_bytes(), 276u);
}

TEST(ParallelDeterminism, RingAllreduceMatchesSerialBitwise) {
  ThreadGuard guard;
  const Topology topo = fabric(1, 8);
  const size_t elems = 4096;
  const auto grads = random_grads(topo.world_size(), elems, 313);
  const coll::Group world = coll::world_group(topo);

  auto run = [&](int threads) {
    set_parallel_threads(threads);
    std::vector<Tensor> copy = grads;
    RankData spans;
    for (auto& g : copy) spans.push_back(g.span());
    Cluster cluster(topo);
    coll::ring_allreduce(cluster, world, spans, elems, coll::WireDtype::kFp32, 0.0);
    return copy;
  };
  expect_bitwise_equal(run(1), run(8));
}

}  // namespace
}  // namespace hitopk
