#include "collectives/schedule.h"

#include <algorithm>

#include "core/parallel.h"
#include "core/tensor.h"
#include "core/workspace.h"

namespace hitopk::coll {

namespace {

// Worker-local chain-reduction accumulator (see TransferOp::kChain*).
std::vector<float>& chain_acc() {
  thread_local std::vector<float> acc;
  return acc;
}

// Single-pass execution of a whole fp32 reduction chain: per element the
// partial sum lives in a register from the first source to the final
// destination add, replacing the accumulator's (N+1) memory passes with one.
// The float-add order is identical to the kChainFirst/Mid/Last sequence
// (s0 + s1 + ... left-associated, destination last), so the result is
// bitwise the same — this is purely a memory-traffic optimization, which is
// why run_data may pick either form per chain.
template <int N>
void fused_chain_kernel(float* dst, const float* const* srcs, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    float t = srcs[0][i];
    for (int k = 1; k < N; ++k) t += srcs[k][i];
    dst[i] += t;
  }
}

using FusedChainFn = void (*)(float*, const float* const*, size_t);

// Chains longer than this fall back to the accumulator (the register
// pressure and dispatch table stop paying off; the accumulator's relative
// overhead also shrinks as chains grow).
constexpr int kMaxFusedChain = 8;

constexpr FusedChainFn kFusedChain[kMaxFusedChain + 1] = {
    nullptr,
    fused_chain_kernel<1>, fused_chain_kernel<2>, fused_chain_kernel<3>,
    fused_chain_kernel<4>, fused_chain_kernel<5>, fused_chain_kernel<6>,
    fused_chain_kernel<7>, fused_chain_kernel<8>,
};

}  // namespace

uint32_t Schedule::add_slots(uint32_t n) {
  const uint32_t first = num_slots_;
  num_slots_ += n;
  return first;
}

uint32_t Schedule::add_buffer(RankSpan span, WireDtype wire) {
  buffers_.push_back(span);
  buffer_wires_.push_back(wire);
  return static_cast<uint32_t>(buffers_.size() - 1);
}

void Schedule::send(int src, int dst, size_t bytes, uint32_t src_slot,
                    uint32_t dst_slot, double extra_seconds) {
  HITOPK_CHECK_LT(src_slot, num_slots_);
  HITOPK_CHECK_LT(dst_slot, num_slots_);
  sends_.push_back({step_, src, dst, src_slot, dst_slot, bytes, extra_seconds});
}

void Schedule::move(TransferOp op, uint32_t src_buf, uint32_t dst_buf,
                    size_t begin, size_t count, uint32_t bucket) {
  HITOPK_CHECK_LT(src_buf, buffers_.size());
  HITOPK_CHECK_LT(dst_buf, buffers_.size());
  if (bucket == kBucketDst) bucket = dst_buf;
  HITOPK_CHECK_LT(bucket, buffers_.size());
  if (count == 0) return;
  moves_.push_back({step_, op, src_buf, dst_buf, bucket, begin, count});
}

void Schedule::end_step() { ++step_; }

void Schedule::sync(bool collapse) { syncs_.push_back({step_, collapse}); }

ScheduleOutcome Schedule::run_timing(simnet::Cluster& cluster, double start,
                                     int job) const {
  ScheduleOutcome out;
  out.sync_times.reserve(syncs_.size());
  // clock = slot readiness at the last step boundary; next = in-progress
  // updates, committed at the next boundary.
  Scratch<double> clock_buf(num_slots_);
  Scratch<double> next_buf(num_slots_);
  auto clock = clock_buf.span();
  auto next = next_buf.span();
  std::fill(clock.begin(), clock.end(), start);

  auto running_max = [&](std::span<double> slots) {
    double best = start;
    for (double t : slots) best = std::max(best, t);
    return best;
  };

  size_t sync_cursor = 0;
  size_t i = 0;
  while (i < sends_.size() || sync_cursor < syncs_.size()) {
    // Next step boundary: the smaller of the next send's and next sync's
    // step (syncs at a step apply before its sends).
    uint32_t step;
    if (i < sends_.size() && sync_cursor < syncs_.size()) {
      step = std::min(sends_[i].step, syncs_[sync_cursor].step);
    } else if (i < sends_.size()) {
      step = sends_[i].step;
    } else {
      step = syncs_[sync_cursor].step;
    }
    while (sync_cursor < syncs_.size() && syncs_[sync_cursor].step <= step) {
      const double t = running_max(clock);
      out.sync_times.push_back(t);
      if (syncs_[sync_cursor].collapse) {
        std::fill(clock.begin(), clock.end(), t);
      }
      ++sync_cursor;
    }
    if (i >= sends_.size()) break;
    std::copy(clock.begin(), clock.end(), next.begin());
    for (; i < sends_.size() && sends_[i].step == step; ++i) {
      const Send& t = sends_[i];
      const simnet::FlowOutcome sent = cluster.submit(
          {job, t.src, t.dst, t.bytes, clock[t.src_slot], t.extra_seconds});
      next[t.dst_slot] = std::max(next[t.dst_slot], sent.time);
    }
    std::swap(clock, next);
  }
  out.finish = running_max(clock);
  return out;
}

void Schedule::run_data() const {
  if (buffers_.empty() || moves_.empty()) return;
  // Per step: group moves by bucket key (destination buffer by default).
  // Buckets write disjoint (buffer, range) sets, so they run concurrently;
  // a bucket's moves apply in recorded order, so reductions into one
  // buffer keep their recorded float-add order.
  Scratch<uint32_t> bucket_of_buf(buffers_.size());
  auto bucket_of = bucket_of_buf.span();
  const uint32_t kNone = UINT32_MAX;
  std::vector<std::vector<uint32_t>> buckets;  // move indices, issue order
  size_t i = 0;
  while (i < moves_.size()) {
    const uint32_t step = moves_[i].step;
    size_t end = i;
    while (end < moves_.size() && moves_[end].step == step) ++end;
    std::fill(bucket_of.begin(), bucket_of.end(), kNone);
    size_t n_buckets = 0;
    for (size_t m = i; m < end; ++m) {
      const uint32_t key = moves_[m].bucket;
      if (bucket_of[key] == kNone) {
        bucket_of[key] = static_cast<uint32_t>(n_buckets++);
        if (buckets.size() < n_buckets) buckets.emplace_back();
        buckets[n_buckets - 1].clear();
      }
      buckets[bucket_of[key]].push_back(static_cast<uint32_t>(m));
    }
    // Recognizes a whole fp32 chain recorded contiguously in this bucket
    // (kChainFirst, kChainMid*, kChainLast over one range) and returns the
    // number of moves it consumed after running it through the single-pass
    // fused kernel; 0 means "not fusable, execute move-by-move".  Quantized
    // chains always take the accumulator path: the codec needs the whole
    // partial-sum shard (int8 derives its scale from the shard max) between
    // links, which a per-element register pass cannot provide.
    auto try_fused_chain = [&](const std::vector<uint32_t>& list,
                               size_t pos) -> size_t {
      const Move& first = moves_[list[pos]];
      if (buffer_wires_[first.dst_buf] != WireDtype::kFp32) return 0;
      const float* srcs[kMaxFusedChain];
      srcs[0] = buffers_[first.src_buf].data() + first.begin;
      int n = 1;
      for (size_t j = pos + 1; j < list.size(); ++j) {
        const Move& link = moves_[list[j]];
        if (link.dst_buf != first.dst_buf || link.begin != first.begin ||
            link.count != first.count) {
          return 0;
        }
        if (link.op == TransferOp::kChainMid) {
          if (n == kMaxFusedChain) return 0;
          srcs[n++] = buffers_[link.src_buf].data() + link.begin;
          continue;
        }
        if (link.op != TransferOp::kChainLast) return 0;
        kFusedChain[n](buffers_[first.dst_buf].data() + first.begin, srcs,
                       first.count);
        return j - pos + 1;
      }
      return 0;
    };
    parallel_for(0, n_buckets, [&](size_t b) {
      const std::vector<uint32_t>& list = buckets[b];
      for (size_t pos = 0; pos < list.size(); ++pos) {
        const Move& mv = moves_[list[pos]];
        if (mv.op == TransferOp::kChainFirst) {
          const size_t consumed = try_fused_chain(list, pos);
          if (consumed != 0) {
            pos += consumed - 1;
            continue;
          }
        }
        auto src = buffers_[mv.src_buf].subspan(mv.begin, mv.count);
        auto dst = buffers_[mv.dst_buf].subspan(mv.begin, mv.count);
        // The destination buffer's wire dtype governs the transfer (the
        // validator pins src and dst to the same dtype): every value that
        // crosses the wire is rounded through the codec before it is
        // stored or added: a copy stores rt(src) and a reduce adds rt(src),
        // never src.  The wire_round_* kernels fuse the codec with the move
        // and are bitwise equal to rounding a staged copy first; at kFp32
        // they are the plain copy and add, which keeps this pass bitwise
        // identical to the untyped engine.
        const WireDtype wire = buffer_wires_[mv.dst_buf];
        switch (mv.op) {
          case TransferOp::kCopy:
            wire_round_copy(wire, dst, src);
            break;
          case TransferOp::kReduce:
            wire_round_add(wire, dst, src);
            break;
          case TransferOp::kChainFirst: {
            // The chain's remaining links run on this same worker (a chain
            // is recorded contiguously within its destination bucket), so
            // the accumulator is thread-local and keeps its capacity
            // across chains and calls.  Quantized chains round the
            // accumulator after every link that the wire would forward:
            // the next hop receives rt(partial).
            std::vector<float>& acc = chain_acc();
            if (acc.size() < mv.count) acc.resize(mv.count);
            wire_round_copy(wire, std::span<float>(acc.data(), mv.count), src);
            break;
          }
          case TransferOp::kChainMid:
            wire_sum_round(wire,
                           std::span<float>(chain_acc().data(), mv.count), src);
            break;
          case TransferOp::kChainLast:
            // The accumulator already carries the last hop's rounded
            // payload; the owner adds its own (local, never-transferred)
            // contribution at full precision.
            tensor_ops::add_into(
                dst, std::span<const float>(chain_acc().data(), mv.count));
            break;
        }
      }
    });
    i = end;
  }
}

}  // namespace hitopk::coll
