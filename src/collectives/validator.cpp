#include "collectives/validator.h"

#include <algorithm>
#include <vector>

#include "core/check.h"

namespace hitopk::coll {
namespace {

// Half-open element-address interval tagged with its data-pass bucket.
// Raw addresses, not (buffer, begin): builders register aliased spans.
struct Interval {
  const float* begin;
  const float* end;
  uint32_t bucket;
};

bool by_begin(const Interval& a, const Interval& b) {
  return a.begin < b.begin;
}

// Merges same-bucket intervals in place; output sorted by begin, intervals
// of one bucket pairwise disjoint.
void merge_per_bucket(std::vector<Interval>& v) {
  std::sort(v.begin(), v.end(), [](const Interval& a, const Interval& b) {
    return a.bucket != b.bucket ? a.bucket < b.bucket : a.begin < b.begin;
  });
  size_t out = 0;
  for (const Interval& iv : v) {
    if (out > 0 && v[out - 1].bucket == iv.bucket &&
        v[out - 1].end >= iv.begin) {
      v[out - 1].end = std::max(v[out - 1].end, iv.end);
    } else {
      v[out++] = iv;
    }
  }
  v.resize(out);
  std::sort(v.begin(), v.end(), by_begin);
}

// The per-move element range a bucket writes into buffers, if any.  The
// chain head/mid links write only the thread-local accumulator.
bool writes_buffer(TransferOp op) {
  return op == TransferOp::kCopy || op == TransferOp::kReduce ||
         op == TransferOp::kChainLast;
}

// The per-move element range a bucket reads from buffers, if any.  The
// chain tail reads the accumulator plus its own destination (which the
// write interval already covers), kCopy/kReduce/head/mid read src.
bool reads_buffer(TransferOp op) { return op != TransferOp::kChainLast; }

// Open reduction chain within one bucket (see TransferOp::kChain*).
struct ChainState {
  bool open = false;
  size_t begin = 0;
  size_t count = 0;
  WireDtype wire = WireDtype::kFp32;
};

}  // namespace

void ScheduleValidator::validate(const ScheduleView& view) const {
  // ---- sends: endpoints, slots, step ordering ---------------------------
  uint32_t prev_step = 0;
  for (size_t i = 0; i < view.sends.size(); ++i) {
    const Schedule::Send& s = view.sends[i];
    HITOPK_VALIDATE(i == 0 || s.step >= prev_step)
        << "send" << i << "steps back from step" << prev_step << "to"
        << s.step << "- record order is port replay order";
    prev_step = s.step;
    if (options_.world_size > 0) {
      HITOPK_VALIDATE(s.src >= 0 && s.src < options_.world_size)
          << "send" << i << "src rank" << s.src << "outside world of"
          << options_.world_size;
      HITOPK_VALIDATE(s.dst >= 0 && s.dst < options_.world_size)
          << "send" << i << "dst rank" << s.dst << "outside world of"
          << options_.world_size;
    }
    HITOPK_VALIDATE(s.src != s.dst)
        << "send" << i << "loops rank" << s.src << "to itself";
    HITOPK_VALIDATE(s.src_slot < view.num_slots)
        << "send" << i << "src slot" << s.src_slot << "of" << view.num_slots;
    HITOPK_VALIDATE(s.dst_slot < view.num_slots)
        << "send" << i << "dst slot" << s.dst_slot << "of" << view.num_slots;
  }

  // ---- syncs: step ordering --------------------------------------------
  for (size_t i = 1; i < view.syncs.size(); ++i) {
    HITOPK_VALIDATE(view.syncs[i].step >= view.syncs[i - 1].step)
        << "sync" << i << "steps back from step" << view.syncs[i - 1].step
        << "to" << view.syncs[i].step;
  }

  // ---- buffer wires: one dtype per registered buffer --------------------
  HITOPK_VALIDATE(view.buffer_wires.empty() ||
                  view.buffer_wires.size() == view.buffers.size())
      << "got" << view.buffer_wires.size() << "buffer wire dtypes for"
      << view.buffers.size() << "buffers";
  const auto wire_of = [&](uint32_t buf) {
    return buf < view.buffer_wires.size() ? view.buffer_wires[buf]
                                          : WireDtype::kFp32;
  };

  // ---- moves: ids, ranges, step ordering -------------------------------
  for (size_t i = 0; i < view.moves.size(); ++i) {
    const Schedule::Move& m = view.moves[i];
    HITOPK_VALIDATE(i == 0 || m.step >= view.moves[i - 1].step)
        << "move" << i << "steps back from step" << view.moves[i - 1].step
        << "to" << m.step;
    const size_t nbufs = view.buffers.size();
    HITOPK_VALIDATE(m.src_buf < nbufs)
        << "move" << i << "src buffer" << m.src_buf << "of" << nbufs;
    HITOPK_VALIDATE(m.dst_buf < nbufs)
        << "move" << i << "dst buffer" << m.dst_buf << "of" << nbufs;
    HITOPK_VALIDATE(m.bucket < nbufs)
        << "move" << i << "bucket" << m.bucket << "of" << nbufs;
    HITOPK_VALIDATE(m.count > 0) << "move" << i << "has zero count";
    HITOPK_VALIDATE(wire_of(m.src_buf) == wire_of(m.dst_buf))
        << "move" << i << "transfers" << wire_dtype_name(wire_of(m.src_buf))
        << "buffer" << m.src_buf << "into" << wire_dtype_name(wire_of(m.dst_buf))
        << "buffer" << m.dst_buf << "- wire dtype must not change mid-path";
    for (const uint32_t buf : {m.src_buf, m.dst_buf}) {
      const size_t size = view.buffers[buf].size();
      HITOPK_VALIDATE(m.count <= size && m.begin <= size - m.count)
          << "move" << i << "range [" << m.begin << "," << m.begin + m.count
          << ") outside buffer" << buf << "of" << size << "elements";
    }
  }

  // ---- per-step race freedom + chain discipline ------------------------
  std::vector<Interval> writes;
  std::vector<Interval> reads;
  std::vector<Interval> all_writes;  // across steps, for coverage
  size_t i = 0;
  while (i < view.moves.size()) {
    const uint32_t step = view.moves[i].step;
    size_t end = i;
    writes.clear();
    reads.clear();
    // Chains live inside one bucket of one step; track the open chain per
    // bucket in record order.
    std::vector<std::pair<uint32_t, ChainState>> chains;
    auto chain_of = [&](uint32_t bucket) -> ChainState& {
      for (auto& [b, st] : chains) {
        if (b == bucket) return st;
      }
      chains.emplace_back(bucket, ChainState{});
      return chains.back().second;
    };
    while (end < view.moves.size() && view.moves[end].step == step) {
      const Schedule::Move& m = view.moves[end];
      if (writes_buffer(m.op)) {
        const float* base = view.buffers[m.dst_buf].data() + m.begin;
        writes.push_back({base, base + m.count, m.bucket});
      }
      if (reads_buffer(m.op)) {
        const float* base = view.buffers[m.src_buf].data() + m.begin;
        reads.push_back({base, base + m.count, m.bucket});
      }
      ChainState& chain = chain_of(m.bucket);
      switch (m.op) {
        case TransferOp::kChainFirst:
          HITOPK_VALIDATE(!chain.open)
              << "move" << end << "starts a chain while bucket" << m.bucket
              << "has one open - chains must be contiguous";
          chain = {true, m.begin, m.count, wire_of(m.dst_buf)};
          break;
        case TransferOp::kChainMid:
        case TransferOp::kChainLast:
          HITOPK_VALIDATE(chain.open)
              << "move" << end << "continues a chain bucket" << m.bucket
              << "never opened";
          HITOPK_VALIDATE(m.begin == chain.begin && m.count == chain.count)
              << "move" << end << "chain range [" << m.begin << ","
              << m.begin + m.count << ") disagrees with the chain head ["
              << chain.begin << "," << chain.begin + chain.count << ")";
          HITOPK_VALIDATE(wire_of(m.dst_buf) == chain.wire)
              << "move" << end << "chain link is"
              << wire_dtype_name(wire_of(m.dst_buf)) << "but the chain head is"
              << wire_dtype_name(chain.wire)
              << "- a chain shares one accumulator, hence one wire dtype";
          if (m.op == TransferOp::kChainLast) chain.open = false;
          break;
        case TransferOp::kCopy:
        case TransferOp::kReduce:
          HITOPK_VALIDATE(!chain.open)
              << "move" << end << "interleaves with the open chain of bucket"
              << m.bucket << "- chains must be contiguous";
          break;
      }
      ++end;
    }
    for (const auto& [bucket, chain] : chains) {
      HITOPK_VALIDATE(!chain.open)
          << "bucket" << bucket << "leaves a reduction chain open at the end"
          << "of step" << step << "- the accumulator does not cross steps";
    }

    // Writes of distinct buckets must be pairwise disjoint.  After merging
    // per bucket the intervals of one bucket are disjoint, so *any* overlap
    // in the combined sorted list crosses buckets.
    merge_per_bucket(writes);
    for (size_t w = 1; w < writes.size(); ++w) {
      HITOPK_VALIDATE(writes[w].begin >= writes[w - 1].end)
          << "step" << step << ": buckets" << writes[w - 1].bucket << "and"
          << writes[w].bucket << "write overlapping ranges concurrently";
    }
    // No bucket may read a range some *other* bucket writes this step.
    // The write list is globally disjoint here, so each read overlaps a
    // well-defined run of write intervals.
    for (const Interval& r : reads) {
      auto it = std::upper_bound(writes.begin(), writes.end(), r, by_begin);
      if (it != writes.begin()) --it;  // predecessor may straddle r.begin
      for (; it != writes.end() && it->begin < r.end; ++it) {
        if (it->end <= r.begin) continue;
        HITOPK_VALIDATE(it->bucket == r.bucket)
            << "step" << step << ": bucket" << r.bucket
            << "reads a range bucket" << it->bucket << "writes concurrently";
      }
    }
    all_writes.insert(all_writes.end(), writes.begin(), writes.end());
    i = end;
  }

  // ---- coverage: every functional element written at least once --------
  if (options_.require_full_coverage && !view.buffers.empty()) {
    // Collapse to plain address intervals (buckets irrelevant across steps)
    // and dedupe aliased buffer registrations by address range.
    for (Interval& iv : all_writes) iv.bucket = 0;
    merge_per_bucket(all_writes);
    for (size_t b = 0; b < view.buffers.size(); ++b) {
      const RankSpan& span = view.buffers[b];
      if (span.empty()) continue;
      const float* lo = span.data();
      const float* hi = span.data() + span.size();
      // Walk the disjoint sorted write intervals across [lo, hi).
      const float* covered = lo;
      for (const Interval& iv : all_writes) {
        if (iv.end <= covered || iv.begin >= hi) continue;
        HITOPK_VALIDATE(iv.begin <= covered)
            << "buffer" << b << "element"
            << static_cast<size_t>(covered - lo)
            << "is never written - incomplete chunk coverage";
        covered = std::max(covered, iv.end);
        if (covered >= hi) break;
      }
      HITOPK_VALIDATE(covered >= hi)
          << "buffer" << b << "element" << static_cast<size_t>(covered - lo)
          << "is never written - incomplete chunk coverage";
    }
  }
}

}  // namespace hitopk::coll
