#include "collectives/halving_doubling.h"

#include <utility>
#include <vector>

namespace hitopk::coll {
namespace {

// Chunk interval [c0, c1) at granularity q, as a contiguous element range
// (chunk_range is a balanced partition, so consecutive chunks abut).
ChunkRange chunks_span(size_t elems, size_t q, size_t c0, size_t c1) {
  const size_t begin = c0 < q ? chunk_range(elems, q, c0).begin : elems;
  const size_t end = c1 < q ? chunk_range(elems, q, c1).begin : elems;
  return {begin, end - begin};
}

// Chunk interval rank p keeps after reduce-scatter rounds 0..t: round j
// splits the current interval in half, bit j of p selecting low (0) or
// high (1).  After all log2(q) rounds p owns the single chunk at the
// bit-reversal of p.
std::pair<size_t, size_t> kept_chunks(size_t p, int t, size_t q) {
  size_t c0 = 0;
  size_t width = q;
  for (int j = 0; j <= t; ++j) {
    width /= 2;
    if ((p >> j) & 1) c0 += width;
  }
  return {c0, c0 + width};
}

}  // namespace

void build_halving_doubling(Schedule& sched, const Group& group,
                            const RankData& data, size_t elems,
                            WireDtype wire) {
  check_data(group, data, elems);
  const size_t P = group.size();
  if (P <= 1) return;
  size_t q = 1;
  int k = 0;
  while (q * 2 <= P) {
    q *= 2;
    ++k;
  }
  const size_t r = P - q;

  const uint32_t slot0 = sched.add_slots(static_cast<uint32_t>(P));
  std::vector<uint32_t> bufs;
  if (!data.empty()) {
    bufs.reserve(P);
    for (const RankSpan& span : data) {
      bufs.push_back(sched.add_buffer(span, wire));
    }
  }
  auto slot = [&](size_t p) { return slot0 + static_cast<uint32_t>(p); };

  // Fold: the r extra ranks contribute their whole buffer to partners
  // 0..r-1, then sit out the hypercube.
  if (r > 0) {
    for (size_t j = 0; j < r; ++j) {
      sched.send(group[q + j], group[j], wire_payload_bytes(wire, elems),
                 slot(q + j), slot(j));
      if (!bufs.empty()) sched.reduce(bufs[q + j], bufs[j], 0, elems);
    }
    sched.end_step();
  }

  // Reduce-scatter: ascending distance, one pairwise exchange per round.
  // Rank p keeps kept_chunks(p, t) and ships the sibling interval (which
  // is exactly what the partner keeps) to p XOR 2^t.
  for (int t = 0; t < k; ++t) {
    const size_t h = size_t{1} << t;
    for (size_t p = 0; p < q; ++p) {
      const size_t partner = p ^ h;
      const auto [k0, k1] = kept_chunks(p, t, q);
      const auto [s0, s1] = kept_chunks(partner, t, q);
      const ChunkRange sent = chunks_span(elems, q, s0, s1);
      sched.send(group[p], group[partner],
                 wire_payload_bytes(wire, sent.count), slot(p), slot(partner));
      if (!bufs.empty()) {
        const ChunkRange kept = chunks_span(elems, q, k0, k1);
        sched.reduce(bufs[partner], bufs[p], kept.begin, kept.count);
      }
    }
    sched.end_step();
  }

  // All-gather: mirrored recursive doubling.  Valid ranges merge from the
  // finest split upward, so the round order is forced (t descending) and
  // the bulk elems/2 exchange lands back on the h = 1 neighbors.
  for (int t = k - 1; t >= 0; --t) {
    const size_t h = size_t{1} << t;
    for (size_t p = 0; p < q; ++p) {
      const size_t partner = p ^ h;
      const auto [v0, v1] = kept_chunks(p, t, q);
      const auto [r0, r1] = kept_chunks(partner, t, q);
      const ChunkRange valid = chunks_span(elems, q, v0, v1);
      sched.send(group[p], group[partner],
                 wire_payload_bytes(wire, valid.count), slot(p),
                 slot(partner));
      if (!bufs.empty()) {
        const ChunkRange recv = chunks_span(elems, q, r0, r1);
        sched.copy(bufs[partner], bufs[p], recv.begin, recv.count);
      }
    }
    sched.end_step();
  }

  // Unfold: finished results stream back to the folded ranks.
  if (r > 0) {
    for (size_t j = 0; j < r; ++j) {
      sched.send(group[j], group[q + j], wire_payload_bytes(wire, elems),
                 slot(j), slot(q + j));
      if (!bufs.empty()) sched.copy(bufs[j], bufs[q + j], 0, elems);
    }
    sched.end_step();
  }
}

}  // namespace hitopk::coll
