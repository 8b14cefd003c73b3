#include "collectives/hitopkcomm.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>

#include "collectives/ring.h"
#include "compress/mstopk.h"
#include "core/parallel.h"

namespace hitopk::coll {
namespace {

// Owned-shard layout: L = max gpus-per-node shards tile the gradient, and
// on a node with g GPUs, GPU j owns every shard s with s % g == j.  On a
// uniform fleet GPU j owns exactly shard j.
std::vector<ChunkRange> shard_ranges(const simnet::Topology& topo,
                                     size_t elems) {
  int L = 0;
  for (int node = 0; node < topo.nodes(); ++node) {
    L = std::max(L, topo.gpus_on_node(node));
  }
  HITOPK_CHECK_GT(L, 0);
  std::vector<ChunkRange> shards(static_cast<size_t>(L));
  for (int s = 0; s < L; ++s) {
    shards[static_cast<size_t>(s)] =
        chunk_range(elems, static_cast<size_t>(L), static_cast<size_t>(s));
  }
  return shards;
}

int shard_owner(const simnet::Topology& topo, int node, int s) {
  return topo.rank_of(node, s % topo.gpus_on_node(node));
}

size_t shard_k(double density, size_t shard_elems) {
  if (shard_elems == 0) return 0;
  return std::max<size_t>(
      1, static_cast<size_t>(std::llround(density * static_cast<double>(shard_elems))));
}

// Wire bytes of one sparse (values, indices) block: values at the value
// wire dtype (plus its per-block scale record), 4-byte indices.
size_t sparse_payload_bytes(WireDtype wire, size_t nnz) {
  return wire_payload_bytes(wire, nnz) + nnz * 4;
}

// One stream's aggregated sparse result: globally-indexed, ascending,
// compact (exact zeros already dropped).  The inter-node all-gather legs
// quote indices.size() as the stream's nonzero count, and step 4's rebuild
// scatters the pairs directly — no dense accumulation buffer is ever
// materialised.
struct CompactStream {
  std::vector<uint32_t> indices;
  std::vector<float> values;
};

// `v` where `take` is 1 and +0.0f where it is 0, without a branch.
inline float keep_if(float v, uint32_t take) {
  return std::bit_cast<float>(std::bit_cast<uint32_t>(v) & (0u - take));
}

// One two-way merge of merge_accumulate's cascade: the running sums
// (a_idx, a_val) with one block (b_idx, b_val), both strictly ascending,
// into (out_idx, out_val); returns the output count.  An index in both
// adds the block's value to the running sum; an index in the block alone
// starts a sum at 0.0f + value.  `first` means the running "sums" are the
// first block's raw values, so they start from 0.0f too; later, the
// running sums pass through as -0.0f + sum, which is the sum's own bits
// (no sum starting at +0.0f is ever -0.0f).  With `last`, exact-zero sums
// are dropped and indices are shifted by `offset`.  Every step is
// branch-free: the cursors advance by the compare results and a side not
// taken adds +0.0f, which also leaves every sum's bits unchanged.
size_t merge_two(const uint32_t* a_idx, const float* a_val, size_t na,
                 const uint32_t* b_idx, const float* b_val, size_t nb,
                 bool first, bool last, uint32_t offset, uint32_t* out_idx,
                 float* out_val) {
  const float start = first ? 0.0f : -0.0f;
  size_t i = 0;
  size_t j = 0;
  size_t w = 0;
  auto emit = [&](uint32_t index, float sum) {
    out_idx[w] = index + offset;
    out_val[w] = sum;
    w += !last || sum != 0.0f ? 1 : 0;
  };
  while (i < na && j < nb) {
    const uint32_t x = a_idx[i];
    const uint32_t y = b_idx[j];
    const uint32_t take_a = x <= y ? 1 : 0;
    const uint32_t take_b = y <= x ? 1 : 0;
    emit(std::min(x, y),
         (start + keep_if(a_val[i], take_a)) + keep_if(b_val[j], take_b));
    i += take_a;
    j += take_b;
  }
  for (; i < na; ++i) emit(a_idx[i], start + a_val[i]);
  for (; j < nb; ++j) emit(b_idx[j], 0.0f + b_val[j]);
  return w;
}

// Merge-accumulates one stream's m sorted sparse blocks into a compact
// (index, value) stream.  Each output index sums its occurrences in block
// order starting from a literal 0.0f — bitwise the value a scatter-add of
// the blocks into a zeroed dense buffer yields, including signed-zero and
// NaN propagation — and exact-zero sums are dropped.  The blocks merge in a
// cascade of branch-free two-way merges, ((b0 + b1) + b2) + ..., which adds
// in block order: touching only the selected entries costs O(nnz * m)
// instead of a dense memset plus a full-shard nonzero rescan, and no step
// branches on which blocks hold the next index.
void merge_accumulate(std::span<const compress::SparseTensor* const> blocks,
                      size_t shard_begin, CompactStream& out) {
  size_t total = 0;
  for (const compress::SparseTensor* sp : blocks) {
    // MsTopK::compress emits strictly ascending indices on every path.
    HITOPK_CHECK(std::adjacent_find(sp->indices.begin(), sp->indices.end(),
                                    std::greater_equal<uint32_t>()) ==
                 sp->indices.end());
    total += sp->indices.size();
  }
  out.indices.resize(total);
  out.values.resize(total);
  const uint32_t offset = static_cast<uint32_t>(shard_begin);
  size_t n = 0;
  if (blocks.size() == 1) {
    n = merge_two(nullptr, nullptr, 0, blocks[0]->indices.data(),
                  blocks[0]->values.data(), blocks[0]->indices.size(),
                  /*first=*/true, /*last=*/true, offset, out.indices.data(),
                  out.values.data());
  } else if (blocks.size() > 1) {
    // The running sums alternate between `out` and one spare pair of
    // buffers, in the parity that leaves the last merge's output in `out`.
    std::vector<uint32_t> spare_idx(blocks.size() > 2 ? total : 0);
    std::vector<float> spare_val(spare_idx.size());
    const uint32_t* a_idx = blocks[0]->indices.data();
    const float* a_val = blocks[0]->values.data();
    n = blocks[0]->indices.size();
    for (size_t b = 1; b < blocks.size(); ++b) {
      const bool last = b + 1 == blocks.size();
      const bool into_out = (blocks.size() - 1 - b) % 2 == 0;
      uint32_t* out_idx = into_out ? out.indices.data() : spare_idx.data();
      float* out_val = into_out ? out.values.data() : spare_val.data();
      n = merge_two(a_idx, a_val, n, blocks[b]->indices.data(),
                    blocks[b]->values.data(), blocks[b]->indices.size(),
                    /*first=*/b == 1, last, last ? offset : 0, out_idx,
                    out_val);
      a_idx = out_idx;
      a_val = out_val;
    }
  }
  out.indices.resize(n);
  out.values.resize(n);
}

// Rebuilds the full aggregated gradient into `out` from the compact
// streams.  Stream s is ascending and covers exactly shard s's range, and
// the shards tile `out`, so each stream rebuilds its own disjoint range on
// its own pool worker: one forward pass zero-fills L1-sized tiles with
// memset and scatters the tile's survivors while its lines are still
// cache-resident.  That writes each output element exactly once at
// streaming-store speed, where copying a dense aggregate would also *read*
// every element.
void rebuild_from_compact(std::span<float> out,
                          std::span<const ChunkRange> shards,
                          const std::vector<CompactStream>& streams) {
  constexpr size_t kTileElems = 8 * 1024;  // 32 KiB of floats.
  parallel_for(0, streams.size(), [&](size_t s) {
    const CompactStream& st = streams[s];
    const size_t first = shards[s].begin;
    const size_t last = first + shards[s].count;
    size_t cur = 0;
    for (size_t begin = first; begin < last; begin += kTileElems) {
      const size_t end = std::min(last, begin + kTileElems);
      std::memset(out.data() + begin, 0, (end - begin) * sizeof(float));
      for (; cur < st.indices.size() && st.indices[cur] < end; ++cur) {
        out[st.indices[cur]] = st.values[cur];
      }
    }
  });
}

// Step 1 (Alg. 2 lines 2-4): sums every shard densely over its node onto
// the shard's per-node owner, as one schedule.  On a uniform fleet the m
// per-node ring Reduce-Scatters are one multi-group schedule: intra-node
// ports are disjoint across nodes, so the clocks equal m independent rings,
// and each step's reduces across all nodes batch into a single parallel_for.
// A ring needs one chunk per member, which the L-shard grid of a smaller
// node does not provide, so uneven fleets fan each shard in to its owner
// directly: one step in which every peer sends its slice (one slot per
// rank, all ready at `start`) and the owner adds the wire-rounded slice.
// Returns the time the last shard is aggregated.
double aggregate_shards(simnet::Cluster& cluster, const RankData& data,
                        size_t elems, std::span<const ChunkRange> shards,
                        WireDtype wire, double start) {
  const simnet::Topology& topo = cluster.topology();
  const int m = topo.nodes();
  const bool functional = !data.empty();
  Schedule sched;
  if (topo.uniform()) {
    std::vector<Group> node_groups;
    std::vector<RankData> node_data;
    for (int node = 0; node < m; ++node) {
      node_groups.push_back(node_group(topo, node));
      if (functional) {
        RankData nd;
        for (int rank : node_groups.back()) {
          nd.push_back(data[static_cast<size_t>(rank)]);
        }
        node_data.push_back(std::move(nd));
      }
    }
    const RingGrid grid = ring_grid(sched, node_groups, node_data, wire);
    build_ring_reduce_scatter(sched, node_groups, grid, elems, wire,
                              /*fused_chains=*/true);
  } else {
    const uint32_t slot0 =
        sched.add_slots(static_cast<uint32_t>(topo.world_size()));
    std::vector<uint32_t> bufs;
    for (const std::span<float> span : data) {
      bufs.push_back(sched.add_buffer(span, wire));
    }
    for (int node = 0; node < m; ++node) {
      for (size_t s = 0; s < shards.size(); ++s) {
        const ChunkRange& shard = shards[s];
        if (shard.count == 0) continue;
        const int owner = shard_owner(topo, node, static_cast<int>(s));
        for (int local = 0; local < topo.gpus_on_node(node); ++local) {
          const int rank = topo.rank_of(node, local);
          if (rank == owner) continue;
          sched.send(rank, owner, wire_payload_bytes(wire, shard.count),
                     slot0 + static_cast<uint32_t>(rank),
                     slot0 + static_cast<uint32_t>(owner));
          if (functional) {
            sched.reduce(bufs[static_cast<size_t>(rank)],
                         bufs[static_cast<size_t>(owner)], shard.begin,
                         shard.count);
          }
        }
      }
    }
  }
  const double done = sched.run_timing(cluster, start).finish;
  sched.run_data();
  return done;
}

}  // namespace

std::vector<HiTopKEfEntry> hitopk_ef_entries(const simnet::Topology& topo,
                                             size_t elems,
                                             const std::string& prefix) {
  const std::vector<ChunkRange> shards = shard_ranges(topo, elems);
  std::vector<HiTopKEfEntry> out;
  for (size_t s = 0; s < shards.size(); ++s) {
    if (shards[s].count == 0) continue;
    for (int node = 0; node < topo.nodes(); ++node) {
      std::string key =
          prefix + ":" +
          std::to_string(shard_owner(topo, node, static_cast<int>(s)));
      if (!topo.uniform()) key += ":s" + std::to_string(s);
      out.push_back({std::move(key), shards[s]});
    }
  }
  return out;
}

HiTopKBreakdown hitopk_comm(simnet::Cluster& cluster, const RankData& data,
                            size_t elems, const HiTopKOptions& options,
                            double start) {
  HITOPK_VALIDATE(options.density > 0.0 && options.density <= 1.0)
      << "hitopk_comm density must lie in (0, 1]; got" << options.density;
  HITOPK_VALIDATE(options.mstopk_samplings > 0)
      << "hitopk_comm needs mstopk_samplings > 0; got"
      << options.mstopk_samplings;
  const simnet::Topology& topo = cluster.topology();
  check_data(world_group(topo), data, elems);
  const int m = topo.nodes();
  const bool uniform = topo.uniform();
  const bool functional = !data.empty();
  const WireDtype wire = options.value_wire;

  const std::vector<ChunkRange> shards = shard_ranges(topo, elems);
  const int L = static_cast<int>(shards.size());

  HiTopKBreakdown out;
  const double t1 = aggregate_shards(cluster, data, elems, shards, wire, start);
  out.reduce_scatter = t1 - start;

  // ---- Step 2: MSTopK on each owned shard (Alg. 2 lines 5-8), one unit
  // per non-empty (shard, node) pair, in hitopk_ef_entries() order.  A small
  // node's GPU owns several shards, so units, not ranks, are the parallel
  // grain.
  struct Unit {
    int s;
    int node;
  };
  std::vector<Unit> units;
  size_t max_k = 0;
  double mstopk_seconds = 0.0;
  for (int s = 0; s < L; ++s) {
    const ChunkRange& shard = shards[static_cast<size_t>(s)];
    if (shard.count == 0) continue;
    const size_t k = shard_k(options.density, shard.count);
    max_k = std::max(max_k, k);
    if (options.gpu != nullptr) {
      mstopk_seconds = std::max(
          mstopk_seconds, options.gpu->mstopk_seconds(shard.count, k,
                                                      options.mstopk_samplings));
    }
    for (int node = 0; node < m; ++node) units.push_back({s, node});
  }
  // sel[s * m + node]: the block node `node` contributes to shard s's stream,
  // indices local to the shard.
  std::vector<compress::SparseTensor> sel(static_cast<size_t>(L * m));
  if (functional) {
    // Pre-create the residual entries so the parallel workers below only
    // ever look them up (inserts would race).  Entry u belongs to unit u;
    // residual[u] is its storage.
    std::vector<HiTopKEfEntry> ef;
    std::vector<std::span<float>> residual;
    if (options.error_feedback != nullptr) {
      ef = hitopk_ef_entries(topo, elems, options.ef_key_prefix);
      HITOPK_CHECK_EQ(ef.size(), units.size());
      for (const HiTopKEfEntry& entry : ef) {
        residual.push_back(
            options.error_feedback->ensure(entry.key, entry.range.count));
      }
    }
    // Every unit simulates an independent selection: disjoint shard
    // buffers, its own seeded RNG, its own residual entry.  The iterations
    // commute, so the parallel execution is bitwise identical to the serial
    // loop.
    const compress::MsTopKMode mode = options.mstopk_histogram
                                          ? compress::MsTopKMode::kHistogram
                                          : compress::MsTopKMode::kMultiPass;
    parallel_for(0, units.size(), [&](size_t u) {
      const int s = units[u].s;
      const int rank = shard_owner(topo, units[u].node, s);
      const ChunkRange& shard = shards[static_cast<size_t>(s)];
      auto shard_span =
          data[static_cast<size_t>(rank)].subspan(shard.begin, shard.count);
      // One seed per rank on a uniform fleet; a rank owning several shards
      // runs one independent selection stream per shard.
      const uint64_t seed =
          uniform ? options.seed + static_cast<uint64_t>(rank)
                  : options.seed +
                        static_cast<uint64_t>(rank) * static_cast<uint64_t>(L) +
                        static_cast<uint64_t>(s);
      compress::MsTopK mstopk(options.mstopk_samplings, seed, mode);
      compress::SparseTensor& block =
          sel[static_cast<size_t>(s * m + units[u].node)];
      const size_t k = shard_k(options.density, shard.count);
      // Fused EF exchange: MSTopK compensates the shard with its residual
      // inside its counting read and leaves the residual primed with the
      // compensated shard; the shard is untouched from there to
      // absorption, which only subtracts the sent values.
      block = options.error_feedback != nullptr
                  ? mstopk.compress(shard_span, k, residual[u])
                  : mstopk.compress(shard_span, k);
      // Typed payloads: the values cross the wire in the selected dtype, so
      // round them through the codec *before* error feedback absorbs the
      // send — the residual then keeps the quantization error alongside the
      // unselected coordinates.  A no-op for fp32.
      wire_round_trip(wire, std::span<float>(block.values));
      if (options.error_feedback != nullptr) {
        options.error_feedback->absorb_primed(ef[u].key, block);
      }
    });
  }
  out.selected_per_shard = max_k;
  const double t2 = simnet::Cluster::compute(t1, mstopk_seconds);
  out.mstopk = t2 - t1;

  // ---- Step 3: L concurrent inter-node all-gathers, one per shard among
  // its per-node owners (Alg. 2 lines 11-14), plus local accumulation with
  // duplicate-index adds (lines 15-20).  Every owner of shard s computes the
  // identical accumulation of the stream's m sparse blocks, so it is
  // computed once per stream by merge-accumulating the sorted blocks into a
  // compact stream (see merge_accumulate).  The shards tile [0, elems), so
  // the streams in shard order ARE the aggregated gradient; they feed step
  // 4's tiled scatter rebuild.  stream_nnz keeps the per-stream nonzero
  // counts the step-4 wire payloads need.
  std::vector<CompactStream> streams(functional ? static_cast<size_t>(L) : 0);
  std::vector<size_t> stream_nnz(static_cast<size_t>(L), 0);
  std::vector<Group> stream_groups;
  std::vector<std::vector<size_t>> stream_payloads;
  std::vector<int> stream_shards;
  for (int s = 0; s < L; ++s) {
    const ChunkRange& shard = shards[static_cast<size_t>(s)];
    if (shard.count == 0) continue;
    Group group;
    std::vector<size_t> payload;
    for (int node = 0; node < m; ++node) {
      group.push_back(shard_owner(topo, node, s));
      const size_t nnz = functional
                             ? sel[static_cast<size_t>(s * m + node)].nnz()
                             : shard_k(options.density, shard.count);
      payload.push_back(sparse_payload_bytes(wire, nnz));
    }
    stream_groups.push_back(std::move(group));
    stream_payloads.push_back(std::move(payload));
    stream_shards.push_back(s);
  }
  if (functional) {
    parallel_for(0, stream_shards.size(), [&](size_t i) {
      const int s = stream_shards[i];
      // Each stream worker writes only its own stream, so the parallel
      // accumulation is race-free and bitwise-identical to a serial loop.
      std::vector<const compress::SparseTensor*> blocks;
      blocks.reserve(static_cast<size_t>(m));
      for (int node = 0; node < m; ++node) {
        blocks.push_back(&sel[static_cast<size_t>(s * m + node)]);
      }
      CompactStream& stream = streams[static_cast<size_t>(s)];
      merge_accumulate(blocks, shards[static_cast<size_t>(s)].begin, stream);
      stream_nnz[static_cast<size_t>(s)] = stream.indices.size();
    });
  }
  // The streams run concurrently (Alg. 2 line 11: "for j in [n] in
  // parallel"), sharing each node's NIC; two shards of a small node share
  // their owner's NIC and the port clocks serialize them.
  double t3_comm = t2;
  if (!stream_groups.empty()) {
    t3_comm = ring_allgather_bytes_multi(cluster, stream_groups,
                                         stream_payloads, t2);
  }
  double accumulate_seconds = 0.0;
  if (options.gpu != nullptr) {
    accumulate_seconds = options.gpu->scatter_add_seconds(
        static_cast<size_t>(m) * max_k);
  }
  const double t3 = simnet::Cluster::compute(t3_comm, accumulate_seconds);
  out.inter_allgather = t3 - t2;

  // ---- Step 4: intra-node all-gather of the accumulated sparse shards
  // (Alg. 2 lines 21-23).  Each GPU contributes every non-empty shard it
  // owns, at most m*k~ nonzeros per shard.
  double t4_comm = t3;
  for (int node = 0; node < m; ++node) {
    const Group group = node_group(topo, node);
    const int g = topo.gpus_on_node(node);
    std::vector<size_t> payload(group.size(), 0);
    for (int s = 0; s < L; ++s) {
      const ChunkRange& shard = shards[static_cast<size_t>(s)];
      if (shard.count == 0) continue;
      const size_t nnz =
          functional
              ? stream_nnz[static_cast<size_t>(s)]
              : std::min(static_cast<size_t>(m) *
                             shard_k(options.density, shard.count),
                         shard.count);
      payload[static_cast<size_t>(s % g)] += sparse_payload_bytes(wire, nnz);
    }
    t4_comm = std::max(t4_comm,
                       ring_allgather_bytes(cluster, group, payload, t3));
  }
  double rebuild_seconds = 0.0;
  if (options.gpu != nullptr) {
    rebuild_seconds = options.gpu->scatter_add_seconds(
        std::min(static_cast<size_t>(m) * max_k * static_cast<size_t>(L),
                 elems));
  }
  const double t4 = simnet::Cluster::compute(t4_comm, rebuild_seconds);
  out.intra_allgather = t4 - t3;
  out.total = t4 - start;

  // Rebuild the aggregated gradient from the streams, once, into rank 0's
  // buffer: every rank's copy would be identical, and the all-gather that
  // delivers it to each GPU is timed above.
  if (functional) rebuild_from_compact(data[0], shards, streams);
  return out;
}

}  // namespace hitopk::coll
