#include "collectives/blueconnect.h"

#include <algorithm>

#include "collectives/ring.h"

namespace hitopk::coll {
namespace {

std::vector<int> derive_factors(const simnet::Topology& topo) {
  HITOPK_VALIDATE(topo.uniform())
      << "BlueConnect auto-factorization needs a uniform topology; pass "
         "explicit factors for uneven clusters";
  const int n = topo.gpus_per_node();
  const int m = topo.nodes();
  if (m == 1) return {n};
  if (n == 1) return {m};
  return {n, m};
}

}  // namespace

size_t build_blueconnect(Schedule& sched, const simnet::Topology& topo,
                         const RankData& data, size_t elems,
                         const BlueConnectOptions& options) {
  const int p = topo.world_size();
  check_data(world_group(topo), data, elems);
  const bool functional = !data.empty();

  const std::vector<int> factors =
      options.factors.empty() ? derive_factors(topo) : options.factors;
  const size_t S = factors.size();
  int product = 1;
  for (int f : factors) {
    HITOPK_VALIDATE(f > 0) << "stage factor" << f << "must be positive";
    product *= f;
  }
  HITOPK_VALIDATE(product == p)
      << "stage factors multiply to" << product << ", world size is" << p;
  if (p <= 1) return S;

  // Mixed-radix strides: digit s of rank r is (r / stride[s]) % factors[s].
  std::vector<int> stride(S, 1);
  for (size_t s = 1; s < S; ++s) stride[s] = stride[s - 1] * factors[s - 1];

  // ext[r]: the range rank r owns entering the current stage (narrows by
  // the rank's stage digit as the Reduce-Scatter descends).
  std::vector<ChunkRange> ext(static_cast<size_t>(p), ChunkRange{0, elems});

  std::vector<std::vector<Group>> stage_groups(S);
  std::vector<std::vector<ChunkRange>> stage_extents(S);
  std::vector<RingGrid> grids(S);

  // Descending Reduce-Scatter stages, one collapse sync after each: stage
  // s + 1 reads the owner chunks stage s produced across *different* rings,
  // so the scalar phase hand-off is the correct dependency (and gives the
  // per-phase breakdown).
  for (size_t s = 0; s < S; ++s) {
    const int f = factors[s];
    std::vector<Group>& groups = stage_groups[s];
    std::vector<RankData> group_data;
    // Base ranks (digit s == 0) in ascending rank order; group member i is
    // base + i * stride[s], so rings follow the rank/digit order (per-node
    // rings for the intra stage, cross-node rings beyond).
    for (int base = 0; base < p; ++base) {
      if ((base / stride[s]) % f != 0) continue;
      Group group(static_cast<size_t>(f));
      for (int i = 0; i < f; ++i) {
        group[static_cast<size_t>(i)] = base + i * stride[s];
      }
      // All members share digits below s, hence the same owned extent.
      stage_extents[s].push_back(ext[static_cast<size_t>(base)]);
      if (functional) {
        RankData gd;
        for (int rank : group) gd.push_back(data[static_cast<size_t>(rank)]);
        group_data.push_back(std::move(gd));
      }
      groups.push_back(std::move(group));
    }
    grids[s] = ring_grid(sched, groups, group_data, options.wire);
    // Fused chains are valid at every stage: the non-owned chunks a stage's
    // Reduce-Scatter skips are exactly what its All-Gather counterpart
    // overwrites with resolved copies on the way back up.
    build_ring_reduce_scatter(sched, groups, grids[s], stage_extents[s],
                              options.wire, /*fused_chains=*/true);
    sched.sync(/*collapse=*/true);
    // Narrow every rank's extent by its stage digit.
    for (int r = 0; r < p; ++r) {
      const int digit = (r / stride[s]) % f;
      ChunkRange sub = chunk_range(ext[static_cast<size_t>(r)].count,
                                   static_cast<size_t>(f),
                                   static_cast<size_t>(digit));
      sub.begin += ext[static_cast<size_t>(r)].begin;
      ext[static_cast<size_t>(r)] = sub;
    }
  }

  // Ascending All-Gather stages (reverse order), reusing each stage's grid
  // so the resolved copies feed from the owner chunks in place.
  for (size_t s = S; s-- > 0;) {
    build_ring_allgather(sched, stage_groups[s], grids[s], stage_extents[s],
                         options.wire);
    if (s > 0) sched.sync(/*collapse=*/true);
  }
  return S;
}

BlueConnectBreakdown blueconnect_allreduce(simnet::Cluster& cluster,
                                           const RankData& data, size_t elems,
                                           const BlueConnectOptions& options,
                                           double start) {
  Schedule sched;
  const size_t S =
      build_blueconnect(sched, cluster.topology(), data, elems, options);

  BlueConnectBreakdown out;
  out.stages = S;
  if (cluster.topology().world_size() <= 1) return out;

  const ScheduleOutcome timing = sched.run_timing(cluster, start);
  sched.run_data();

  // sync_times[S-1] is the Reduce-Scatter / All-Gather midpoint.
  const double mid = timing.sync_times[S - 1];
  out.reduce_scatter = mid - start;
  out.allgather = timing.finish - mid;
  out.total = timing.finish - start;
  return out;
}

}  // namespace hitopk::coll
