#include "collectives/naive_allgather.h"

#include <algorithm>

#include "collectives/ring.h"
#include "core/parallel.h"
#include "core/tensor.h"
#include "core/workspace.h"

namespace hitopk::coll {

NaiveAgResult naive_sparse_allgather(
    simnet::Cluster& cluster,
    const std::vector<compress::SparseTensor>& sparse, const RankData& data,
    size_t elems, size_t value_wire_bytes, double accumulate_seconds_per_rank,
    double start, double step_overhead) {
  const simnet::Topology& topo = cluster.topology();
  const size_t p = static_cast<size_t>(topo.world_size());
  HITOPK_VALIDATE(sparse.size() == p)
      << "got" << sparse.size() << "sparse blocks for world size" << p;
  check_data(world_group(topo), data, elems);

  // Wire payload per origin rank: k values + k indices (k == 0 blocks ride
  // the ring as pure-latency messages).
  std::vector<size_t> payload(p);
  for (size_t r = 0; r < p; ++r) {
    HITOPK_CHECK(sparse[r].is_valid());
    HITOPK_VALIDATE(sparse[r].dense_size == elems)
        << "sparse block" << r << "has dense_size" << sparse[r].dense_size
        << ", expected" << elems;
    payload[r] = sparse[r].nnz() * (value_wire_bytes + 4);
  }

  NaiveAgResult out;
  const double gathered = ring_allgather_bytes(cluster, world_group(topo),
                                               payload, start, step_overhead);
  out.allgather = gathered - start;

  // Every rank scatter-adds all P blocks locally.
  const double done =
      simnet::Cluster::compute(gathered, accumulate_seconds_per_rank);
  out.accumulate = done - gathered;
  out.total = done - start;

  if (!data.empty()) {
    // All ranks compute the identical sum; the fused accumulation builds it
    // once into a workspace buffer (index space partitioned across the
    // pool), then every rank's independent destination gets a copy.
    Scratch<float> sum(elems);
    compress::accumulate_into(sparse, sum.span());
    parallel_for(0, data.size(), [&](size_t r) {
      std::copy(sum.span().begin(), sum.span().end(), data[r].begin());
    });
  }
  return out;
}

NaiveAgResult naive_sparse_allgather_time(simnet::Cluster& cluster, size_t k,
                                          size_t value_wire_bytes,
                                          double accumulate_seconds_per_rank,
                                          double start, double step_overhead) {
  const simnet::Topology& topo = cluster.topology();
  const std::vector<size_t> payload(static_cast<size_t>(topo.world_size()),
                                    k * (value_wire_bytes + 4));

  NaiveAgResult out;
  const double gathered = ring_allgather_bytes(cluster, world_group(topo),
                                               payload, start, step_overhead);
  out.allgather = gathered - start;
  const double done =
      simnet::Cluster::compute(gathered, accumulate_seconds_per_rank);
  out.accumulate = done - gathered;
  out.total = done - start;
  return out;
}

}  // namespace hitopk::coll
