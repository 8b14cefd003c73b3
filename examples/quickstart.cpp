// Quickstart: compress a gradient with MSTopK and aggregate it across a
// simulated cloud cluster with HiTopKComm.
//
//   build/examples/example_quickstart
//
// Walks the library's three core pieces in ~80 lines:
//   1. MSTopK (Alg. 1) vs exact top-k on one gradient,
//   2. functional HiTopKComm (Alg. 2) across 2 nodes x 4 GPUs,
//   3. the same aggregation timed on the paper's 16x8 25 GbE cluster.
#include <cmath>
#include <iostream>

#include "collectives/hitopkcomm.h"
#include "compress/exact_topk.h"
#include "compress/mstopk.h"
#include "core/cli.h"
#include "core/rng.h"
#include "core/tensor.h"
#include "simnet/cluster.h"

int run() {
  using namespace hitopk;

  // --- 1. MSTopK vs exact top-k ------------------------------------------
  const size_t d = 1 << 20;  // 1M-element gradient
  const size_t k = d / 1000; // rho = 0.001
  Rng rng(42);
  Tensor gradient(d);
  gradient.fill_normal(rng, 0.0f, 1.0f);

  compress::MsTopK mstopk(/*n_samplings=*/30, /*seed=*/1);
  const auto approx = mstopk.compress(gradient.span(), k);
  const auto exact = compress::exact_topk(gradient.span(), k);

  double approx_mass = 0.0, exact_mass = 0.0;
  for (float v : approx.values) approx_mass += std::fabs(v);
  for (float v : exact.values) exact_mass += std::fabs(v);
  std::cout << "MSTopK selected " << approx.nnz() << " of " << d
            << " elements, capturing "
            << 100.0 * approx_mass / exact_mass
            << "% of the exact top-k magnitude mass\n";

  // --- 2. functional HiTopKComm on a small cluster -----------------------
  const simnet::Topology small = simnet::Topology::tencent_cloud(2, 4);
  simnet::Cluster cluster(small);
  std::vector<Tensor> worker_grads;
  Tensor dense_sum(1 << 12);
  for (int r = 0; r < small.world_size(); ++r) {
    Tensor g(1 << 12);
    g.fill_normal(rng, 0.0f, 1.0f);
    dense_sum += g;
    worker_grads.push_back(std::move(g));
  }
  coll::RankData spans;
  for (auto& g : worker_grads) spans.push_back(g.span());
  coll::HiTopKOptions options;
  options.density = 0.05;
  coll::hitopk_comm(cluster, spans, 1 << 12, options, 0.0);

  size_t nnz = 0;
  double captured = 0.0, total = 0.0;
  for (size_t i = 0; i < dense_sum.size(); ++i) {
    total += std::fabs(dense_sum[i]);
    if (worker_grads[0][i] != 0.0f) {
      ++nnz;
      captured += std::fabs(dense_sum[i]);
    }
  }
  std::cout << "HiTopKComm aggregated 8 workers' gradients: " << nnz
            << " nonzeros (density " << options.density << "), capturing "
            << 100.0 * captured / total << "% of the dense-sum mass\n";

  // --- 3. timing on the paper's cluster ----------------------------------
  simnet::Cluster big(simnet::Topology::tencent_cloud(16, 8));
  coll::HiTopKOptions paper;
  paper.density = 0.01;
  paper.value_wire = coll::WireDtype::kFp16;
  const auto timing = coll::hitopk_comm(big, {}, 25'000'000, paper, 0.0);
  std::cout << "On 16 nodes x 8 V100s over 25GbE, aggregating a 25M-param "
               "gradient takes "
            << timing.total * 1e3 << " ms (inter-node All-Gather: "
            << timing.inter_allgather * 1e3 << " ms)\n";
  return 0;
}

int main() { return hitopk::run_main(run); }
