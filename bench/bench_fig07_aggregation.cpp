// Fig. 7: gradient aggregation time of NaiveAG, TreeAR, 2DTAR, and
// HiTopKComm on the 16x8 Tencent Cloud cluster, FP16 payloads, sparse
// density rho = 0.01.  Panel (a): 1-15 M elements; panel (b): 50-250 M.
//
// Expected shape: NaiveAG worst (flat world-scale sparse All-Gather),
// TreeAR next (flat tree over the slow NICs), 2DTAR better (hierarchical
// dense), HiTopKComm best.
//
// A functional panel measures the *functional* data path (real buffers
// moved on this host, not simulated clocks): the wall time of each
// collective's schedule replay plus data pass on a 4x4 cluster.
//
// Two topology-axis panels exercise the generalized simnet::Topology:
//   (c) a 4:1-oversubscribed fat tree (16 nodes x 8 GPUs in 4-node pods,
//       Tencent-like links) comparing the flat world ring against
//       BlueConnect's nested-ring decomposition — auto {8,16} and the
//       rack-aware {8,4,4} — plus 2DTAR for context.  The recorded
//       "speedup" (flat ring / BlueConnect) is what the perf gate pins:
//       BlueConnect must keep beating the flat ring here.
//   (d) an uneven cluster ({8,8,4,4} GPUs per node) running the
//       world-shaped collectives that support heterogeneous nodes:
//       HierAR, NaiveAG, and folded gTop-k.
//
// Everything is emitted to BENCH_fig07.json (schema in
// docs/REPRODUCING.md) for the CI perf gate.
//
// Flags: --functional_elems=N (default 1M)  --reps=N (default 3)
//        --json=PATH (default BENCH_fig07.json; empty disables)
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "collectives/blueconnect.h"
#include "collectives/gtopk.h"
#include "collectives/hier_allreduce.h"
#include "collectives/hitopkcomm.h"
#include "collectives/naive_allgather.h"
#include "collectives/planner.h"
#include "collectives/ring.h"
#include "collectives/torus2d.h"
#include "collectives/tree_allreduce.h"
#include "core/cli.h"
#include "core/flags.h"
#include "core/rng.h"
#include "core/table.h"
#include "core/tensor.h"

namespace {

using namespace hitopk;
using namespace hitopk::coll;
using hitopk::simnet::Cluster;
using hitopk::simnet::LinkParams;
using hitopk::simnet::Topology;

struct SimRow {
  size_t elems;
  double naive, tree, torus, hitopk;
};

std::vector<SimRow> run_sim_panel(const Topology& topo,
                                  std::span<const size_t> sizes) {
  const size_t fp16 = 2;
  const double density = 0.01;
  std::vector<SimRow> rows;
  for (size_t elems : sizes) {
    SimRow row;
    row.elems = elems;
    Cluster c_naive(topo);
    row.naive =
        naive_sparse_allgather_time(
            c_naive,
            static_cast<size_t>(density * static_cast<double>(elems)), fp16,
            0.0, 0.0)
            .total;
    Cluster c_tree(topo);
    TreeOptions tree_options;
    tree_options.wire = WireDtype::kFp16;
    row.tree = tree_allreduce(c_tree, world_group(topo), {}, elems,
                              tree_options, 0.0);
    Cluster c_torus(topo);
    row.torus = torus2d_allreduce(c_torus, {}, elems, WireDtype::kFp16, 0.0).total;
    Cluster c_hitopk(topo);
    HiTopKOptions options;
    options.density = density;
    options.value_wire = WireDtype::kFp16;
    row.hitopk = hitopk_comm(c_hitopk, {}, elems, options, 0.0).total;
    rows.push_back(row);
  }
  return rows;
}

// ---- topology-axis panels -----------------------------------------------

// Tencent-like link parameters, reused for the new scenario topologies.
Topology cloud_fabric(int nodes, int gpus, double oversubscription,
                      int nodes_per_pod) {
  const double nic_beta = 1.0 / (25.0 / 8 * 1e9 * 0.55);  // 25 GbE @ 55%
  return Topology(nodes, gpus, LinkParams{6e-6, 1.0 / 45e9},
                  LinkParams{25e-6, 1.0 / 1.2e9}, nic_beta, oversubscription,
                  nodes_per_pod);
}

struct FatTreeRow {
  size_t elems;
  double flat_ring, blueconnect, blueconnect_rack, torus;
  double speedup() const { return flat_ring / blueconnect; }
};

// 16 nodes x 8 GPUs in 4-node pods, 4:1 oversubscribed uplinks.  The flat
// world-scale ring is stuck at one per-flow TCP stream per node; the
// BlueConnect decompositions open 8 concurrent flows per NIC and keep the
// bulk of the bytes on NVLink.
std::vector<FatTreeRow> run_fat_tree_panel(std::span<const size_t> sizes) {
  const Topology topo = cloud_fabric(16, 8, /*oversubscription=*/4.0,
                                     /*nodes_per_pod=*/4);
  std::vector<FatTreeRow> rows;
  for (size_t elems : sizes) {
    FatTreeRow row;
    row.elems = elems;
    Cluster c_ring(topo);
    row.flat_ring =
        ring_allreduce(c_ring, world_group(topo), {}, elems, WireDtype::kFp16, 0.0);
    Cluster c_bc(topo);
    BlueConnectOptions bc;  // auto {gpus_per_node, nodes}
    bc.wire = WireDtype::kFp16;
    row.blueconnect = blueconnect_allreduce(c_bc, {}, elems, bc, 0.0).total;
    Cluster c_rack(topo);
    BlueConnectOptions rack;
    rack.factors = {8, 4, 4};  // {gpus, nodes-per-pod, pods}
    rack.wire = WireDtype::kFp16;
    row.blueconnect_rack =
        blueconnect_allreduce(c_rack, {}, elems, rack, 0.0).total;
    Cluster c_torus(topo);
    row.torus = torus2d_allreduce(c_torus, {}, elems, WireDtype::kFp16, 0.0).total;
    rows.push_back(row);
  }
  return rows;
}

struct UnevenRow {
  size_t elems;
  double hier, naive, gtopk;
};

// Heterogeneous fleet: two 8-GPU and two 4-GPU nodes (the transient-server
// scenario).  Only node-shape-agnostic collectives run here; gTop-k's
// world size (24) exercises the non-power-of-two fold.
std::vector<UnevenRow> run_uneven_panel(std::span<const size_t> sizes) {
  const double nic_beta = 1.0 / (25.0 / 8 * 1e9 * 0.55);
  const Topology topo(std::vector<int>{8, 8, 4, 4},
                      LinkParams{6e-6, 1.0 / 45e9},
                      LinkParams{25e-6, 1.0 / 1.2e9}, nic_beta);
  const double density = 0.01;
  std::vector<UnevenRow> rows;
  for (size_t elems : sizes) {
    UnevenRow row;
    row.elems = elems;
    Cluster c_hier(topo);
    row.hier = hier_allreduce(c_hier, {}, elems, WireDtype::kFp16, 0.0).total;
    Cluster c_naive(topo);
    row.naive = naive_sparse_allgather_time(
                    c_naive,
                    static_cast<size_t>(density * static_cast<double>(elems)),
                    2, 0.0, 0.0)
                    .total;
    Cluster c_gtopk(topo);
    GtopkOptions gtopk;
    gtopk.density = density;
    gtopk.value_wire_bytes = 2;
    row.gtopk = gtopk_comm(c_gtopk, {}, elems, gtopk, 0.0).total;
    rows.push_back(row);
  }
  return rows;
}

// ---- planner panel ------------------------------------------------------

struct PlannerRow {
  std::string topology;
  size_t elems;
  double flat_ring, planned;
  std::string chosen;
  double speedup;
};

// Panel (e): the cost-model-driven planner (collectives/planner.h) against
// the fixed flat ring, across the gated topologies and the
// latency->bandwidth size range.  32K elements is the latency-bound
// small-message row (recursive halving-doubling territory); 64M is the
// bandwidth-bound regime where the hierarchy-aligned decompositions win.
// The planner never loses to the flat ring by construction; the refs pin
// *which* schedule it picks and by how much.
std::vector<PlannerRow> run_planner_panel() {
  struct Scenario {
    const char* name;
    Topology topo;
  };
  const double nic_beta = 1.0 / (25.0 / 8 * 1e9 * 0.55);
  const std::vector<Scenario> scenarios = {
      {"tencent_16x8", Topology::tencent_cloud(16, 8)},
      {"fat_tree_4to1", cloud_fabric(16, 8, 4.0, 4)},
      {"fat_tree_8to1", cloud_fabric(16, 8, 8.0, 4)},
      {"uneven_8_8_4_4",
       Topology(std::vector<int>{8, 8, 4, 4}, LinkParams{6e-6, 1.0 / 45e9},
                LinkParams{25e-6, 1.0 / 1.2e9}, nic_beta)},
  };
  const size_t sizes[] = {32u << 10, 1u << 20, 16u << 20, 64u << 20};
  PlannerOptions options;
  options.wire = WireDtype::kFp16;
  std::vector<PlannerRow> rows;
  for (const Scenario& s : scenarios) {
    Planner planner(options);
    for (size_t elems : sizes) {
      const PlanChoice choice = planner.plan(s.topo, elems);
      rows.push_back({s.name, elems, choice.flat_ring_seconds,
                      choice.predicted_seconds, choice.name,
                      choice.speedup()});
    }
  }
  return rows;
}

// ---- functional wall-time panel -----------------------------------------

struct FunctionalRow {
  std::string name;
  double wall_s = 0.0;
};

// Measures `fn(data)` wall time: buffers are re-seeded before every
// repetition (outside the timed region) so each run aggregates the same
// gradients from the same starting state.  One warm-up run is discarded
// and the minimum of `reps` timed runs is reported — on a shared host,
// runs drift with neighbor load, and min-of-reps is the standard
// noise-robust wall estimator.
template <typename Fn>
FunctionalRow measure_functional(const std::string& name, const Topology& topo,
                                 size_t elems, int reps, Fn&& fn) {
  using clock = std::chrono::steady_clock;
  std::vector<Tensor> originals;
  Rng rng(2024);
  for (int r = 0; r < topo.world_size(); ++r) {
    Tensor t(elems);
    t.fill_normal(rng, 0.0f, 1.0f);
    originals.push_back(std::move(t));
  }
  std::vector<Tensor> scratch = originals;
  FunctionalRow row;
  row.name = name;
  for (int rep = 0; rep < reps + 1; ++rep) {
    for (size_t r = 0; r < originals.size(); ++r) {
      std::copy(originals[r].span().begin(), originals[r].span().end(),
                scratch[r].span().begin());
    }
    RankData spans;
    for (auto& t : scratch) spans.push_back(t.span());
    Cluster cluster(topo);
    const auto begin = clock::now();
    fn(cluster, spans);
    const double seconds =
        std::chrono::duration<double>(clock::now() - begin).count();
    if (rep == 0) continue;  // warm-up
    row.wall_s = row.wall_s == 0.0 ? seconds : std::min(row.wall_s, seconds);
  }
  return row;
}

std::vector<FunctionalRow> run_functional_panel(size_t elems, int reps) {
  // Same fast-intra / slow-inter imbalance as the cloud topology, scaled to
  // a 4x4 cluster so 16 full-size rank buffers fit comfortably in memory.
  const Topology topo(4, 4, LinkParams{1e-6, 1e-9}, LinkParams{1e-5, 1e-8});
  std::vector<FunctionalRow> rows;
  rows.push_back(measure_functional(
      "TreeAR", topo, elems, reps, [&](Cluster& c, const RankData& data) {
        tree_allreduce(c, world_group(c.topology()), data, elems,
                       TreeOptions{}, 0.0);
      }));
  rows.push_back(measure_functional(
      "2DTAR", topo, elems, reps, [&](Cluster& c, const RankData& data) {
        torus2d_allreduce(c, data, elems, WireDtype::kFp32, 0.0);
      }));
  rows.push_back(measure_functional(
      "HierAR", topo, elems, reps, [&](Cluster& c, const RankData& data) {
        hier_allreduce(c, data, elems, WireDtype::kFp32, 0.0);
      }));
  rows.push_back(measure_functional(
      "HiTopKComm", topo, elems, reps, [&](Cluster& c, const RankData& data) {
        HiTopKOptions options;
        options.density = 0.01;
        hitopk_comm(c, data, elems, options, 0.0);
      }));
  // Quantized row: the same hierarchical aggregation with the sparse
  // values crossing an fp16 wire (dense step-1 leg included), so the
  // codec's CPU cost shows next to the fp32 row.
  rows.push_back(measure_functional(
      "HiTopKComm_fp16", topo, elems, reps,
      [&](Cluster& c, const RankData& data) {
        HiTopKOptions options;
        options.density = 0.01;
        options.value_wire = WireDtype::kFp16;
        hitopk_comm(c, data, elems, options, 0.0);
      }));
  return rows;
}

void write_json(const std::string& path, const std::vector<SimRow>& small,
                const std::vector<SimRow>& large,
                const std::vector<FatTreeRow>& fat_tree,
                const std::vector<UnevenRow>& uneven,
                const std::vector<PlannerRow>& planner,
                const std::vector<FunctionalRow>& functional, size_t elems,
                int reps) {
  std::FILE* json = std::fopen(path.c_str(), "w");
  if (json == nullptr) return;
  auto panel = [&](const char* name, const std::vector<SimRow>& rows,
                   const char* tail) {
    std::fprintf(json, "    \"%s\": [\n", name);
    for (size_t i = 0; i < rows.size(); ++i) {
      const SimRow& r = rows[i];
      std::fprintf(json,
                   "      {\"elems_m\": %zu, \"naive\": %.9g, \"tree\": "
                   "%.9g, \"torus\": %.9g, \"hitopk\": %.9g}%s\n",
                   r.elems >> 20, r.naive, r.tree, r.torus, r.hitopk,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(json, "    ]%s\n", tail);
  };
  std::fprintf(json, "{\n  \"bench\": \"fig07_aggregation\",\n  \"sim\": {\n");
  panel("small", small, ",");
  panel("large", large, ",");
  std::fprintf(json, "    \"fat_tree\": [\n");
  for (size_t i = 0; i < fat_tree.size(); ++i) {
    const FatTreeRow& r = fat_tree[i];
    std::fprintf(json,
                 "      {\"elems_m\": %zu, \"flat_ring\": %.9g, "
                 "\"blueconnect\": %.9g, \"blueconnect_rack\": %.9g, "
                 "\"torus\": %.9g, \"speedup\": %.3f}%s\n",
                 r.elems >> 20, r.flat_ring, r.blueconnect,
                 r.blueconnect_rack, r.torus, r.speedup(),
                 i + 1 < fat_tree.size() ? "," : "");
  }
  std::fprintf(json, "    ],\n    \"uneven\": [\n");
  for (size_t i = 0; i < uneven.size(); ++i) {
    const UnevenRow& r = uneven[i];
    std::fprintf(json,
                 "      {\"elems_m\": %zu, \"hier\": %.9g, \"naive\": %.9g, "
                 "\"gtopk\": %.9g}%s\n",
                 r.elems >> 20, r.hier, r.naive, r.gtopk,
                 i + 1 < uneven.size() ? "," : "");
  }
  std::fprintf(json, "    ],\n    \"planner\": [\n");
  for (size_t i = 0; i < planner.size(); ++i) {
    const PlannerRow& r = planner[i];
    std::fprintf(json,
                 "      {\"topology\": \"%s\", \"elems\": %zu, "
                 "\"flat_ring\": %.9g, \"planned\": %.9g, \"chosen\": "
                 "\"%s\", \"speedup\": %.3f}%s\n",
                 r.topology.c_str(), r.elems, r.flat_ring, r.planned,
                 r.chosen.c_str(), r.speedup,
                 i + 1 < planner.size() ? "," : "");
  }
  std::fprintf(json, "    ]\n");
  std::fprintf(json,
               "  },\n  \"functional\": {\n    \"topology\": \"4x4\",\n"
               "    \"elems\": %zu,\n    \"reps\": %d,\n"
               "    \"collectives\": {\n",
               elems, reps);
  for (size_t i = 0; i < functional.size(); ++i) {
    const FunctionalRow& r = functional[i];
    std::fprintf(json, "      \"%s\": {\"wall_s\": %.6f}%s\n",
                 r.name.c_str(), r.wall_s,
                 i + 1 < functional.size() ? "," : "");
  }
  std::fprintf(json, "    }\n  }\n}\n");
  std::fclose(json);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int run(int argc, char** argv) {
  const Flags flags(argc, argv);
  const size_t functional_elems = static_cast<size_t>(
      flags.get_int("functional_elems", 1 << 20));
  const int reps = flags.get_int("reps", 3);
  const std::string json_path = flags.get("json", "BENCH_fig07.json");

  std::cout << "=== Fig. 7: aggregation time (16 nodes x 8 GPUs, FP16, "
               "rho=0.01) ===\n\n";
  const Topology topo = Topology::tencent_cloud(16, 8);

  const size_t small[] = {1u << 20, 2u << 20, 5u << 20, 10u << 20, 15u << 20};
  const size_t large[] = {50u << 20, 100u << 20, 150u << 20, 200u << 20,
                          250u << 20};
  const auto small_rows = run_sim_panel(topo, small);
  const auto large_rows = run_sim_panel(topo, large);

  TablePrinter table({"Panel", "Elements", "NaiveAG", "TreeAR", "2DTAR",
                      "HiTopKComm", "best/worst"});
  auto add_rows = [&](const char* panel, const std::vector<SimRow>& rows) {
    for (const SimRow& r : rows) {
      table.add_row({panel, std::to_string(r.elems >> 20) + "M",
                     TablePrinter::fmt(r.naive, 4), TablePrinter::fmt(r.tree, 4),
                     TablePrinter::fmt(r.torus, 4),
                     TablePrinter::fmt(r.hitopk, 4),
                     TablePrinter::fmt(r.naive / r.hitopk, 1) + "x"});
    }
  };
  add_rows("(a) small", small_rows);
  add_rows("(b) large", large_rows);
  table.print(std::cout);
  std::cout << "\nExpected ordering: HiTopKComm < 2DTAR < TreeAR < NaiveAG "
               "(TreeAR converges\ntoward NaiveAG at the largest sizes, "
               "where both are NIC-bandwidth-bound).\n\n";

  std::cout << "=== Topology axis (c): 4:1-oversubscribed fat tree "
               "(16x8, 4-node pods, FP16) ===\n\n";
  const size_t topo_sizes[] = {1u << 20, 4u << 20, 16u << 20, 64u << 20};
  const auto fat_rows = run_fat_tree_panel(topo_sizes);
  TablePrinter fat_table({"Elements", "FlatRing", "BlueConnect{8,16}",
                          "BlueConnect{8,4,4}", "2DTAR", "flat/BC"});
  for (const FatTreeRow& r : fat_rows) {
    fat_table.add_row({std::to_string(r.elems >> 20) + "M",
                       TablePrinter::fmt(r.flat_ring, 4),
                       TablePrinter::fmt(r.blueconnect, 4),
                       TablePrinter::fmt(r.blueconnect_rack, 4),
                       TablePrinter::fmt(r.torus, 4),
                       TablePrinter::fmt(r.speedup(), 2) + "x"});
  }
  fat_table.print(std::cout);
  std::cout << "\nThe flat ring is stuck at one TCP stream per node; "
               "BlueConnect's nested rings\naggregate toward NIC line rate "
               "and keep the bulk on NVLink.  The perf gate pins\nthe "
               "flat/BC speedup.\n\n";

  std::cout << "=== Topology axis (d): uneven cluster {8,8,4,4} GPUs/node "
               "(FP16, rho=0.01) ===\n\n";
  const auto uneven_rows = run_uneven_panel(topo_sizes);
  TablePrinter uneven_table({"Elements", "HierAR", "NaiveAG", "gTop-k(P=24)"});
  for (const UnevenRow& r : uneven_rows) {
    uneven_table.add_row({std::to_string(r.elems >> 20) + "M",
                          TablePrinter::fmt(r.hier, 4),
                          TablePrinter::fmt(r.naive, 4),
                          TablePrinter::fmt(r.gtopk, 4)});
  }
  uneven_table.print(std::cout);
  std::cout << "\ngTop-k folds the 24-rank world into a 16-rank hypercube "
               "(fold + 4 + unfold rounds).\n\n";

  std::cout << "=== Planner (e): cost-model-driven schedule choice vs the "
               "fixed flat ring (FP16) ===\n\n";
  const auto planner_rows = run_planner_panel();
  TablePrinter planner_table(
      {"Topology", "Elements", "FlatRing", "Planned", "Chosen", "speedup"});
  for (const PlannerRow& r : planner_rows) {
    planner_table.add_row(
        {r.topology,
         r.elems >= (1u << 20) ? std::to_string(r.elems >> 20) + "M"
                               : std::to_string(r.elems >> 10) + "K",
         TablePrinter::fmt(r.flat_ring, 4), TablePrinter::fmt(r.planned, 4),
         r.chosen, TablePrinter::fmt(r.speedup, 2) + "x"});
  }
  planner_table.print(std::cout);
  std::cout << "\nThe planner scores every candidate schedule on the "
               "simulated clock and never\nloses to the flat ring; the refs "
               "pin which schedule wins each regime.\n\n";

  std::cout << "=== Functional data path (4x4 cluster, "
            << (functional_elems >> 20) << "M elements, wall time) ===\n\n";
  const auto functional = run_functional_panel(functional_elems, reps);
  TablePrinter ftable({"Collective", "wall (s)"});
  for (const FunctionalRow& r : functional) {
    ftable.add_row({r.name, TablePrinter::fmt(r.wall_s, 4)});
  }
  ftable.print(std::cout);
  std::cout << "\nMin-of-" << reps << " wall time of one call (schedule "
               "timing replay + functional\ndata pass) on this host; "
               "informational, not gated.\n";

  if (!json_path.empty()) {
    write_json(json_path, small_rows, large_rows, fat_rows, uneven_rows,
               planner_rows, functional, functional_elems, reps);
  }
  return 0;
}

int main(int argc, char** argv) {
  return hitopk::run_main([&] { return run(argc, argv); });
}
