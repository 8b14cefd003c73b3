// Multi-tenant conformance suite: the per-flow reservation API, cross-job
// processor sharing, per-job accounting, gang placement policies, the job
// scheduler event loop, FaultPlan interplay, the contention-aware planner
// entry point, and the Poisson trace-replay harness.
//
// The two contracts everything here leans on:
//
//   single-tenant identity — a single job on an idle cluster takes the
//     exclusive-port arithmetic path: any job id reproduces the
//     single-tenant clocks bit for bit;
//   processor sharing — flows of different jobs overlapping on a NIC
//     split its rate: with matched per-flow and aggregate rates, two jobs
//     alternating transfers through one NIC finish their n-th transfers at
//     exactly (2n-1)*T and 2n*T (each job ~2x its isolated pace).
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "collectives/planner.h"
#include "core/check.h"
#include "simnet/cluster.h"
#include "simnet/fault.h"
#include "simnet/job_scheduler.h"
#include "train/tenant.h"

namespace hitopk::simnet {
namespace {

Topology tiny() {
  return Topology(2, 2, LinkParams{1e-6, 1e-9}, LinkParams{1e-5, 1e-8});
}

// 4 nodes x 4 GPUs in two 2-node pods over a 2:1 oversubscribed tree.
Topology podded() {
  return Topology(4, 4, LinkParams{1e-6, 1e-9}, LinkParams{1e-5, 1e-8},
                  /*nic_beta=*/0.0, /*oversubscription=*/2.0,
                  /*nodes_per_pod=*/2);
}

// ------------------------------------------------- flow API identity

TEST(FlowApi, JobIdInvariantOnIdleCluster) {
  // A lone tenant's clocks must not depend on its job id: job 7 on a fresh
  // cluster replays the default-job arithmetic exactly.
  Cluster a(tiny());
  Cluster b(tiny());
  const std::vector<Flow> flows = {
      {kDefaultJob, 0, 2, 4096, 0.0, 0.0}, {kDefaultJob, 2, 0, 512, 0.0, 0.0},
      {kDefaultJob, 0, 1, 100, 1e-5, 0.0}, {kDefaultJob, 1, 3, 2048, 0.0, 1e-6},
      {kDefaultJob, 3, 2, 4096, 2e-4, 0.0},
  };
  for (const Flow& f : flows) {
    Flow tagged = f;
    tagged.job = 7;
    const FlowOutcome oa = a.submit(f);
    const FlowOutcome ob = b.submit(tagged);
    EXPECT_EQ(oa.time, ob.time);
    EXPECT_EQ(oa.start, ob.start);
    EXPECT_EQ(oa.share, ob.share);
  }
  EXPECT_EQ(a.quiescent_time(), b.quiescent_time());
}

// ------------------------------------------------- processor sharing

TEST(ProcessorSharing, TwoJobsAlternatingOneNicExactTwoX) {
  // Matched per-flow and aggregate NIC rates, zero latency: one flow of B
  // bytes takes T = beta*B alone.  Jobs 1 and 2 send disjoint GPU pairs
  // across the same node pair, alternating, each flow ready when the job's
  // previous flow finished.  The reservation algebra gives exactly
  //   job1: T, 3T, 5T     job2: 2T, 4T, 6T
  // (each job's n-th flow at ~2x its isolated pace nT, the
  // processor-sharing invariant; the first submission is the unstretched
  // first-comer).
  const double beta = 1e-8;
  const size_t bytes = 1 << 20;
  const double T = beta * static_cast<double>(bytes);
  Topology topo(2, 2, LinkParams{1e-6, 1e-9}, LinkParams{0.0, beta});
  Cluster cluster(topo);

  double a = 0.0, b = 0.0;
  FlowOutcome oa, ob;
  for (int n = 1; n <= 3; ++n) {
    oa = cluster.submit({1, 0, 2, bytes, a, 0.0});
    a = oa.time;
    ob = cluster.submit({2, 1, 3, bytes, b, 0.0});
    b = ob.time;
    EXPECT_DOUBLE_EQ(a, (2.0 * n - 1.0) * T) << "job1 flow " << n;
    EXPECT_DOUBLE_EQ(b, 2.0 * n * T) << "job2 flow " << n;
  }
  EXPECT_DOUBLE_EQ(oa.share, 2.0);
  EXPECT_DOUBLE_EQ(ob.share, 2.0);

  // Isolated reference: the same three flows alone finish at 3T — the
  // shared run is within [1.67x, 2x] of isolated, converging to 2x.
  Cluster alone(topo);
  double iso = 0.0;
  for (int n = 0; n < 3; ++n) iso = alone.submit({1, 0, 2, bytes, iso}).time;
  EXPECT_DOUBLE_EQ(iso, 3.0 * T);
  EXPECT_NEAR(a / iso, 2.0, 0.35);
  EXPECT_NEAR(b / iso, 2.0, 0.01);
}

TEST(ProcessorSharing, ThreeJobsShareAtOneThird) {
  const double beta = 1e-8;
  const size_t bytes = 1 << 20;
  const double T = beta * static_cast<double>(bytes);
  Topology topo(2, 3, LinkParams{1e-6, 1e-9}, LinkParams{0.0, beta});
  Cluster cluster(topo);
  // Jobs 1..3 each start one flow at t=0 over disjoint GPU pairs; the
  // second and third see 1 and 2 earlier reservations respectively.
  EXPECT_DOUBLE_EQ(cluster.submit({1, 0, 3, bytes, 0.0}).time, T);
  EXPECT_DOUBLE_EQ(cluster.submit({2, 1, 4, bytes, 0.0}).time, 2.0 * T);
  const FlowOutcome third = cluster.submit({3, 2, 5, bytes, 0.0});
  EXPECT_DOUBLE_EQ(third.share, 3.0);
  EXPECT_DOUBLE_EQ(third.time, 3.0 * T);
}

TEST(ProcessorSharing, IntraNodeFlowsNeverShare) {
  // NVLink peer ports are tenant-exclusive per rank; two jobs moving data
  // inside a node see no share factor.
  Cluster cluster(tiny());
  const FlowOutcome a = cluster.submit({1, 0, 1, 1 << 20, 0.0});
  const FlowOutcome b = cluster.submit({2, 1, 0, 1 << 20, 0.0});
  EXPECT_DOUBLE_EQ(a.share, 1.0);
  EXPECT_DOUBLE_EQ(b.share, 1.0);
  EXPECT_FALSE(a.inter_node);
}

// ------------------------------------------------- per-job accounting

TEST(Accounting, PerJobBytesSumToTotals) {
  Cluster cluster(tiny());
  cluster.submit({1, 0, 2, 1000, 0.0});  // inter
  cluster.submit({1, 0, 1, 500, 0.0});   // intra
  cluster.submit({2, 1, 3, 300, 0.0});   // inter
  cluster.submit({kDefaultJob, 2, 3, 50, 0.0});  // intra, default lane
  EXPECT_EQ(cluster.inter_node_bytes(), 1300u);
  EXPECT_EQ(cluster.intra_node_bytes(), 550u);
  EXPECT_EQ(cluster.inter_node_bytes(1), 1000u);
  EXPECT_EQ(cluster.intra_node_bytes(1), 500u);
  EXPECT_EQ(cluster.inter_node_bytes(2), 300u);
  EXPECT_EQ(cluster.inter_node_bytes(kDefaultJob), 0u);
  EXPECT_EQ(cluster.intra_node_bytes(kDefaultJob), 50u);
  EXPECT_EQ(cluster.traffic_jobs(), (std::vector<int>{0, 1, 2}));

  size_t inter_sum = 0, intra_sum = 0;
  for (int job : cluster.traffic_jobs()) {
    inter_sum += cluster.inter_node_bytes(job);
    intra_sum += cluster.intra_node_bytes(job);
  }
  EXPECT_EQ(inter_sum, cluster.inter_node_bytes());
  EXPECT_EQ(intra_sum, cluster.intra_node_bytes());
}

TEST(Accounting, ChromeTraceGetsPerJobTracks) {
  Cluster cluster(tiny());
  cluster.enable_tracing();
  cluster.submit({1, 0, 2, 1000, 0.0});
  cluster.submit({2, 1, 3, 2000, 0.0});
  std::ostringstream os;
  cluster.write_chrome_trace(os, "mt");
  const std::string json = os.str();
  EXPECT_NE(json.find("mt/job1"), std::string::npos);
  EXPECT_NE(json.find("mt/job2"), std::string::npos);
  EXPECT_NE(json.find("\"share\""), std::string::npos);
  // Balanced braces/brackets (same check as the tracing test).
  int depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);

  // Single-tenant traces keep the original one-process layout.
  Cluster solo(tiny());
  solo.enable_tracing();
  solo.submit({.src = 0, .dst = 2, .bytes = 1000});
  std::ostringstream os2;
  solo.write_chrome_trace(os2, "mt");
  EXPECT_EQ(os2.str().find("/job"), std::string::npos);
}

// ------------------------------------------------- placement policies

TEST(Placement, LocalityAwarePrefersOneNodeThenOnePod) {
  Cluster cluster(podded());
  JobScheduler sched(cluster, {PlacementPolicy::kLocalityAware, true});
  const std::vector<int> gang4 = sched.place(4);
  ASSERT_EQ(gang4.size(), 4u);
  const Topology& topo = cluster.topology();
  for (int r : gang4) EXPECT_TRUE(topo.same_node(gang4[0], r));
  const std::vector<int> gang8 = sched.place(8);
  ASSERT_EQ(gang8.size(), 8u);
  for (int r : gang8) {
    EXPECT_TRUE(topo.same_pod(topo.node_of(gang8[0]), topo.node_of(r)));
  }
}

TEST(Placement, SpreadMaximizesNodeFanout) {
  Cluster cluster(podded());
  JobScheduler sched(cluster, {PlacementPolicy::kSpread, true});
  const std::vector<int> gang4 = sched.place(4);
  ASSERT_EQ(gang4.size(), 4u);
  const Topology& topo = cluster.topology();
  for (size_t i = 0; i < gang4.size(); ++i) {
    for (size_t j = i + 1; j < gang4.size(); ++j) {
      EXPECT_FALSE(topo.same_node(gang4[i], gang4[j]));
    }
  }
}

TEST(Placement, PackByPodStaysInsideOnePod) {
  Cluster cluster(podded());
  JobScheduler sched(cluster, {PlacementPolicy::kPackByPod, true});
  const std::vector<int> gang8 = sched.place(8);
  ASSERT_EQ(gang8.size(), 8u);
  const Topology& topo = cluster.topology();
  for (int r : gang8) {
    EXPECT_TRUE(topo.same_pod(topo.node_of(gang8[0]), topo.node_of(r)));
  }
}

TEST(Placement, ReturnsEmptyWhenFullAndThrowsWhenImpossible) {
  Cluster cluster(tiny());
  JobScheduler sched(cluster, {});
  EXPECT_EQ(sched.place(4).size(), 4u);  // fits an empty world
  EXPECT_THROW(sched.place(5), CheckError);
}

// ------------------------------------------------- scheduler event loop

JobBody unit_iteration_body() {
  // One second per iteration, no flows — isolates the queueing logic.
  return [](Cluster&, const JobSpec&, const std::vector<int>&, double start) {
    return JobIteration{start + 1.0, false};
  };
}

TEST(Scheduler, SerializesFullWorldGangs) {
  Cluster cluster(tiny());
  JobScheduler sched(cluster, {});
  std::vector<JobSpec> jobs(2);
  jobs[0] = {1, 0.0, 4, 2, 0, 0.0};
  jobs[1] = {2, 0.5, 4, 3, 0, 0.0};
  const auto records = sched.run(jobs, unit_iteration_body());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_DOUBLE_EQ(records[0].start, 0.0);
  EXPECT_DOUBLE_EQ(records[0].finish, 2.0);
  EXPECT_EQ(records[0].iterations_done, 2);
  // Job 2 queues behind job 1's full-world gang.
  EXPECT_DOUBLE_EQ(records[1].start, 2.0);
  EXPECT_DOUBLE_EQ(records[1].finish, 5.0);
  EXPECT_DOUBLE_EQ(records[1].queued_seconds(), 1.5);
  EXPECT_DOUBLE_EQ(records[1].jct(), 4.5);
}

TEST(Scheduler, BackfillLetsSmallJobsPassBlockedHead) {
  std::vector<JobSpec> jobs(3);
  jobs[0] = {1, 0.0, 2, 2, 0, 0.0};   // half the world, runs [0, 2)
  jobs[1] = {2, 0.1, 4, 1, 0, 0.0};   // full world: blocked until job 1 ends
  jobs[2] = {3, 0.2, 2, 1, 0, 0.0};   // fits beside job 1

  Cluster with(tiny());
  const auto backfilled =
      JobScheduler(with, {PlacementPolicy::kPackByPod, true})
          .run(jobs, unit_iteration_body());
  EXPECT_DOUBLE_EQ(backfilled[2].start, 0.2);   // jumped the blocked head
  EXPECT_DOUBLE_EQ(backfilled[1].start, 2.0);

  Cluster without(tiny());
  const auto fifo = JobScheduler(without, {PlacementPolicy::kPackByPod, false})
                        .run(jobs, unit_iteration_body());
  EXPECT_DOUBLE_EQ(fifo[1].start, 2.0);
  EXPECT_GE(fifo[2].start, fifo[1].start);  // strict FIFO: waits its turn
}

TEST(Scheduler, FaultAbortsOnlyJobsPlacedOnDeadRank) {
  // Rank 3 is preempted from the start.  Two 2-GPU jobs under locality
  // placement land on node 0 (ranks 0,1) and node 1 (ranks 2,3); only the
  // job holding rank 3 aborts, and its gang frees for the next arrival.
  FaultPlan plan;
  plan.preempt(3, 0.0);
  Cluster cluster(tiny());
  cluster.set_fault_plan(&plan);
  JobScheduler sched(cluster, {PlacementPolicy::kLocalityAware, true});

  const JobBody body = [](Cluster& c, const JobSpec& spec,
                          const std::vector<int>& ranks, double start) {
    const FlowOutcome out =
        c.submit({spec.id, ranks[0], ranks[1], 1 << 16, start});
    return JobIteration{out.time, !out.delivered};
  };
  std::vector<JobSpec> jobs(3);
  jobs[0] = {1, 0.0, 2, 2, 0, 0.0};
  jobs[1] = {2, 0.0, 2, 2, 0, 0.0};
  jobs[2] = {3, 1.0, 2, 1, 0, 0.0};  // arrives late, reuses a freed gang
  const auto records = sched.run(jobs, body);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_FALSE(records[0].aborted);
  EXPECT_EQ(records[0].iterations_done, 2);
  EXPECT_TRUE(records[1].aborted);
  EXPECT_EQ(records[1].iterations_done, 0);
  ASSERT_EQ(records[1].ranks.size(), 2u);
  EXPECT_EQ(records[1].ranks[1], 3);
  EXPECT_FALSE(records[2].aborted);
}

// ------------------------------------------------- trace generation/replay

TEST(TraceReplay, GeneratorIsSeedDeterministic) {
  TraceOptions options;
  options.jobs = 40;
  options.seed = 77;
  const auto a = generate_trace(options);
  const auto b = generate_trace(options);
  ASSERT_EQ(a.size(), 40u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].gpus, b[i].gpus);
    EXPECT_EQ(a[i].iterations, b[i].iterations);
    EXPECT_GE(a[i].id, 1);  // tenant ids never alias kDefaultJob
  }
  options.seed = 78;
  const auto c = generate_trace(options);
  bool differs = false;
  for (size_t i = 0; i < a.size(); ++i) {
    differs = differs || a[i].arrival != c[i].arrival || a[i].gpus != c[i].gpus;
  }
  EXPECT_TRUE(differs);
}

TEST(TraceReplay, SmokeReplayUnderPinnedSeed) {
  // The CI legs pin HITOPK_FIG12_SEED; this smoke replay follows the same
  // seed so release and sanitizer builds replay one identical trace.
  uint64_t seed = 20260807ull;
  if (const char* env = std::getenv("HITOPK_FIG12_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
  }
  TraceOptions options;
  options.jobs = 16;
  options.seed = seed;
  options.gang_sizes = {2, 4, 8};
  options.bytes_per_gpu = 4 << 20;
  options.mean_interarrival_seconds = 0.02;
  const auto trace = generate_trace(options);

  train::TenantWorkload workload;
  workload.resolution = 96;
  const JobBody body = train::make_tenant_body(workload);
  const Topology topo = podded();
  const ReplayMetrics metrics =
      replay_trace(topo, trace, body, PlacementPolicy::kLocalityAware);
  ASSERT_EQ(metrics.records.size(), trace.size());
  EXPECT_GT(metrics.makespan, 0.0);
  EXPECT_GT(metrics.goodput, 0.0);
  EXPECT_GE(metrics.mean_slowdown, 1.0);  // queueing + contention only slow
  EXPECT_GE(metrics.p99_jct, metrics.p95_jct);
  EXPECT_GE(metrics.p95_jct, metrics.p50_jct);
  for (const JobRecord& rec : metrics.records) {
    EXPECT_FALSE(rec.aborted);
    EXPECT_EQ(rec.iterations_done, rec.spec.iterations);
    EXPECT_GT(rec.spec.isolated_seconds, 0.0);
    EXPECT_GE(rec.jct(), 0.0);
  }

  // Same trace, same policy: the replay itself is deterministic.
  const ReplayMetrics again =
      replay_trace(topo, trace, body, PlacementPolicy::kLocalityAware);
  EXPECT_EQ(metrics.makespan, again.makespan);
  EXPECT_EQ(metrics.mean_slowdown, again.mean_slowdown);
  EXPECT_EQ(metrics.p99_jct, again.p99_jct);
}

// ------------------------------------------------- contention-aware planner

TEST(LivePlanner, IdleClusterPinnedToTopologyWinners) {
  const Topology topo = podded();
  coll::Planner by_topo;
  coll::Planner by_cluster;
  const coll::PlanChoice a = by_topo.plan(topo, 1 << 18);
  Cluster idle(topo);
  const coll::PlanChoice b = by_cluster.plan(idle, 1 << 18);
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.ring_order, b.ring_order);
  EXPECT_EQ(a.predicted_seconds, b.predicted_seconds);
  EXPECT_EQ(a.flat_ring_seconds, b.flat_ring_seconds);
  // The delegated call populates the same cache as the topology path.
  const coll::PlanChoice c = by_cluster.plan(idle, 1 << 18);
  EXPECT_TRUE(c.cache_hit);
}

TEST(LivePlanner, LoadSlowsTheRingAndNeverLosesToIt) {
  const Topology topo = podded();
  coll::Planner planner;
  const coll::PlanChoice idle = planner.plan(topo, 1 << 18);

  Cluster loaded(topo);
  // A background tenant holds long reservations on every NIC lane.
  for (int node = 0; node + 1 < topo.nodes(); ++node) {
    loaded.submit({1, topo.rank_of(node, 0), topo.rank_of(node + 1, 0),
                   32 << 20, 0.0});
  }
  const coll::PlanChoice live =
      planner.plan(loaded, 1 << 18, 1.0, /*job=*/2, /*start=*/0.0);
  EXPECT_FALSE(live.cache_hit);
  EXPECT_LE(live.predicted_seconds, live.flat_ring_seconds);
  EXPECT_GE(live.flat_ring_seconds, idle.flat_ring_seconds);
  // Scoring is what-if only: the live cluster's state is untouched, so a
  // fresh idle plan from the same planner still matches the pinned one.
  EXPECT_EQ(planner.plan(topo, 1 << 18).predicted_seconds,
            idle.predicted_seconds);
}

}  // namespace
}  // namespace hitopk::simnet
