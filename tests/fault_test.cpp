// Fault-injection layer: FaultPlan scripts, Cluster::submit fault semantics,
// abortable schedule replay, the typed-error split (CheckError invariants vs
// recoverable ConfigError), and the fault-injected training scenario.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <type_traits>
#include <vector>

#include "collectives/hitopkcomm.h"
#include "collectives/ring.h"
#include "collectives/schedule.h"
#include "core/check.h"
#include "core/tensor.h"
#include "simnet/cluster.h"
#include "simnet/fault.h"
#include "train/scenario.h"

namespace hitopk {
namespace {

using simnet::Cluster;
using simnet::FaultPlan;
using simnet::FaultRates;
using simnet::Flow;
using simnet::FlowOutcome;
using simnet::LinkParams;
using simnet::Topology;

Topology tiny() {
  return Topology(2, 2, LinkParams{1e-6, 1e-9}, LinkParams{1e-5, 1e-8});
}

// ------------------------------------------------------------ FaultPlan
TEST(FaultPlan, EmptyPlanAnswersHealthy) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_TRUE(plan.alive(0, 0.0));
  EXPECT_EQ(plan.next_preemption(0, 0.0), simnet::kNever);
  EXPECT_DOUBLE_EQ(plan.degrade_factor(0, 1.0), 1.0);
  EXPECT_EQ(plan.transient_attempts(0), 0);
}

TEST(FaultPlan, PreemptionWindowAndRecovery) {
  FaultPlan plan;
  plan.preempt(1, 2.0, 5.0);  // dead on [2, 5)
  plan.preempt(2, 3.0);       // dead forever
  EXPECT_FALSE(plan.empty());
  EXPECT_TRUE(plan.alive(1, 1.999));
  EXPECT_FALSE(plan.alive(1, 2.0));
  EXPECT_FALSE(plan.alive(1, 4.999));
  EXPECT_TRUE(plan.alive(1, 5.0));
  EXPECT_FALSE(plan.alive(2, 100.0));
  EXPECT_TRUE(plan.alive(0, 100.0));  // unscripted rank never dies
  EXPECT_DOUBLE_EQ(plan.next_preemption(1, 0.0), 2.0);
  EXPECT_EQ(plan.next_preemption(1, 2.5), simnet::kNever);
  EXPECT_DOUBLE_EQ(plan.next_preemption(2, 3.0), 3.0);
}

TEST(FaultPlan, DegradationWindowsTakeTheMax) {
  FaultPlan plan;
  plan.degrade_node(0, 1.0, 3.0, 2.0);
  plan.degrade_node(0, 2.0, 4.0, 3.0);  // overlaps the first
  EXPECT_DOUBLE_EQ(plan.degrade_factor(0, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(plan.degrade_factor(0, 1.5), 2.0);
  EXPECT_DOUBLE_EQ(plan.degrade_factor(0, 2.5), 3.0);  // max, not product
  EXPECT_DOUBLE_EQ(plan.degrade_factor(0, 3.5), 3.0);
  EXPECT_DOUBLE_EQ(plan.degrade_factor(0, 4.0), 1.0);
  EXPECT_DOUBLE_EQ(plan.degrade_factor(1, 2.5), 1.0);  // other node healthy
}

TEST(FaultPlan, TransientAttemptsAreCounterKeyedAndBounded) {
  FaultPlan plan;
  plan.set_transient(0.5, 1e-3, 3, 77);
  // Pure function of the sequence number: any query order, same answers.
  std::vector<int> forward, backward;
  for (uint64_t s = 0; s < 200; ++s) forward.push_back(plan.transient_attempts(s));
  for (uint64_t s = 200; s-- > 0;) backward.push_back(plan.transient_attempts(s));
  for (size_t i = 0; i < 200; ++i) EXPECT_EQ(forward[i], backward[199 - i]);
  int max_seen = 0, nonzero = 0;
  for (int r : forward) {
    max_seen = std::max(max_seen, r);
    nonzero += r > 0 ? 1 : 0;
  }
  EXPECT_LE(max_seen, 3);  // max_retries bounds the failure streak
  EXPECT_GT(nonzero, 40);  // p = 0.5: roughly half the sends retry
  FaultPlan other;
  other.set_transient(0.5, 1e-3, 3, 78);  // different seed, different draws
  bool differs = false;
  for (uint64_t s = 0; s < 200 && !differs; ++s) {
    differs = other.transient_attempts(s) != forward[s];
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlan, GenerateIsDeterministicInSeed) {
  FaultRates rates;
  rates.preempt_per_rank_hour = 200.0;
  rates.recover_seconds = 30.0;
  rates.degrade_per_node_hour = 100.0;
  rates.degrade_duration_seconds = 5.0;
  rates.degrade_factor = 2.0;
  const Topology topo = tiny();
  const FaultPlan a = FaultPlan::generate(9, topo, 3600.0, rates);
  const FaultPlan b = FaultPlan::generate(9, topo, 3600.0, rates);
  const FaultPlan c = FaultPlan::generate(10, topo, 3600.0, rates);
  ASSERT_FALSE(a.preemptions().empty());
  ASSERT_FALSE(a.degradations().empty());
  ASSERT_EQ(a.preemptions().size(), b.preemptions().size());
  for (size_t i = 0; i < a.preemptions().size(); ++i) {
    EXPECT_EQ(a.preemptions()[i].rank, b.preemptions()[i].rank);
    EXPECT_DOUBLE_EQ(a.preemptions()[i].time, b.preemptions()[i].time);
    EXPECT_DOUBLE_EQ(a.preemptions()[i].recover_time,
                     b.preemptions()[i].recover_time);
  }
  bool differs = c.preemptions().size() != a.preemptions().size();
  for (size_t i = 0; !differs && i < a.preemptions().size(); ++i) {
    differs = c.preemptions()[i].rank != a.preemptions()[i].rank ||
              c.preemptions()[i].time != a.preemptions()[i].time;
  }
  EXPECT_TRUE(differs);
  // Zero rates: an empty script.
  EXPECT_TRUE(FaultPlan::generate(9, topo, 3600.0, FaultRates{}).empty());
}

TEST(FaultPlan, GenerateRejectsNegativeRates) {
  const Topology topo = tiny();
  FaultRates bad;
  bad.preempt_per_rank_hour = -1.0;
  EXPECT_THROW(FaultPlan::generate(9, topo, 3600.0, bad), ConfigError);
  bad = FaultRates{};
  bad.degrade_per_node_hour = -0.5;
  EXPECT_THROW(FaultPlan::generate(9, topo, 3600.0, bad), ConfigError);
  bad = FaultRates{};
  bad.recover_seconds = 0.0;  // a preempted rank cannot return instantly
  EXPECT_THROW(FaultPlan::generate(9, topo, 3600.0, bad), ConfigError);
}

TEST(FaultPlan, ScriptConstructionRejectsBadInput) {
  const double nan = std::nan("");
  const double inf = simnet::kNever;
  const struct {
    const char* what;
    std::function<void(FaultPlan&)> call;
  } bad[] = {
      {"negative rank", [](FaultPlan& p) { p.preempt(-1, 1.0); }},
      {"negative time", [](FaultPlan& p) { p.preempt(0, -1.0); }},
      {"NaN time", [&](FaultPlan& p) { p.preempt(0, nan); }},
      {"return before preemption",
       [](FaultPlan& p) { p.preempt(0, 2.0, 1.0); }},
      {"instant return", [](FaultPlan& p) { p.preempt(0, 2.0, 2.0); }},
      {"NaN return", [&](FaultPlan& p) { p.preempt(0, 2.0, nan); }},
      {"negative node",
       [](FaultPlan& p) { p.degrade_node(-1, 0.0, 1.0, 2.0); }},
      {"negative begin",
       [](FaultPlan& p) { p.degrade_node(0, -1.0, 1.0, 2.0); }},
      {"empty window", [](FaultPlan& p) { p.degrade_node(0, 1.0, 1.0, 2.0); }},
      {"speedup factor",
       [](FaultPlan& p) { p.degrade_node(0, 0.0, 1.0, 0.5); }},
      {"NaN factor", [&](FaultPlan& p) { p.degrade_node(0, 0.0, 1.0, nan); }},
      {"negative probability",
       [](FaultPlan& p) { p.set_transient(-0.1, 1e-3, 2); }},
      {"certain failure", [](FaultPlan& p) { p.set_transient(1.0, 1e-3, 2); }},
      {"NaN probability", [&](FaultPlan& p) { p.set_transient(nan, 1e-3, 2); }},
      {"negative backoff", [](FaultPlan& p) { p.set_transient(0.1, -1.0, 2); }},
      {"negative retries",
       [](FaultPlan& p) { p.set_transient(0.1, 1e-3, -1); }},
      {"negative timeout", [](FaultPlan& p) { p.set_detection_timeout(-0.1); }},
      {"NaN timeout", [&](FaultPlan& p) { p.set_detection_timeout(nan); }},
      {"infinite timeout", [&](FaultPlan& p) { p.set_detection_timeout(inf); }},
  };
  for (const auto& c : bad) {
    FaultPlan plan;
    EXPECT_THROW(c.call(plan), ConfigError) << c.what;
    EXPECT_TRUE(plan.empty()) << c.what;
    EXPECT_EQ(plan.detection_timeout(), 0.0) << c.what;
  }
  // The boundary values are accepted.
  FaultPlan plan;
  plan.preempt(0, 0.0);
  plan.preempt(1, 0.0, 1e-9);
  plan.degrade_node(0, 0.0, inf, 1.0);
  plan.set_transient(0.0, 0.0, 0);
  plan.set_detection_timeout(0.0);
  EXPECT_EQ(plan.preemptions().size(), 2u);
}

TEST(FaultPlan, EmptyPlanRemapIsANoOp) {
  const FaultPlan empty;
  const FaultPlan mapped = empty.remap({0, 1, 2}, {0, 1});
  EXPECT_TRUE(mapped.empty());
  EXPECT_TRUE(mapped.preemptions().empty());
  EXPECT_TRUE(mapped.degradations().empty());
  EXPECT_DOUBLE_EQ(mapped.detection_timeout(), 0.0);
  EXPECT_DOUBLE_EQ(mapped.transient_probability(), 0.0);
  EXPECT_TRUE(mapped.alive(0, 1e9));
  EXPECT_DOUBLE_EQ(mapped.degrade_factor(0, 1e9), 1.0);
}

TEST(FaultPlan, RemapKeepsSurvivorsAndSettings) {
  FaultPlan plan;
  plan.preempt(0, 1.0);
  plan.preempt(3, 2.0, 9.0);
  plan.degrade_node(1, 0.0, 4.0, 2.5);
  plan.set_transient(0.25, 1e-3, 2, 5);
  plan.set_detection_timeout(0.5);
  // Survivors: old ranks {1, 2, 3} -> new {0, 1, 2}; old node 1 -> new 0.
  const FaultPlan mapped = plan.remap({1, 2, 3}, {1});
  EXPECT_TRUE(mapped.alive(0, 100.0));             // old rank 1: unscripted
  EXPECT_FALSE(mapped.alive(2, 3.0));              // old rank 3's window moved
  EXPECT_TRUE(mapped.alive(2, 9.0));
  EXPECT_DOUBLE_EQ(mapped.degrade_factor(0, 1.0), 2.5);  // old node 1
  EXPECT_DOUBLE_EQ(mapped.detection_timeout(), 0.5);
  EXPECT_DOUBLE_EQ(mapped.transient_probability(), 0.25);
  // Old rank 0's permanent preemption fell away with the rank.
  for (const auto& p : mapped.preemptions()) EXPECT_NE(p.rank, 3);
}

// ----------------------------------------------- submit under fault plans
TEST(TrySend, NoPlanMatchesSendBitwise) {
  // A plan whose only fault lies far in the future leaves every flow on the
  // fault-free arithmetic: bit-identical to a cluster with no plan.
  FaultPlan distant;
  distant.preempt(3, 1e9);
  Cluster a(tiny()), b(tiny());
  b.set_fault_plan(&distant);
  const int hops[][2] = {{0, 1}, {0, 2}, {2, 3}, {1, 3}, {3, 0}};
  for (const auto& h : hops) {
    const Flow flow{.src = h[0], .dst = h[1], .bytes = 4096};
    const double t_plain = a.submit(flow).time;
    const FlowOutcome out = b.submit(flow);
    EXPECT_TRUE(out.delivered);
    EXPECT_FALSE(out.degraded);
    EXPECT_EQ(out.retries, 0);
    EXPECT_EQ(out.time, t_plain);
  }
  EXPECT_DOUBLE_EQ(a.quiescent_time(), b.quiescent_time());
  EXPECT_EQ(a.inter_node_bytes(), b.inter_node_bytes());
  EXPECT_EQ(a.intra_node_bytes(), b.intra_node_bytes());
}

TEST(TrySend, EmptyPlanTakesTheFaultFreePath) {
  const FaultPlan empty;
  Cluster a(tiny()), b(tiny());
  b.set_fault_plan(&empty);
  const Flow flow{.src = 0, .dst = 3, .bytes = 1 << 20, .ready = 0.25};
  EXPECT_DOUBLE_EQ(a.submit(flow).time, b.submit(flow).time);
}

TEST(TrySend, DeadRankFailsWithoutMutatingState) {
  FaultPlan plan;
  plan.preempt(1, 0.0);
  Cluster tried(tiny()), untouched(tiny());
  tried.set_fault_plan(&plan);
  untouched.set_fault_plan(&plan);
  tried.enable_tracing();

  const FlowOutcome as_dst = tried.submit({.src = 0, .dst = 1, .bytes = 4096});
  EXPECT_FALSE(as_dst.delivered);
  EXPECT_EQ(as_dst.dead_rank, 1);
  EXPECT_DOUBLE_EQ(as_dst.time, 0.0);  // the would-be start
  const FlowOutcome as_src = tried.submit({.src = 1, .dst = 2, .bytes = 4096});
  EXPECT_FALSE(as_src.delivered);
  EXPECT_EQ(as_src.dead_rank, 1);

  // Nothing happened: no ports, no counters, no trace, and the next real
  // send lands exactly where it would on a cluster that never tried.
  EXPECT_DOUBLE_EQ(tried.quiescent_time(), 0.0);
  EXPECT_EQ(tried.inter_node_bytes() + tried.intra_node_bytes(), size_t{0});
  EXPECT_TRUE(tried.trace().empty());
  EXPECT_DOUBLE_EQ(tried.submit({.src = 2, .dst = 3, .bytes = 4096}).time,
                   untouched.submit({.src = 2, .dst = 3, .bytes = 4096}).time);

  // A recovered rank delivers again after its window.
  FaultPlan recovering;
  recovering.preempt(1, 0.0, 10.0);
  Cluster c(tiny());
  c.set_fault_plan(&recovering);
  EXPECT_FALSE(
      c.submit({.src = 0, .dst = 1, .bytes = 64, .ready = 5.0}).delivered);
  EXPECT_TRUE(
      c.submit({.src = 0, .dst = 1, .bytes = 64, .ready = 10.0}).delivered);

  // The non-abortable replay keeps the invariant: a dead rank is a caller
  // bug there.
  coll::Schedule sched;
  const uint32_t slots = sched.add_slots(2);
  sched.send(0, 1, 64, slots, slots + 1);
  Cluster d(tiny());
  d.set_fault_plan(&plan);
  EXPECT_THROW(sched.run_timing(d, 0.0), CheckError);
}

TEST(TrySend, DegradationSlowsInterNodeOnly) {
  FaultPlan plan;
  plan.degrade_node(1, 0.0, 100.0, 2.0);
  Cluster faulty(tiny()), healthy(tiny());
  faulty.set_fault_plan(&plan);
  // Intra-node transfer on the degraded node's GPUs: NVLink is unaffected.
  const Flow intra_flow{.src = 2, .dst = 3, .bytes = 1 << 20};
  const FlowOutcome intra = faulty.submit(intra_flow);
  EXPECT_TRUE(intra.delivered);
  EXPECT_FALSE(intra.degraded);
  EXPECT_DOUBLE_EQ(intra.time, healthy.submit(intra_flow).time);
  // Inter-node transfer into the degraded node: 2x the healthy duration.
  const Flow inter_flow{.src = 0, .dst = 2, .bytes = 1 << 20, .ready = 1.0};
  const double healthy_done = healthy.submit(inter_flow).time;
  const FlowOutcome inter = faulty.submit(inter_flow);
  EXPECT_TRUE(inter.degraded);
  EXPECT_DOUBLE_EQ(inter.time - 1.0, 2.0 * (healthy_done - 1.0));
}

TEST(TrySend, TransientRetriesChargeBackoffPlusResend) {
  FaultPlan plan;
  plan.set_transient(0.6, 1e-3, 4, 123);
  Cluster faulty(tiny());
  faulty.set_fault_plan(&plan);
  // Find the expected retry count of the first send from the plan itself.
  const int retries = plan.transient_attempts(0);
  Cluster healthy(tiny());
  const double d0 = healthy.submit({.src = 0, .dst = 2, .bytes = 1 << 16}).time;
  const FlowOutcome out = faulty.submit({.src = 0, .dst = 2, .bytes = 1 << 16});
  EXPECT_TRUE(out.delivered);
  EXPECT_EQ(out.retries, retries);
  EXPECT_DOUBLE_EQ(out.time,
                   d0 + retries * (d0 + plan.transient_backoff()));
  // Some send in a short burst must retry at p = 0.6.
  int total = out.retries;
  for (int i = 0; i < 20; ++i) {
    total += faulty.submit({.src = 0, .dst = 2, .bytes = 64}).retries;
  }
  EXPECT_GT(total, 0);
}

TEST(TrySend, ResetReplaysTheScriptBitIdentically) {
  FaultPlan plan;
  plan.set_transient(0.4, 1e-3, 3, 9);
  plan.degrade_node(0, 0.0, 1e-3, 1.5);
  auto drive = [&](Cluster& c) {
    std::vector<double> times;
    times.push_back(c.submit({.src = 0, .dst = 2, .bytes = 4096}).time);
    times.push_back(c.submit({.src = 1, .dst = 3, .bytes = 4096}).time);
    times.push_back(c.submit({.src = 0, .dst = 1, .bytes = 4096}).time);
    times.push_back(c.submit({.src = 2, .dst = 0, .bytes = 8192}).time);
    return times;
  };
  Cluster fresh(tiny()), reused(tiny());
  fresh.set_fault_plan(&plan);
  reused.set_fault_plan(&plan);
  fresh.enable_tracing();
  reused.enable_tracing();
  drive(reused);  // dirty run
  reused.reset();
  const auto a = drive(fresh);
  const auto b = drive(reused);
  for (size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
  // Identical clocks, counters, and traces: reset == fresh, including the
  // transient send-sequence counter (a stale counter would re-key every
  // hash and silently skew the replay).
  EXPECT_DOUBLE_EQ(fresh.quiescent_time(), reused.quiescent_time());
  EXPECT_EQ(fresh.inter_node_bytes(), reused.inter_node_bytes());
  EXPECT_EQ(fresh.intra_node_bytes(), reused.intra_node_bytes());
  ASSERT_EQ(fresh.trace().size(), reused.trace().size());
  for (size_t i = 0; i < fresh.trace().size(); ++i) {
    EXPECT_EQ(fresh.trace()[i].src, reused.trace()[i].src);
    EXPECT_EQ(fresh.trace()[i].dst, reused.trace()[i].dst);
    EXPECT_EQ(fresh.trace()[i].bytes, reused.trace()[i].bytes);
    EXPECT_DOUBLE_EQ(fresh.trace()[i].start, reused.trace()[i].start);
    EXPECT_DOUBLE_EQ(fresh.trace()[i].duration, reused.trace()[i].duration);
  }
  // The plan survives reset (a reset cluster replays the same script).
  EXPECT_EQ(reused.fault_plan(), &plan);
}

// ------------------------------------------------ abortable schedule replay
// A timing-only ring reduce-scatter leg over the whole world.
coll::Schedule ring_rs_schedule(const Topology& topo, size_t elems) {
  coll::Schedule sched;
  const std::vector<coll::Group> groups{coll::world_group(topo)};
  const std::vector<coll::RankData> data{coll::RankData{}};
  const coll::RingGrid grid = coll::ring_grid(sched, groups, data);
  coll::build_ring_reduce_scatter(sched, groups, grid, elems, coll::WireDtype::kFp32, true);
  return sched;
}

TEST(AbortableReplay, CompletesAndMatchesRunTimingWithoutFaults) {
  const Topology topo = tiny();
  Cluster a(topo), b(topo);
  const coll::Schedule sched = ring_rs_schedule(topo, 64);
  const auto plain = sched.run_timing(a, 0.5);
  const auto outcome = sched.run_timing_abortable(b, 0.5);
  EXPECT_TRUE(outcome.completed());
  EXPECT_EQ(outcome.status, coll::ScheduleStatus::kCompleted);
  EXPECT_DOUBLE_EQ(outcome.finish, plain.finish);
  EXPECT_EQ(outcome.abort_step, -1);
  EXPECT_EQ(outcome.retries, 0);
}

TEST(AbortableReplay, AbortChargesDetectionTimeout) {
  const Topology topo = tiny();
  FaultPlan plan;
  plan.preempt(1, 0.0);
  plan.set_detection_timeout(0.25);
  Cluster cluster(topo);
  cluster.set_fault_plan(&plan);
  const coll::Schedule sched = ring_rs_schedule(topo, 64);
  const auto outcome = sched.run_timing_abortable(cluster, 1.0);
  EXPECT_TRUE(outcome.aborted());
  EXPECT_EQ(outcome.status, coll::ScheduleStatus::kAborted);
  EXPECT_EQ(outcome.abort_step, 0);  // rank 1 is touched in the first step
  EXPECT_EQ(outcome.dead_rank, 1);
  EXPECT_GE(outcome.finish, 1.0 + 0.25);  // start + detection timeout
}

TEST(AbortableReplay, DegradedRunsFinishWithTheDegradedStatus) {
  const Topology topo = tiny();
  FaultPlan plan;
  plan.degrade_node(0, 0.0, 1e3, 3.0);
  Cluster faulty(topo), healthy(topo);
  faulty.set_fault_plan(&plan);
  const coll::Schedule sched = ring_rs_schedule(topo, 256);
  const auto slow = sched.run_timing_abortable(faulty, 0.0);
  const auto fast = sched.run_timing_abortable(healthy, 0.0);
  EXPECT_EQ(slow.status, coll::ScheduleStatus::kDegraded);
  EXPECT_EQ(fast.status, coll::ScheduleStatus::kCompleted);
  EXPECT_GT(slow.finish, fast.finish);
}

// -------------------------------------------------- typed-error boundaries
TEST(TypedErrors, InvalidRuntimeConfigIsRecoverable) {
  const Topology topo = tiny();
  Cluster cluster(topo);
  Tensor t(8);
  // Wrong data arity at the collective boundary: recoverable ConfigError.
  coll::RankData two{t.span(), t.span()};
  EXPECT_THROW(coll::ring_allreduce(cluster, coll::world_group(topo), two, 8,
                                    coll::WireDtype::kFp32, 0.0),
               ConfigError);
  // ConfigError is a runtime_error; CheckError stays a logic_error, so a
  // supervisor can catch the recoverable class without masking real bugs.
  try {
    coll::ring_allreduce(cluster, coll::world_group(topo), two, 8, coll::WireDtype::kFp32, 0.0);
    FAIL() << "expected ConfigError";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("invalid configuration"),
              std::string::npos);
  }
  static_assert(std::is_base_of_v<std::runtime_error, ConfigError>);
  static_assert(std::is_base_of_v<std::logic_error, CheckError>);
  // Uneven topologies are rejected the same recoverable way by the
  // uniform-only collectives.  HiTopKComm handles them natively (shards by
  // max gpus-per-node), so it must NOT throw here.
  const Topology uneven(std::vector<int>{3, 1}, LinkParams{1e-6, 1e-9},
                        LinkParams{1e-5, 1e-8});
  Cluster uc(uneven);
  EXPECT_NO_THROW(coll::hitopk_comm(uc, {}, 64, coll::HiTopKOptions{}, 0.0));
  EXPECT_THROW(train::simulate_scenario(uneven, train::ScenarioOptions{}),
               ConfigError);
}

// ------------------------------------------------------------ scenario
train::ScenarioOptions scenario_base() {
  train::ScenarioOptions options;
  options.trainer.model = "resnet50";
  options.trainer.resolution = 96;
  options.iterations = 120;
  // The whole run is only ~30 s of simulated wall time, so the rate must be
  // extreme (one revocation per 9 node-seconds) for the script to fire.
  options.preempt_rate_per_node_hour = 400.0;
  options.node_return_seconds = 120.0;
  options.checkpoint_interval = 30;
  options.seed = 7;
  return options;
}

TEST(Scenario, RejectsInvalidOptions) {
  // nodes_per_pod = 0 used to divide by zero computing the pod count.
  const Topology topo = Topology::tencent_cloud(4, 8);
  auto with = [](auto edit) {
    train::ScenarioOptions options = scenario_base();
    edit(options);
    return options;
  };
  using Options = train::ScenarioOptions;
  EXPECT_THROW(train::simulate_scenario(
                   topo, with([](Options& o) { o.nodes_per_pod = 0; })),
               ConfigError);
  EXPECT_THROW(train::simulate_scenario(
                   topo, with([](Options& o) { o.nodes_per_pod = -2; })),
               ConfigError);
  EXPECT_THROW(train::simulate_scenario(topo, with([](Options& o) {
                 o.preempt_rate_per_node_hour = -1.0;
               })),
               ConfigError);
  EXPECT_THROW(train::simulate_scenario(topo, with([](Options& o) {
                 o.burst_rate_per_pod_hour = -1.0;
               })),
               ConfigError);
  EXPECT_THROW(train::simulate_scenario(
                   topo, with([](Options& o) { o.burst_factor = 0.5; })),
               ConfigError);
  EXPECT_THROW(train::simulate_scenario(topo, with([](Options& o) {
                 o.node_return_seconds = -1.0;
               })),
               ConfigError);
}

TEST(Scenario, DeterministicInSeed) {
  const Topology topo = Topology::tencent_cloud(4, 2);
  const auto a = train::simulate_scenario(topo, scenario_base());
  const auto b = train::simulate_scenario(topo, scenario_base());
  EXPECT_DOUBLE_EQ(a.wall_seconds, b.wall_seconds);
  EXPECT_DOUBLE_EQ(a.goodput, b.goodput);
  EXPECT_DOUBLE_EQ(a.lost_work_fraction, b.lost_work_fraction);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.rescales, b.rescales);
  auto other = scenario_base();
  other.seed = 8;
  const auto c = train::simulate_scenario(topo, other);
  EXPECT_NE(a.wall_seconds, c.wall_seconds);
}

TEST(Scenario, FaultFreeRunsAtIdealThroughput) {
  const Topology topo = Topology::tencent_cloud(4, 2);
  auto options = scenario_base();
  options.preempt_rate_per_node_hour = 0.0;
  options.checkpoint_interval = options.iterations;  // no mid-run checkpoint
  const auto r = train::simulate_scenario(topo, options);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.preemptions, 0);
  EXPECT_EQ(r.useful_iterations, options.iterations);
  EXPECT_EQ(r.min_world_nodes, topo.nodes());
  EXPECT_NEAR(r.goodput_fraction, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(r.lost_work_fraction, 0.0);
  EXPECT_DOUBLE_EQ(r.mean_time_to_recover, 0.0);
}

TEST(Scenario, ElasticShrinksAbortRestartRollsBack) {
  const Topology topo = Topology::tencent_cloud(4, 2);
  auto elastic = scenario_base();
  elastic.policy = train::RecoveryPolicy::kElasticContinue;
  const auto e = train::simulate_scenario(topo, elastic);
  EXPECT_TRUE(e.completed);
  EXPECT_GT(e.preemptions, 0);
  EXPECT_GT(e.rescales, 0);
  EXPECT_EQ(e.restarts, 0);
  EXPECT_LT(e.min_world_nodes, topo.nodes());
  EXPECT_EQ(e.useful_iterations, elastic.iterations);

  auto abortr = scenario_base();
  abortr.policy = train::RecoveryPolicy::kAbortRestart;
  const auto a = train::simulate_scenario(topo, abortr);
  EXPECT_TRUE(a.completed);
  EXPECT_GT(a.restarts, 0);
  EXPECT_EQ(a.rescales, 0);
  EXPECT_EQ(a.min_world_nodes, topo.nodes());  // restarts go to a full world
  EXPECT_GT(a.lost_work_fraction, 0.0);        // rolled-back iterations
  // At this preemption rate the 120 s restarts dominate: elastic wins.
  EXPECT_GT(e.goodput, a.goodput);
}

TEST(Scenario, BurstsReduceGoodputDeterministically) {
  const Topology topo = Topology::tencent_cloud(4, 2);
  auto calm = scenario_base();
  calm.preempt_rate_per_node_hour = 0.0;
  calm.checkpoint_interval = calm.iterations;
  auto bursty = calm;
  bursty.burst_rate_per_pod_hour = 2000.0;  // ~1.1 onsets/s over an ~11 s run
  bursty.burst_duration_seconds = 30.0;
  bursty.burst_factor = 1.5;
  bursty.nodes_per_pod = 2;
  const auto c = train::simulate_scenario(topo, calm);
  const auto b1 = train::simulate_scenario(topo, bursty);
  const auto b2 = train::simulate_scenario(topo, bursty);
  EXPECT_LT(b1.goodput, c.goodput);
  EXPECT_DOUBLE_EQ(b1.goodput, b2.goodput);
  // Bursts slow iterations but lose no work.
  EXPECT_DOUBLE_EQ(b1.lost_work_fraction, 0.0);
}

TEST(Scenario, WorldDiesOutWithoutNodeReturn) {
  const Topology topo = Topology::tencent_cloud(2, 1);
  auto options = scenario_base();
  options.iterations = 100000;
  options.preempt_rate_per_node_hour = 3600.0;  // one per node-second
  options.node_return_seconds = simnet::kNever;
  options.policy = train::RecoveryPolicy::kElasticContinue;
  const auto r = train::simulate_scenario(topo, options);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.min_world_nodes, 0);
  EXPECT_LT(r.useful_iterations, options.iterations);
}

}  // namespace
}  // namespace hitopk
