// Fault scripts and their consumers: FaultPlan construction and sampling,
// the typed-error split (CheckError invariants vs recoverable ConfigError),
// and the fault-injected training scenario.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <type_traits>
#include <vector>

#include "collectives/hitopkcomm.h"
#include "collectives/ring.h"
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
using simnet::LinkParams;
using simnet::Topology;

Topology tiny() {
  return Topology(2, 2, LinkParams{1e-6, 1e-9}, LinkParams{1e-5, 1e-8});
}

// ------------------------------------------------------------ FaultPlan
TEST(FaultPlan, EmptyPlanAnswersHealthy) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_TRUE(plan.preemptions().empty());
  EXPECT_TRUE(plan.degradations().empty());
  EXPECT_DOUBLE_EQ(plan.degrade_factor(0, 1.0), 1.0);
  EXPECT_EQ(plan.detection_timeout(), 0.0);
}

TEST(FaultPlan, PreemptionWindowAndRecovery) {
  // The script records each window as given, in call order; the fault
  // drivers turn it into time-ordered leave/return events.
  FaultPlan plan;
  plan.preempt(1, 2.0, 5.0);  // dead on [2, 5)
  plan.preempt(2, 3.0);       // dead forever
  EXPECT_FALSE(plan.empty());
  ASSERT_EQ(plan.preemptions().size(), 2u);
  EXPECT_EQ(plan.preemptions()[0].rank, 1);
  EXPECT_DOUBLE_EQ(plan.preemptions()[0].time, 2.0);
  EXPECT_DOUBLE_EQ(plan.preemptions()[0].recover_time, 5.0);
  EXPECT_EQ(plan.preemptions()[1].rank, 2);
  EXPECT_DOUBLE_EQ(plan.preemptions()[1].time, 3.0);
  EXPECT_EQ(plan.preemptions()[1].recover_time, simnet::kNever);
  EXPECT_TRUE(plan.degradations().empty());
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
  // An infinite rate would never advance the sampling clock.
  bad = FaultRates{};
  bad.preempt_per_rank_hour = simnet::kNever;
  EXPECT_THROW(FaultPlan::generate(9, topo, 3600.0, bad), ConfigError);
  bad = FaultRates{};
  bad.degrade_per_node_hour = simnet::kNever;
  bad.degrade_duration_seconds = 5.0;
  EXPECT_THROW(FaultPlan::generate(9, topo, 3600.0, bad), ConfigError);

  // The horizon must be finite and positive (an infinite one with a
  // positive rate would sample forever).
  FaultRates rates;
  rates.preempt_per_rank_hour = 10.0;
  for (const double horizon :
       {0.0, -1.0, std::nan(""), simnet::kNever, -simnet::kNever}) {
    EXPECT_THROW(FaultPlan::generate(9, topo, horizon, rates), ConfigError)
        << "horizon " << horizon;
    EXPECT_THROW(FaultPlan::generate(9, topo, horizon, FaultRates{}),
                 ConfigError)
        << "horizon " << horizon;
  }

  // A degradation rate needs a finite positive window length; 0 is the
  // default, so setting only the rate is refused.
  for (const double duration :
       {0.0, -1.0, std::nan(""), simnet::kNever}) {
    bad = FaultRates{};
    bad.degrade_per_node_hour = 100.0;
    bad.degrade_duration_seconds = duration;
    bad.degrade_factor = 2.0;
    EXPECT_THROW(FaultPlan::generate(9, topo, 3600.0, bad), ConfigError)
        << "duration " << duration;
  }
  // The window length is not read when no degradation is sampled.
  bad = FaultRates{};
  bad.degrade_duration_seconds = -1.0;
  EXPECT_TRUE(FaultPlan::generate(9, topo, 3600.0, bad).empty());
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
      {"infinite factor",
       [&](FaultPlan& p) { p.degrade_node(0, 0.0, 1.0, inf); }},
      {"negative infinite factor",
       [&](FaultPlan& p) { p.degrade_node(0, 0.0, 1.0, -inf); }},
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
  plan.set_detection_timeout(0.0);
  EXPECT_EQ(plan.preemptions().size(), 2u);
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
  // A burst rate with no burst length (0 is the default).
  EXPECT_THROW(train::simulate_scenario(topo, with([](Options& o) {
                 o.burst_rate_per_pod_hour = 10.0;
                 o.burst_duration_seconds = 0.0;
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
