// Tests for cluster transfer tracing and the local-SGD convergence variant.
#include <gtest/gtest.h>

#include <sstream>

#include "collectives/ring.h"
#include "simnet/cluster.h"
#include "train/convergence.h"
#include "train/synthetic.h"

namespace hitopk {
namespace {

using simnet::Cluster;
using simnet::LinkParams;
using simnet::Topology;

Topology tiny() {
  return Topology(2, 2, LinkParams{1e-6, 1e-9}, LinkParams{1e-5, 1e-8});
}

// ------------------------------------------------------------ tracing
TEST(Tracing, DisabledByDefault) {
  Cluster c(tiny());
  c.submit({.src = 0, .dst = 1, .bytes = 100});
  EXPECT_TRUE(c.trace().empty());
}

TEST(Tracing, RecordsTransfers) {
  Cluster c(tiny());
  c.enable_tracing();
  c.submit({.src = 0, .dst = 1, .bytes = 100});
  c.submit({.src = 1, .dst = 2, .bytes = 200});
  ASSERT_EQ(c.trace().size(), 2u);
  EXPECT_EQ(c.trace()[0].src, 0);
  EXPECT_EQ(c.trace()[0].dst, 1);
  EXPECT_EQ(c.trace()[0].bytes, 100u);
  EXPECT_FALSE(c.trace()[0].inter_node);
  EXPECT_TRUE(c.trace()[1].inter_node);
  EXPECT_GT(c.trace()[1].duration, c.trace()[0].duration);
}

TEST(Tracing, ResetClearsEvents) {
  Cluster c(tiny());
  c.enable_tracing();
  c.submit({.src = 0, .dst = 1, .bytes = 100});
  c.reset();
  EXPECT_TRUE(c.trace().empty());
}

TEST(Tracing, CollectiveEventCountMatchesSchedule) {
  // Ring all-reduce over G ranks: 2 * (G-1) steps x G transfers.
  Cluster c(tiny());
  c.enable_tracing();
  coll::ring_allreduce(c, coll::world_group(c.topology()), {}, 400, coll::WireDtype::kFp32, 0.0);
  EXPECT_EQ(c.trace().size(), 2u * 3u * 4u);
}

TEST(Tracing, ChromeTraceIsWellFormedJson) {
  Cluster c(tiny());
  c.enable_tracing();
  c.submit({.src = 0, .dst = 2, .bytes = 1000});
  std::ostringstream os;
  c.write_chrome_trace(os, "test");
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"inter 0->2\""), std::string::npos);
  EXPECT_NE(json.find("\"bytes\":1000"), std::string::npos);
  // Balanced braces (cheap structural check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

// ------------------------------------------------------------ local SGD
train::ConvergenceOptions local_options(int period, int epochs = 10) {
  train::ConvergenceOptions options;
  options.algorithm = train::ConvergenceAlgorithm::kLocalSgd;
  options.local_sgd_period = period;
  options.epochs = epochs;
  options.nodes = 2;
  options.gpus_per_node = 2;
  options.local_batch = 32;
  return options;
}

TEST(LocalSgd, PeriodOneMatchesDenseClosely) {
  // H = 1 averages after every step: mathematically close to dense gradient
  // averaging (momentum states differ, so allow a small gap).
  auto task_a = train::make_vision_task(61);
  const auto local = train::run_convergence(*task_a, local_options(1));
  train::ConvergenceOptions dense_options = local_options(1);
  dense_options.algorithm = train::ConvergenceAlgorithm::kDense;
  auto task_b = train::make_vision_task(61);
  const auto dense = train::run_convergence(*task_b, dense_options);
  EXPECT_NEAR(local.final_quality, dense.final_quality, 0.06);
}

TEST(LocalSgd, LearnsWithModeratePeriod) {
  auto task = train::make_vision_task(67);
  const auto result = train::run_convergence(*task, local_options(4));
  EXPECT_GT(result.final_quality, 0.75);
}

TEST(LocalSgd, LargerPeriodUsesLessCommunication) {
  auto task_a = train::make_vision_task(71);
  const auto frequent = train::run_convergence(*task_a, local_options(1, 4));
  auto task_b = train::make_vision_task(71);
  const auto rare = train::run_convergence(*task_b, local_options(8, 4));
  EXPECT_LT(rare.simulated_comm_seconds, frequent.simulated_comm_seconds);
}

TEST(LocalSgd, NameRoundTrip) {
  EXPECT_EQ(train::convergence_algorithm_name(
                train::ConvergenceAlgorithm::kLocalSgd),
            "LocalSGD");
}

}  // namespace
}  // namespace hitopk
