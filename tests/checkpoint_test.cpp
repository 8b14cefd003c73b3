// Tests for the checkpoint format (writer/reader/store) and the
// fault-tolerant convergence layer built on it: bitwise restore-and-continue
// identity, corruption detection with version fallback, elastic worker
// preemption with the documented error-feedback remap policy, and the
// abort-restart / elastic-continue drivers.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>

#include "core/check.h"
#include "train/checkpoint.h"
#include "train/convergence.h"
#include "train/ft_convergence.h"
#include "train/synthetic.h"

namespace hitopk::train {
namespace {

// ------------------------------------------------------------ format

std::vector<uint8_t> sample_blob() {
  CheckpointWriter writer;
  const std::vector<uint64_t> meta{1, 2, 3};
  const std::vector<double> clock{0.5, 1.5};
  const std::vector<float> params{1.0f, -2.0f, 0.25f, 8.0f};
  writer.put_u64s("meta", meta);
  writer.put_f64s("clock", clock);
  writer.put_floats("params", params);
  return writer.finish();
}

TEST(CheckpointFormat, RoundTripsTypedRecords) {
  const auto blob = sample_blob();
  const CheckpointReader reader(blob);
  EXPECT_EQ(reader.names(),
            (std::vector<std::string>{"meta", "clock", "params"}));
  EXPECT_TRUE(reader.has("clock"));
  EXPECT_FALSE(reader.has("nope"));
  const auto meta = reader.u64s("meta");
  ASSERT_EQ(meta.size(), 3u);
  EXPECT_EQ(meta[1], 2u);
  const auto clock = reader.f64s("clock");
  ASSERT_EQ(clock.size(), 2u);
  EXPECT_EQ(clock[1], 1.5);
  const auto params = reader.floats("params");
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[3], 8.0f);
}

TEST(CheckpointFormat, MissingAndMistypedRecordsAreRecoverable) {
  const auto blob = sample_blob();
  const CheckpointReader reader(blob);
  EXPECT_THROW(reader.u64s("absent"), ConfigError);
  EXPECT_THROW(reader.floats("meta"), ConfigError);  // written as u64s
  EXPECT_THROW(reader.u64s("params"), ConfigError);  // written as floats
}

TEST(CheckpointFormat, EveryFlippedByteIsDetected) {
  const auto blob = sample_blob();
  // Corrupt every single byte position in turn: the reader must throw the
  // recoverable ConfigError each time — no crash, no silent acceptance.
  for (size_t i = 0; i < blob.size(); ++i) {
    std::vector<uint8_t> bad = blob;
    bad[i] ^= 0x40;
    EXPECT_THROW(CheckpointReader reader(bad), ConfigError)
        << "flipped byte " << i << " went undetected";
  }
}

TEST(CheckpointFormat, TruncationAndGarbageAreRecoverable) {
  const auto blob = sample_blob();
  for (size_t keep : {size_t{0}, size_t{3}, size_t{11}, blob.size() - 1}) {
    std::vector<uint8_t> torn(blob.begin(),
                              blob.begin() + static_cast<ptrdiff_t>(keep));
    EXPECT_THROW(CheckpointReader reader(torn), ConfigError);
  }
  std::vector<uint8_t> garbage(256, 0xab);
  EXPECT_THROW(CheckpointReader reader(garbage), ConfigError);
}

TEST(CheckpointFormat, WriterIsSpentAfterFinish) {
  CheckpointWriter writer;
  const std::vector<uint64_t> v{1};
  writer.put_u64s("v", v);
  writer.finish();
  EXPECT_THROW(writer.finish(), CheckError);
}

// ------------------------------------------------------------ store

TEST(CheckpointStore, KeepsARingAndEvictsOldest) {
  CheckpointStore store(2);
  EXPECT_EQ(store.commit(sample_blob()), 1u);
  EXPECT_EQ(store.commit(sample_blob()), 2u);
  EXPECT_EQ(store.commit(sample_blob()), 3u);
  EXPECT_EQ(store.versions(), 2u);
  EXPECT_EQ(store.newest_version(), 3u);
  EXPECT_THROW(store.mutable_blob(1), CheckError);  // evicted
}

TEST(CheckpointStore, CommitRejectsMalformedBlobsWithoutEvicting) {
  CheckpointStore store(1);
  store.commit(sample_blob());
  std::vector<uint8_t> bad = sample_blob();
  bad[bad.size() / 2] ^= 0xff;
  EXPECT_THROW(store.commit(std::move(bad)), ConfigError);
  // The good snapshot survived the failed write.
  EXPECT_EQ(store.versions(), 1u);
  ASSERT_TRUE(store.newest_valid().has_value());
  EXPECT_EQ(store.newest_valid()->version, 1u);
}

TEST(CheckpointStore, FallsBackPastCorruptVersions) {
  CheckpointStore store(3);
  store.commit(sample_blob());
  store.commit(sample_blob());
  store.commit(sample_blob());
  store.mutable_blob(3)[5] ^= 0x01;  // newest corrupt
  store.mutable_blob(2)[9] ^= 0x01;  // and the one before it
  const auto snapshot = store.newest_valid();
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(snapshot->version, 1u);
  EXPECT_EQ(store.fallbacks(), 2);

  store.mutable_blob(1)[1] ^= 0x01;  // now everything is corrupt
  EXPECT_FALSE(store.newest_valid().has_value());
}

// --------------------------------------------- engine restore identity

ConvergenceOptions quick(ConvergenceAlgorithm algorithm) {
  ConvergenceOptions options;
  options.algorithm = algorithm;
  options.epochs = 4;
  options.nodes = 2;
  options.gpus_per_node = 2;
  options.local_batch = 32;
  options.density = 0.05;
  options.seed = 21;
  return options;
}

void drive_to_end(ConvergenceEngine& engine) {
  while (!engine.done()) {
    if (!engine.epoch_open()) engine.begin_epoch();
    engine.step();
    if (engine.step_in_epoch() == engine.iters_per_epoch()) {
      engine.end_epoch();
    }
  }
}

void expect_bitwise_equal(const ConvergenceEngine& a,
                          const ConvergenceEngine& b, ConvergenceTask& ta,
                          ConvergenceTask& tb) {
  ASSERT_EQ(ta.param_count(), tb.param_count());
  EXPECT_EQ(std::memcmp(ta.params().data(), tb.params().data(),
                        ta.param_count() * sizeof(float)),
            0);
  const auto ra = a.result();
  const auto rb = b.result();
  ASSERT_EQ(ra.curve.size(), rb.curve.size());
  for (size_t i = 0; i < ra.curve.size(); ++i) {
    EXPECT_EQ(ra.curve[i].train_loss, rb.curve[i].train_loss);
    EXPECT_EQ(ra.curve[i].quality, rb.curve[i].quality);
    EXPECT_EQ(ra.curve[i].residual_norm, rb.curve[i].residual_norm);
  }
  EXPECT_EQ(ra.best_quality, rb.best_quality);
  EXPECT_EQ(a.comm_seconds(), b.comm_seconds());
}

// Serialize mid-epoch, restore into a fresh engine, and check (1) the
// serialize∘restore∘serialize fixed point and (2) that both engines finish
// the run bitwise-identically — parameters, curve, and simulated clock.
void roundtrip_case(ConvergenceAlgorithm algorithm, bool use_lars = false) {
  auto task_a = make_vision_task(11);
  auto task_b = make_vision_task(11);
  ConvergenceOptions options = quick(algorithm);
  options.use_lars = use_lars;
  ConvergenceEngine a(*task_a, options);

  // 1.5 epochs in: mid-epoch, warm optimizer, populated EF residuals.
  a.begin_epoch();
  for (int i = 0; i < a.iters_per_epoch(); ++i) a.step();
  a.end_epoch();
  a.begin_epoch();
  for (int i = 0; i < a.iters_per_epoch() / 2; ++i) a.step();

  const std::vector<uint8_t> blob = a.serialize();
  ConvergenceEngine b(*task_b, options);
  b.restore(blob);
  EXPECT_EQ(b.serialize(), blob) << "restore is not a serialization fixed "
                                    "point";

  while (a.step_in_epoch() < a.iters_per_epoch()) a.step();
  a.end_epoch();
  while (b.step_in_epoch() < b.iters_per_epoch()) b.step();
  b.end_epoch();
  drive_to_end(a);
  drive_to_end(b);
  expect_bitwise_equal(a, b, *task_a, *task_b);
}

TEST(EngineCheckpoint, DenseSgdRoundTripsBitwise) {
  roundtrip_case(ConvergenceAlgorithm::kDense);
}

TEST(EngineCheckpoint, TopkWithErrorFeedbackRoundTripsBitwise) {
  roundtrip_case(ConvergenceAlgorithm::kTopk);
}

TEST(EngineCheckpoint, MstopkRoundTripsBitwise) {
  roundtrip_case(ConvergenceAlgorithm::kMstopk);
}

TEST(EngineCheckpoint, LocalSgdRoundTripsBitwise) {
  roundtrip_case(ConvergenceAlgorithm::kLocalSgd);
}

TEST(EngineCheckpoint, LarsRoundTripsBitwise) {
  roundtrip_case(ConvergenceAlgorithm::kDense, /*use_lars=*/true);
}

TEST(EngineCheckpoint, RestoreRejectsIncompatibleRuns) {
  auto task = make_vision_task(11);
  ConvergenceEngine engine(*task, quick(ConvergenceAlgorithm::kDense));
  const auto blob = engine.serialize();

  auto other_task = make_vision_task(11);
  auto other_options = quick(ConvergenceAlgorithm::kTopk);
  ConvergenceEngine wrong_algo(*other_task, other_options);
  EXPECT_THROW(wrong_algo.restore(blob), ConfigError);

  auto seed_options = quick(ConvergenceAlgorithm::kDense);
  seed_options.seed = 99;
  ConvergenceEngine wrong_seed(*other_task, seed_options);
  EXPECT_THROW(wrong_seed.restore(blob), ConfigError);

  std::vector<uint8_t> corrupt = blob;
  corrupt[corrupt.size() / 3] ^= 0x10;
  ConvergenceEngine fresh(*other_task, quick(ConvergenceAlgorithm::kDense));
  EXPECT_THROW(fresh.restore(corrupt), ConfigError);
}

// --------------------------------------------- EF remap policy

// Sum of every checkpoint record whose name starts with `prefix`.
double record_sum(const std::vector<uint8_t>& blob, const std::string& prefix) {
  const CheckpointReader reader(blob);
  double sum = 0.0;
  for (const auto& name : reader.names()) {
    if (name.rfind(prefix, 0) != 0) continue;
    for (float v : reader.floats(name)) sum += static_cast<double>(v);
  }
  return sum;
}

bool has_record_with_prefix(const std::vector<uint8_t>& blob,
                            const std::string& prefix) {
  const CheckpointReader reader(blob);
  for (const auto& name : reader.names()) {
    if (name.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

TEST(EngineElastic, TopkPreemptFoldsResidualIntoSurvivor) {
  auto task = make_vision_task(11);
  ConvergenceEngine engine(*task, quick(ConvergenceAlgorithm::kTopk));
  engine.begin_epoch();
  for (int i = 0; i < 3; ++i) engine.step();

  const auto blob = engine.serialize();
  const CheckpointReader reader(blob);
  // Residual keys exist for the full world before the preemption.
  ASSERT_TRUE(reader.has("ef:w1"));

  // Folding preserves the total unsent gradient mass (sum over all
  // residual coordinates) up to float rounding in the elementwise add.
  ConvergenceEngine probe(*task, quick(ConvergenceAlgorithm::kTopk));
  probe.restore(blob);
  // Reach inside via serialization: sum before == sum after preempt.
  const double before = record_sum(blob, "ef:");
  probe.preempt_worker(1);
  const double after = record_sum(probe.serialize(), "ef:");
  EXPECT_NEAR(before, after, 1e-3 * std::abs(before));
  EXPECT_EQ(probe.active_workers(), 3);

  // The dead worker's entry is gone; a restored worker starts cold (zero).
  const CheckpointReader shrunk(probe.serialize());
  EXPECT_FALSE(shrunk.has("ef:w1"));
  probe.restore_worker(1);
  const CheckpointReader regrown(probe.serialize());
  ASSERT_TRUE(regrown.has("ef:w1"));
  for (float v : regrown.floats("ef:w1")) ASSERT_EQ(v, 0.0f);
}

TEST(EngineElastic, PreemptedWorldKeepsTraining) {
  // Every algorithm survives a mid-run shrink to 3 of 4 workers (an uneven
  // world, where MSTopK still runs HiTopKComm) and completes the run.
  for (const auto algorithm :
       {ConvergenceAlgorithm::kDense, ConvergenceAlgorithm::kTopk,
        ConvergenceAlgorithm::kMstopk, ConvergenceAlgorithm::kGtopk,
        ConvergenceAlgorithm::kRandomk, ConvergenceAlgorithm::kLocalSgd}) {
    auto task = make_vision_task(11);
    ConvergenceEngine engine(*task, quick(algorithm));
    engine.begin_epoch();
    for (int i = 0; i < 2; ++i) engine.step();
    engine.preempt_worker(2);
    EXPECT_EQ(engine.active_workers(), 3);
    while (engine.step_in_epoch() < engine.iters_per_epoch()) engine.step();
    engine.end_epoch();
    engine.preempt_worker(2);  // idempotent
    EXPECT_EQ(engine.active_workers(), 3);
    engine.restore_worker(2);
    EXPECT_EQ(engine.active_workers(), 4);
    drive_to_end(engine);
    const auto result = engine.result();
    EXPECT_EQ(result.curve.size(), 4u)
        << convergence_algorithm_name(algorithm);
    EXPECT_GT(result.best_quality, 0.0)
        << convergence_algorithm_name(algorithm);
  }
}

TEST(EngineElastic, ZeroActiveWorkersRefusesToStep) {
  auto task = make_vision_task(11);
  ConvergenceEngine engine(*task, quick(ConvergenceAlgorithm::kDense));
  engine.begin_epoch();
  engine.step();
  for (int w = 0; w < engine.world(); ++w) engine.preempt_worker(w);
  EXPECT_EQ(engine.active_workers(), 0);
  EXPECT_THROW(engine.step(), ConfigError);
  engine.restore_worker(0);
  engine.step();  // single survivor trains on alone
  EXPECT_EQ(engine.active_workers(), 1);
}

TEST(EngineElastic, MstopkWorkerReturnsToEmptyWorld) {
  // The last preemption flushed every shard residual, so a worker returning
  // to an empty world has nothing to remap.
  auto task = make_vision_task(11);
  ConvergenceEngine engine(*task, quick(ConvergenceAlgorithm::kMstopk));
  engine.begin_epoch();
  for (int i = 0; i < 2; ++i) engine.step();
  for (int w = 0; w < engine.world(); ++w) engine.preempt_worker(w);
  EXPECT_EQ(engine.active_workers(), 0);
  engine.restore_worker(0);
  EXPECT_EQ(engine.active_workers(), 1);
  engine.step();
  engine.restore_worker(1);
  engine.step();
  EXPECT_EQ(engine.active_workers(), 2);
}

TEST(EngineElastic, MstopkUnevenWorldKeepsShardResiduals) {
  // Preempting worker 2 of a 2x2 world leaves nodes of {2, 1} GPUs; the
  // engine keeps running HiTopKComm there, whose GPU 0 of the small node
  // owns both shards and keeps one residual per shard.
  auto task = make_vision_task(11);
  ConvergenceEngine engine(*task, quick(ConvergenceAlgorithm::kMstopk));
  engine.begin_epoch();
  for (int i = 0; i < 2; ++i) engine.step();
  engine.preempt_worker(2);
  engine.step();
  const auto blob = engine.serialize();
  const CheckpointReader reader(blob);
  for (const char* key : {"ef:shard:0:s0", "ef:shard:1:s1", "ef:shard:2:s0",
                          "ef:shard:2:s1"}) {
    EXPECT_TRUE(reader.has(key)) << key;
  }
  EXPECT_FALSE(reader.has("ef:shard:0"));
  EXPECT_FALSE(has_record_with_prefix(blob, "ef:w"));
}

TEST(EngineElastic, MstopkRemapFlushesShardMassIntoPending) {
  // uniform -> uneven -> uniform: at each rescale every shard residual of
  // the old world is flushed into the pending correction, so the unsent
  // mass before the rescale is exactly what the next update delivers.
  auto task = make_vision_task(11);
  ConvergenceEngine engine(*task, quick(ConvergenceAlgorithm::kMstopk));
  engine.begin_epoch();
  for (int i = 0; i < 3; ++i) engine.step();
  for (const bool preempt : {true, false}) {
    const auto before = engine.serialize();
    ASSERT_FALSE(CheckpointReader(before).has("pending"));
    const double residual = record_sum(before, "ef:shard");
    ASSERT_NE(residual, 0.0);
    if (preempt) {
      engine.preempt_worker(2);
    } else {
      engine.restore_worker(2);
    }
    const auto after = engine.serialize();
    EXPECT_FALSE(has_record_with_prefix(after, "ef:shard"));
    EXPECT_NEAR(record_sum(after, "pending"), residual,
                1e-3 * std::abs(residual));
    engine.step();
  }
  EXPECT_EQ(engine.active_workers(), 4);
}

// --------------------------------------------- engine golden digests
//
// Frozen engine outputs: an FNV-1a digest of the final parameters plus the
// per-epoch train losses and qualities as hexfloats, compared exactly.  The
// fault-free rows cover every algorithm on a 2x2 world.  The elastic rows
// shrink the world to nodes of {2, 1} GPUs for an epoch and regrow it; the
// MSTopK row instead drops a whole node, so HiTopKComm runs on uniform
// worlds only.  A mismatch prints the actual row in table syntax.

struct EngineRow {
  std::string name;
  uint64_t digest = 0;
  std::vector<double> losses;
  std::vector<double> qualities;
};

ConvergenceOptions golden_options(ConvergenceAlgorithm algorithm) {
  ConvergenceOptions options = quick(algorithm);
  options.epochs = 2;
  return options;
}

EngineRow engine_row(const std::string& scenario, ConvergenceTask& task,
                     const ConvergenceResult& result) {
  EngineRow row;
  row.name = scenario;
  row.digest = fnv1a64({reinterpret_cast<const uint8_t*>(task.params().data()),
                        task.param_count() * sizeof(float)});
  for (const EpochPoint& p : result.curve) {
    row.losses.push_back(p.train_loss);
    row.qualities.push_back(p.quality);
  }
  return row;
}

std::string format_row(const EngineRow& row) {
  auto list = [](const std::vector<double>& values) {
    std::string out = "{";
    for (size_t i = 0; i < values.size(); ++i) {
      char buf[48];
      std::snprintf(buf, sizeof buf, "%a", values[i]);
      out += (i == 0 ? "" : ", ") + std::string(buf);
    }
    return out + "}";
  };
  char digest_hex[24];
  std::snprintf(digest_hex, sizeof digest_hex, "0x%016" PRIx64 "ull",
                row.digest);
  return "{\"" + row.name + "\", " + digest_hex + ", " + list(row.losses) +
         ", " + list(row.qualities) + "},";
}

const std::vector<EngineRow>& engine_golden_table() {
  static const std::vector<EngineRow> rows = {
      {"Dense-SGD/fault_free", 0x4c8fb517ad3d84c3ull, {0x1.175c2e00223f5p+2, 0x1.00c89f56babfp+1}, {0x1.15p-1, 0x1.b3p-1}},
      {"TopK-SGD/fault_free", 0xf18cf0f65745f180ull, {0x1.1f0aef0e5dea2p+2, 0x1.1f4e16efe8c7cp+1}, {0x1.eep-2, 0x1.a54p-1}},
      {"MSTopK-SGD/fault_free", 0x6c42cb62cff5e090ull, {0x1.21746a111a11p+2, 0x1.2a03f91c15efbp+1}, {0x1.d3p-2, 0x1.968p-1}},
      {"RandomK-SGD/fault_free", 0xe12d89726ec5d7e1ull, {0x1.3eaa4864ece98p+2, 0x1.cd14dc604659ep+1}, {0x1.71p-3, 0x1.44p-2}},
      {"gTopK-SGD/fault_free", 0x183add910249c775ull, {0x1.346bc08547e9cp+2, 0x1.5f65c1eb5913bp+1}, {0x1.7a8p-2, 0x1.6dp-1}},
      {"LocalSGD/fault_free", 0x9211e4ca6546d212ull, {0x1.17d2bfb6a2311p+2, 0x1.0c5cf9f796c5cp+1}, {0x1.13p-1, 0x1.b7p-1}},
      {"Dense-SGD/uneven_2_1", 0x2a929c9ca93fb77dull, {0x1.181b71ab1a088p+2, 0x1.07997e0084b96p+1}, {0x1.094p-1, 0x1.b2p-1}},
      {"TopK-SGD/uneven_2_1", 0x700778ed5a6fc0d2ull, {0x1.1e829b0d0f7e4p+2, 0x1.2342230cf710cp+1}, {0x1.de8p-2, 0x1.9ccp-1}},
      {"RandomK-SGD/uneven_2_1", 0xe2f960a687faa3feull, {0x1.3ddbf57e706cp+2, 0x1.c7f74862335acp+1}, {0x1.92p-3, 0x1.48p-2}},
      {"gTopK-SGD/uneven_2_1", 0xc5ffce29e159041cull, {0x1.30071fdbbcc3dp+2, 0x1.5cbd561579745p+1}, {0x1.768p-2, 0x1.758p-1}},
      {"LocalSGD/uneven_2_1", 0x53867e9cef16e73dull, {0x1.1877b0f192e4bp+2, 0x1.1460a6cb94d78p+1}, {0x1.0a8p-1, 0x1.b4cp-1}},
      {"MSTopK-SGD/node_lost", 0x9613a37362569d63ull, {0x1.1f91a524d4706p+2, 0x1.33210593d7c5p+1}, {0x1.a68p-2, 0x1.94cp-1}},
      {"Dense-SGD/fp16_wire", 0xc81550da429b59c8ull, {0x1.175bc76bf664fp+2, 0x1.0099db3b50c37p+1}, {0x1.14cp-1, 0x1.b48p-1}},
      {"Dense-SGD/int8_wire", 0xfe518f8143192340ull, {0x1.174d3b349eefep+2, 0x1.00b4453bc0036p+1}, {0x1.178p-1, 0x1.b5cp-1}},
  };
  return rows;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](double x, double y) {
           return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
         });
}

void expect_engine_golden(const EngineRow& actual) {
  for (const EngineRow& want : engine_golden_table()) {
    if (want.name != actual.name) continue;
    const bool same = want.digest == actual.digest &&
                      same_bits(want.losses, actual.losses) &&
                      same_bits(want.qualities, actual.qualities);
    if (!same) {
      ADD_FAILURE() << "engine golden row mismatch for " << actual.name
                    << "\n  table:  " << format_row(want)
                    << "\n  actual: " << format_row(actual);
    }
    return;
  }
  ADD_FAILURE() << "no engine golden row named " << actual.name
                << "\n  actual: " << format_row(actual);
}

constexpr ConvergenceAlgorithm kAllAlgorithms[] = {
    ConvergenceAlgorithm::kDense,   ConvergenceAlgorithm::kTopk,
    ConvergenceAlgorithm::kMstopk,  ConvergenceAlgorithm::kRandomk,
    ConvergenceAlgorithm::kGtopk,   ConvergenceAlgorithm::kLocalSgd};

TEST(EngineGolden, FaultFreeRunsAreFrozen) {
  for (const auto algorithm : kAllAlgorithms) {
    auto task = make_vision_task(11);
    const auto result = run_convergence(*task, golden_options(algorithm));
    expect_engine_golden(engine_row(
        convergence_algorithm_name(algorithm) + "/fault_free", *task, result));
  }
}

// The engine's gradient codec: every worker gradient crosses the wire codec
// before the dense All-Reduce.
TEST(EngineGolden, QuantizedWireRunsAreFrozen) {
  for (const auto wire :
       {compress::WireDtype::kFp16, compress::WireDtype::kInt8}) {
    auto task = make_vision_task(11);
    ConvergenceOptions options = golden_options(ConvergenceAlgorithm::kDense);
    options.gradient_wire = wire;
    const auto result = run_convergence(*task, options);
    expect_engine_golden(engine_row(
        std::string("Dense-SGD/") + compress::wire_dtype_name(wire) + "_wire",
        *task, result));
  }
}

// One epoch on a shrunk world, then the preempted workers return together.
EngineRow elastic_episode(ConvergenceAlgorithm algorithm,
                          const std::vector<int>& preempted,
                          const std::string& scenario) {
  auto task = make_vision_task(11);
  ConvergenceEngine engine(*task, golden_options(algorithm));
  engine.begin_epoch();
  for (int i = 0; i < 2; ++i) engine.step();
  for (int w : preempted) engine.preempt_worker(w);
  while (engine.step_in_epoch() < engine.iters_per_epoch()) engine.step();
  engine.end_epoch();
  for (int w : preempted) engine.restore_worker(w);
  drive_to_end(engine);
  return engine_row(convergence_algorithm_name(algorithm) + "/" + scenario,
                    *task, engine.result());
}

TEST(EngineGolden, UnevenElasticEpisodesAreFrozen) {
  for (const auto algorithm : kAllAlgorithms) {
    if (algorithm == ConvergenceAlgorithm::kMstopk) continue;
    expect_engine_golden(elastic_episode(algorithm, {2}, "uneven_2_1"));
  }
}

TEST(EngineGolden, MstopkLostNodeIsFrozen) {
  expect_engine_golden(
      elastic_episode(ConvergenceAlgorithm::kMstopk, {2, 3}, "node_lost"));
}

// --------------------------------------------- fault-tolerant driver

FtOptions ft_base(ConvergenceAlgorithm algorithm) {
  FtOptions options;
  options.training = quick(algorithm);
  options.checkpoint_interval = 5;
  options.compute_seconds_per_iter = 0.05;
  return options;
}

TEST(FaultTolerant, FaultFreeMatchesRunConvergence) {
  auto task_a = make_vision_task(11);
  auto task_b = make_vision_task(11);
  const auto options = ft_base(ConvergenceAlgorithm::kTopk);
  const auto plain = run_convergence(*task_a, options.training);
  const auto ft = run_convergence_ft(*task_b, options);
  EXPECT_TRUE(ft.completed);
  EXPECT_EQ(ft.preemptions, 0);
  ASSERT_EQ(ft.convergence.curve.size(), plain.curve.size());
  for (size_t i = 0; i < plain.curve.size(); ++i) {
    EXPECT_EQ(ft.convergence.curve[i].train_loss, plain.curve[i].train_loss);
    EXPECT_EQ(ft.convergence.curve[i].quality, plain.curve[i].quality);
  }
  EXPECT_EQ(std::memcmp(task_a->params().data(), task_b->params().data(),
                        task_a->param_count() * sizeof(float)),
            0);
}

TEST(FaultTolerant, ElasticContinueShrinksAndRegrows) {
  auto task = make_vision_task(11);
  auto options = ft_base(ConvergenceAlgorithm::kTopk);
  options.policy = RecoveryPolicy::kElasticContinue;
  options.faults.preempt(1, 0.3, 1.5);
  options.faults.preempt(3, 0.6);  // permanent
  options.faults.set_detection_timeout(0.1);
  const auto result = run_convergence_ft(*task, options);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.preemptions, 2);
  EXPECT_EQ(result.regrows, 1);
  EXPECT_EQ(result.restores, 0);
  EXPECT_EQ(result.min_active_workers, 2);
  EXPECT_EQ(result.convergence.curve.size(), 4u);
  EXPECT_GT(result.convergence.best_quality, 0.0);
}

TEST(FaultTolerant, ElasticRegrowsFromEmptyWorld) {
  // Every worker is preempted at once and only worker 0 ever returns: the
  // run stalls, then finishes on a single worker.
  for (const auto algorithm :
       {ConvergenceAlgorithm::kTopk, ConvergenceAlgorithm::kMstopk}) {
    auto task = make_vision_task(11);
    auto options = ft_base(algorithm);
    options.policy = RecoveryPolicy::kElasticContinue;
    options.faults.preempt(0, 0.4, 2.0);
    for (int w = 1; w < 4; ++w) options.faults.preempt(w, 0.4);
    options.faults.set_detection_timeout(0.1);
    const auto result = run_convergence_ft(*task, options);
    const std::string name = convergence_algorithm_name(algorithm);
    EXPECT_TRUE(result.completed) << name;
    EXPECT_EQ(result.preemptions, 4) << name;
    EXPECT_EQ(result.regrows, 1) << name;
    EXPECT_EQ(result.convergence.curve.size(), 4u) << name;
    EXPECT_GE(result.wall_seconds, 2.0) << name;
  }
}

TEST(FaultTolerant, ElasticStallsUntilFirstReturn) {
  auto task = make_vision_task(11);
  auto options = ft_base(ConvergenceAlgorithm::kDense);
  for (int w = 0; w < 4; ++w) options.faults.preempt(w, 0.2, 5.0);
  const auto result = run_convergence_ft(*task, options);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.min_active_workers, 1);  // shrank before the stall
  EXPECT_GE(result.wall_seconds, 5.0);      // waited for the first return

  auto doomed_task = make_vision_task(11);
  auto doomed = ft_base(ConvergenceAlgorithm::kDense);
  for (int w = 0; w < 4; ++w) doomed.faults.preempt(w, 0.2);  // permanent
  const auto dead = run_convergence_ft(*doomed_task, doomed);
  EXPECT_FALSE(dead.completed);
}

TEST(FaultTolerant, AbortRestartRollsBackToCheckpoint) {
  auto task = make_vision_task(11);
  auto options = ft_base(ConvergenceAlgorithm::kDense);
  options.policy = RecoveryPolicy::kAbortRestart;
  options.restart_seconds = 2.0;
  options.faults.preempt(2, 0.7);
  options.faults.set_detection_timeout(0.1);
  const auto result = run_convergence_ft(*task, options);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.preemptions, 1);
  EXPECT_EQ(result.restores, 1);
  EXPECT_GT(result.lost_iterations, 0);  // mid-interval rollback
  EXPECT_EQ(result.min_active_workers, 4);  // restarts run a full world
  EXPECT_EQ(result.convergence.curve.size(), 4u);
  EXPECT_GT(result.wall_seconds, 2.0);
}

TEST(FaultTolerant, CorruptedCheckpointFallsBackNeverCrashes) {
  auto task = make_vision_task(11);
  auto options = ft_base(ConvergenceAlgorithm::kTopk);
  options.policy = RecoveryPolicy::kAbortRestart;
  options.restart_seconds = 1.0;
  options.faults.preempt(0, 0.9);
  options.faults.set_detection_timeout(0.1);
  // Torn writes: every checkpoint after the initial snapshot is corrupted
  // in place.  The restore must detect this and fall back to the t = 0
  // snapshot instead of crashing or silently loading garbage.
  options.after_commit = [](CheckpointStore& store, uint64_t version) {
    if (version > 1) {
      auto& blob = store.mutable_blob(version);
      blob[blob.size() / 2] ^= 0xff;
    }
  };
  const auto result = run_convergence_ft(*task, options);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.restores, 1);
  EXPECT_GT(result.checkpoint_fallbacks, 0);
  EXPECT_EQ(result.convergence.curve.size(), 4u);
  EXPECT_GT(result.convergence.best_quality, 0.0);
}

TEST(FaultTolerant, CheckpointWriteCostScalesWithStateSize) {
  auto task_free = make_vision_task(11);
  auto task_paid = make_vision_task(11);
  auto options = ft_base(ConvergenceAlgorithm::kDense);
  const auto free_writes = run_convergence_ft(*task_free, options);
  EXPECT_EQ(free_writes.checkpoint_seconds_total, 0.0);
  options.checkpoint_write_gbps = 1e-3;  // deliberately slow: visible cost
  const auto paid = run_convergence_ft(*task_paid, options);
  EXPECT_GT(paid.checkpoint_seconds_total, 0.0);
  EXPECT_EQ(paid.checkpoint_commits, free_writes.checkpoint_commits);
  EXPECT_GT(paid.wall_seconds, free_writes.wall_seconds);
  // Same convergence either way: checkpoint cost is pure wall time.
  EXPECT_EQ(paid.convergence.curve.back().quality,
            free_writes.convergence.curve.back().quality);
}

TEST(FaultTolerant, DeterministicInPlanAndSeed) {
  auto make = [] {
    auto options = ft_base(ConvergenceAlgorithm::kMstopk);
    options.faults.preempt(1, 0.4, 2.0);
    options.faults.set_detection_timeout(0.1);
    return options;
  };
  auto task_a = make_vision_task(11);
  auto task_b = make_vision_task(11);
  const auto a = run_convergence_ft(*task_a, make());
  const auto b = run_convergence_ft(*task_b, make());
  EXPECT_EQ(a.wall_seconds, b.wall_seconds);
  ASSERT_EQ(a.convergence.curve.size(), b.convergence.curve.size());
  for (size_t i = 0; i < a.convergence.curve.size(); ++i) {
    EXPECT_EQ(a.convergence.curve[i].train_loss,
              b.convergence.curve[i].train_loss);
  }
  EXPECT_EQ(std::memcmp(task_a->params().data(), task_b->params().data(),
                        task_a->param_count() * sizeof(float)),
            0);
}

}  // namespace
}  // namespace hitopk::train
