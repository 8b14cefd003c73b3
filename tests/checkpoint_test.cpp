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
#include "simnet/topology.h"
#include "train/ft_convergence.h"
#include "train/ltfb.h"
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

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

// FNV-1a over the task's parameter bytes, continuing from `basis`.
uint64_t params_digest(ConvergenceTask& task, uint64_t basis = kFnvBasis) {
  return fnv1a64({reinterpret_cast<const uint8_t*>(task.params().data()),
                  task.param_count() * sizeof(float)},
                 basis);
}

EngineRow engine_row(const std::string& scenario, ConvergenceTask& task,
                     const ConvergenceResult& result) {
  EngineRow row;
  row.name = scenario;
  row.digest = params_digest(task);
  for (const EpochPoint& p : result.curve) {
    row.losses.push_back(p.train_loss);
    row.qualities.push_back(p.quality);
  }
  return row;
}

// `values` as a braced hexfloat list.
std::string hexfloat_list(const std::vector<double>& values) {
  std::string out = "{";
  for (size_t i = 0; i < values.size(); ++i) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a", values[i]);
    out += (i == 0 ? "" : ", ") + std::string(buf);
  }
  return out + "}";
}

std::string digest_literal(uint64_t digest) {
  char hex[24];
  std::snprintf(hex, sizeof hex, "0x%016" PRIx64 "ull", digest);
  return hex;
}

std::string format_row(const EngineRow& row) {
  return "{\"" + row.name + "\", " + digest_literal(row.digest) + ", " +
         hexfloat_list(row.losses) + ", " + hexfloat_list(row.qualities) +
         "},";
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

// --------------------------------------------- fault driver golden rows
//
// Frozen outputs of the two fault drivers, run_convergence_ft and run_ltfb:
// an FNV-1a digest of the final parameters (LTFB: every population's, in
// index order), the simulated clock and qualities as hexfloats, and every
// counter, compared exactly.  A mismatch prints the actual row in table
// syntax.

struct FaultRow {
  std::string name;
  uint64_t digest = 0;
  // FT: wall, checkpoint seconds, final and best quality.  LTFB: wall, best
  // quality, final quality per population, then every round's qualities.
  std::vector<double> reals;
  // FT: preemptions, regrows, restores, lost iterations, checkpoint commits,
  // checkpoint fallbacks, min active workers, completed, curve length.
  // LTFB: preemptions, regrows, exchanges, forfeits, best population,
  // completed, then each round's standing count and winners.
  std::vector<int> counters;
};

FaultRow ft_row(const std::string& name, ConvergenceTask& task,
                const FtResult& r) {
  return {name,
          params_digest(task),
          {r.wall_seconds, r.checkpoint_seconds_total,
           r.convergence.final_quality, r.convergence.best_quality},
          {r.preemptions, r.regrows, r.restores, r.lost_iterations,
           r.checkpoint_commits, r.checkpoint_fallbacks, r.min_active_workers,
           r.completed ? 1 : 0, static_cast<int>(r.convergence.curve.size())}};
}

FaultRow ltfb_row(const std::string& name,
                  const std::vector<std::unique_ptr<ConvergenceTask>>& tasks,
                  const LtfbResult& r) {
  FaultRow row{name, kFnvBasis, {r.wall_seconds, r.best_quality}, {}};
  for (const auto& task : tasks) row.digest = params_digest(*task, row.digest);
  row.reals.insert(row.reals.end(), r.final_quality.begin(),
                   r.final_quality.end());
  row.counters = {r.preemptions, r.regrows,         r.exchanges,
                  r.forfeits,    r.best_population, r.completed ? 1 : 0};
  for (const LtfbRoundPoint& round : r.rounds) {
    row.reals.insert(row.reals.end(), round.qualities.begin(),
                     round.qualities.end());
    row.counters.push_back(round.standing);
    row.counters.insert(row.counters.end(), round.winners.begin(),
                        round.winners.end());
  }
  return row;
}

std::string format_row(const FaultRow& row) {
  std::string counters = "{";
  for (size_t i = 0; i < row.counters.size(); ++i) {
    counters += (i == 0 ? "" : ", ") + std::to_string(row.counters[i]);
  }
  return "{\"" + row.name + "\", " + digest_literal(row.digest) + ", " +
         hexfloat_list(row.reals) + ", " + counters + "}},";
}

const std::vector<FaultRow>& fault_golden_table() {
  static const std::vector<FaultRow> rows = {
      {"fig10/fault_free", 0x0a5785c970bd0e52ull, {0x1.b310917c58874p+3, 0x1.2abd903b436f6p-8, 0x1.cf4p-1, 0x1.cf4p-1}, {0, 0, 0, 0, 11, 0, 4, 1, 4}},
      {"fig10/elastic", 0x73dd12d2216cf9c8ull, {0x1.c1c664df8ed86p+3, 0x1.2281bdb8656a4p-8, 0x1.cecp-1, 0x1.cecp-1}, {1, 0, 0, 0, 11, 0, 3, 1, 4}},
      {"fig10/abort_restart", 0x0a5785c970bd0e52ull, {0x1.37f9182963f54p+4, 0x1.2abd903b436f6p-8, 0x1.cf4p-1, 0x1.cf4p-1}, {1, 0, 1, 17, 11, 0, 4, 1, 4}},
      {"fig10/ltfb", 0xc3305a5927f811c5ull, {0x1.d6fed152bbdp+4, 0x1.09cp-1, 0x1.09cp-1, 0x1.09cp-1, 0x1.6c4p-1, 0x1.a34p-1, 0x1.c68p-2, 0x1.09cp-1}, {4, 3, 2, 0, 0, 1, 2, 1, 2, 1}},
      {"elastic/stall_then_regrow", 0xcc715eab36d4e19bull, {0x1.3a8572f10e4a9p+4, 0x0p+0, 0x1.dd8p-1, 0x1.dd8p-1}, {4, 4, 0, 0, 52, 0, 1, 1, 4}},
      {"elastic/no_return", 0x219e86ed99471f09ull, {0x1.19b78c906356bp+1, 0x0p+0, 0x0p+0, 0x0p+0}, {4, 0, 0, 0, 1, 0, 1, 0, 0}},
      {"elastic/regrow_from_empty", 0xd85878bd763d77fcull, {0x1.f66921ecadffap+3, 0x0p+0, 0x1.0d8p-1, 0x1.2e8p-1}, {4, 1, 0, 0, 52, 0, 1, 1, 4}},
      {"abort_restart/torn_writes", 0x4ea9452ce908c74aull, {0x1.bb84cf72997cbp+4, 0x0p+0, 0x1.d64p-1, 0x1.d64p-1}, {2, 0, 2, 74, 66, 4, 4, 1, 4}},
      {"ltfb/mid_round_regrow", 0xe296c10e3f4b11e5ull, {0x1.b2a50f87f77a5p+4, 0x1.becp-1, 0x1.becp-1, 0x1.becp-1, 0x1.a7p-1, 0x1.a1p-1, 0x1.becp-1, 0x1.b6cp-1}, {1, 1, 2, 0, 0, 1, 2, 0, 2, 0}},
      {"ltfb/forfeit_then_return", 0xdfb1f3bef5149f83ull, {0x1.b3713a2a5422cp+4, 0x1.bfcp-1, 0x1.bfcp-1, -0x1p+0, 0x1.a1cp-1, -0x1p+0, 0x1.bfcp-1, -0x1p+0}, {2, 0, 0, 1, 0, 1, 1, 1}},
      {"elastic/degraded_node", 0x512637ae21b46bf7ull, {0x1.e6051b5d539bp+3, 0x0p+0, 0x1.d54p-1, 0x1.d54p-1}, {1, 1, 0, 0, 52, 0, 3, 1, 4}},
      {"ltfb/degraded_node", 0x9585c8f46f9810f5ull, {0x1.b63ea9219113cp+4, 0x1.bc8p-1, 0x1.bc8p-1, 0x1.bc8p-1, 0x1.a74p-1, 0x1.a1p-1, 0x1.bc8p-1, 0x1.bbcp-1}, {1, 1, 2, 0, 0, 1, 2, 0, 2, 0}},
  };
  return rows;
}

void expect_fault_golden(const FaultRow& actual) {
  for (const FaultRow& want : fault_golden_table()) {
    if (want.name != actual.name) continue;
    const bool same = want.digest == actual.digest &&
                      same_bits(want.reals, actual.reals) &&
                      want.counters == actual.counters;
    if (!same) {
      ADD_FAILURE() << "fault driver golden row mismatch for " << actual.name
                    << "\n  table:  " << format_row(want)
                    << "\n  actual: " << format_row(actual);
    }
    return;
  }
  ADD_FAILURE() << "no fault driver golden row named " << actual.name
                << "\n  actual: " << format_row(actual);
}

// A task owned by the test, lent to run_ltfb (which destroys what its
// factory returns) so the final parameters outlive the run.
class BorrowedTask : public ConvergenceTask {
 public:
  explicit BorrowedTask(ConvergenceTask& task) : task_(task) {}
  std::string name() const override { return task_.name(); }
  std::string quality_metric() const override {
    return task_.quality_metric();
  }
  size_t train_size() const override { return task_.train_size(); }
  size_t param_count() const override { return task_.param_count(); }
  std::span<float> params() override { return task_.params(); }
  const std::vector<LayerSegment>& segments() const override {
    return task_.segments();
  }
  double gradient_at(std::span<const float> params,
                     std::span<const size_t> sample_indices,
                     std::span<float> grad_out) override {
    return task_.gradient_at(params, sample_indices, grad_out);
  }
  double evaluate() override { return task_.evaluate(); }

 private:
  ConvergenceTask& task_;
};

FaultRow ltfb_episode(const std::string& name, const LtfbOptions& options,
                      uint64_t data_seed) {
  std::vector<std::unique_ptr<ConvergenceTask>> tasks;
  for (int p = 0; p < options.populations; ++p) {
    tasks.push_back(make_vision_task(data_seed));
  }
  const LtfbResult result = run_ltfb(
      [&](int p) { return std::make_unique<BorrowedTask>(*tasks[p]); },
      options);
  EXPECT_GT(result.preemptions, 0) << name;
  return ltfb_row(name, tasks, result);
}

// The configuration of `bench_fig10_convergence --panel=faults` (its seeded
// Poisson script on a 2x2 world; LTFB as two 1x2 populations), shortened
// to 4 epochs: the fewest at which the script's first revocation (11.5 s)
// lands inside every faulted run.
constexpr int kFig10Epochs = 4;

ConvergenceOptions fig10_training() {
  ConvergenceOptions training;
  training.algorithm = ConvergenceAlgorithm::kTopk;
  training.nodes = 2;
  training.gpus_per_node = 2;
  training.local_batch = 32;
  training.epochs = kFig10Epochs;
  training.density = 0.05;
  training.seed = 99;
  return training;
}

simnet::FaultPlan fig10_plan() {
  simnet::FaultRates rates;
  rates.preempt_per_rank_hour = 120.0;
  rates.recover_seconds = 8.0;
  return simnet::FaultPlan::generate(
      4242, simnet::Topology::tencent_cloud(2, 2), 60.0, rates);
}

TEST(FaultDriverGolden, Fig10FaultPanelIsFrozen) {
  FtOptions base;
  base.training = fig10_training();
  base.checkpoint_interval = 25;
  base.checkpoint_write_gbps = 1.0;
  const struct {
    const char* name;
    RecoveryPolicy policy;
    bool faulted;
  } runs[] = {{"fig10/fault_free", RecoveryPolicy::kElasticContinue, false},
              {"fig10/elastic", RecoveryPolicy::kElasticContinue, true},
              {"fig10/abort_restart", RecoveryPolicy::kAbortRestart, true}};
  for (const auto& run : runs) {
    auto task = make_vision_task(1234);
    FtOptions options = base;
    options.policy = run.policy;
    if (run.faulted) options.faults = fig10_plan();
    const FtResult result = run_convergence_ft(*task, options);
    if (run.faulted) {
      EXPECT_GT(result.preemptions, 0) << run.name;
    }
    expect_fault_golden(ft_row(run.name, *task, result));
  }

  LtfbOptions ltfb;
  ltfb.training = fig10_training();
  ltfb.training.nodes = 1;
  ltfb.populations = 2;
  ltfb.round_epochs = kFig10Epochs % 2 == 0 ? 2 : 1;
  ltfb.faults = fig10_plan();
  expect_fault_golden(ltfb_episode("fig10/ltfb", ltfb, 1234));
}

// FaultTolerant.ElasticStallsUntilFirstReturn's scripts: the whole world
// goes at once and returns at 5 s; then the same with no return.
TEST(FaultDriverGolden, ElasticStallThenRegrowIsFrozen) {
  auto task = make_vision_task(11);
  auto options = ft_base(ConvergenceAlgorithm::kDense);
  for (int w = 0; w < 4; ++w) options.faults.preempt(w, 0.2, 5.0);
  const auto result = run_convergence_ft(*task, options);
  EXPECT_GT(result.preemptions, 0);
  expect_fault_golden(ft_row("elastic/stall_then_regrow", *task, result));

  auto doomed_task = make_vision_task(11);
  auto doomed = ft_base(ConvergenceAlgorithm::kDense);
  for (int w = 0; w < 4; ++w) doomed.faults.preempt(w, 0.2);
  const auto dead = run_convergence_ft(*doomed_task, doomed);
  EXPECT_GT(dead.preemptions, 0);
  expect_fault_golden(ft_row("elastic/no_return", *doomed_task, dead));
}

// FaultTolerant.ElasticRegrowsFromEmptyWorld's script on MSTopK.
TEST(FaultDriverGolden, ElasticRegrowFromEmptyWorldIsFrozen) {
  auto task = make_vision_task(11);
  auto options = ft_base(ConvergenceAlgorithm::kMstopk);
  options.faults.preempt(0, 0.4, 2.0);
  for (int w = 1; w < 4; ++w) options.faults.preempt(w, 0.4);
  options.faults.set_detection_timeout(0.1);
  const auto result = run_convergence_ft(*task, options);
  EXPECT_GT(result.preemptions, 0);
  expect_fault_golden(ft_row("elastic/regrow_from_empty", *task, result));
}

// Abort-restart where every checkpoint after the first is torn.  The
// preemption at 1.0 s falls inside the first recovery window and is
// absorbed; the one at 9 s restarts the job again.
TEST(FaultDriverGolden, AbortRestartTornWritesIsFrozen) {
  auto task = make_vision_task(11);
  auto options = ft_base(ConvergenceAlgorithm::kTopk);
  options.policy = RecoveryPolicy::kAbortRestart;
  options.faults.preempt(0, 0.9);
  options.faults.preempt(1, 1.0);
  options.faults.preempt(2, 9.0);
  options.faults.set_detection_timeout(0.1);
  options.after_commit = [](CheckpointStore& store, uint64_t version) {
    if (version > 1) {
      auto& blob = store.mutable_blob(version);
      blob[blob.size() / 2] ^= 0xff;
    }
  };
  const auto result = run_convergence_ft(*task, options);
  EXPECT_GT(result.preemptions, 0);
  expect_fault_golden(ft_row("abort_restart/torn_writes", *task, result));
}

LtfbOptions ltfb_base() {
  LtfbOptions options;
  options.training = quick(ConvergenceAlgorithm::kTopk);
  options.training.nodes = 1;
  options.populations = 2;
  options.round_epochs = 2;
  return options;
}

// Population 0 loses a worker mid-round and gets it back.
TEST(FaultDriverGolden, LtfbMidRoundRegrowIsFrozen) {
  auto options = ltfb_base();
  options.faults.preempt(1, 0.4, 1.2);
  options.faults.set_detection_timeout(0.05);
  expect_fault_golden(ltfb_episode("ltfb/mid_round_regrow", options, 11));
}

// Population 1's last preemption (rank 3) and a return for it (rank 2) fall
// in one consume batch: the first death's detection and reschedule carry the
// clock past both.  The forfeit is decided at the event, so the return is
// ignored.
TEST(FaultDriverGolden, LtfbForfeitBeforeSameBatchReturnIsFrozen) {
  auto options = ltfb_base();
  options.faults.preempt(2, 0.2, 0.3);
  options.faults.preempt(3, 0.25);
  options.faults.set_detection_timeout(0.05);
  const FaultRow row = ltfb_episode("ltfb/forfeit_then_return", options, 11);
  ASSERT_GE(row.counters.size(), 4u);
  EXPECT_EQ(row.counters[1], 0);  // regrows: the return was ignored
  EXPECT_EQ(row.counters[3], 1);  // forfeits
  expect_fault_golden(row);
}

// Degraded nodes scale the compute part of the step clock: the elastic run
// degrades node 1 across a shrink and regrow; LTFB degrades population 1's
// node, so the slower population sets the lockstep cost.
TEST(FaultDriverGolden, DegradedNodesAreFrozen) {
  auto task = make_vision_task(11);
  auto options = ft_base(ConvergenceAlgorithm::kTopk);
  options.faults.degrade_node(1, 0.2, 2.0, 3.0);
  options.faults.preempt(0, 0.5, 1.5);
  options.faults.set_detection_timeout(0.1);
  const auto result = run_convergence_ft(*task, options);
  EXPECT_GT(result.preemptions, 0);
  expect_fault_golden(ft_row("elastic/degraded_node", *task, result));

  auto ltfb = ltfb_base();
  ltfb.faults.degrade_node(1, 0.1, 1.5, 2.5);
  ltfb.faults.preempt(0, 0.3, 0.9);
  ltfb.faults.set_detection_timeout(0.05);
  expect_fault_golden(ltfb_episode("ltfb/degraded_node", ltfb, 11));
}

}  // namespace
}  // namespace hitopk::train
