// Golden rows for the synthetic convergence tasks (train/synthetic.h).
//
// For each stand-in (the vision MLP at its default widths and at the
// bench/e2e widths {1024, 1024}, and the sequence task) at two seeds, one
// row pins bit for bit:
//   - the FNV-1a digest of the initial parameters (data generator + init);
//   - every worker's gradient digest and hexfloat loss on a fixed batch,
//     with the workers fanned out over the pool as the engine does;
//   - evaluate() after a few fixed plain-SGD steps.
// A mismatch prints the actual rows, ready to paste.  CI reruns this with
// HITOPK_THREADS=1, so the serial order is pinned to the same bits.
#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/parallel.h"
#include "core/rng.h"
#include "train/checkpoint.h"
#include "train/synthetic.h"

namespace hitopk::train {
namespace {

constexpr size_t kWorkers = 4;
constexpr size_t kLocalBatch = 8;
constexpr size_t kSgdSteps = 3;
constexpr size_t kSgdBatch = 32;
constexpr float kLearningRate = 0.05f;

struct TaskGoldenRow {
  const char* task;
  uint64_t seed;
  uint64_t params_digest;
  uint64_t grad_digest[kWorkers];
  double loss[kWorkers];
  double quality;  // evaluate() after kSgdSteps SGD steps
};

constexpr TaskGoldenRow kTaskGolden[] = {
    {"vision", 7ull, 0x076503b8269ff36cull,
     {0xf86c34f2b385a5b4ull, 0x8834e41348957b4dull, 0xc15e677ae39d4a94ull, 0x83ec7884842fd783ull},
     {0x1.27d5f2c93e0ecp+3, 0x1.04bb898649e07p+3, 0x1.d96c114a61345p+2, 0x1.1a8535cdb14b7p+3},
     0x1.2bp-3},
    {"vision", 20260807ull, 0x3a49e8c993dbead7ull,
     {0xe7fbb39b06add3d3ull, 0xfee7cba551c24ccaull, 0xd95c4e05593fa6afull, 0xeb47f1649547818eull},
     {0x1.119de53a286c3p+3, 0x1.99557920b9e44p+2, 0x1.0837be76eed5ep+3, 0x1.b32e1bbbef6bcp+2},
     0x1.09p-3},
    {"vision-1024x1024", 7ull, 0x71f83bb5847dbefaull,
     {0x94589c0f83953083ull, 0xad7267bb2e0f906cull, 0x09d2503ecd1aa984ull, 0xabebdbfef41f2c20ull},
     {0x1.d856e289155aep+2, 0x1.dbfc944fd15fep+2, 0x1.d624b50c16059p+2, 0x1.1ede2869d2daep+3},
     0x1.3fp-3},
    {"vision-1024x1024", 20260807ull, 0xdc66b275c6eb7526ull,
     {0x0e98b2e649d8274bull, 0x0f4079dcfcef1e2dull, 0x932cddf2de7e0a22ull, 0x90caee79fa0f3051ull},
     {0x1.27826b940b3dfp+3, 0x1.167de97c373e5p+3, 0x1.c61e0680ea2e1p+2, 0x1.385fdf6e34646p+3},
     0x1.17p-3},
    {"sequence", 7ull, 0xbfb461ab39257bb1ull,
     {0xcbaf7aaba5c9d8e2ull, 0x4672e46ae93e3318ull, 0x4c39dfc18cc5208eull, 0x15618378a3f565a0ull},
     {0x1.66300b91c5e58p+1, 0x1.7513caff8cf93p+1, 0x1.6b1a45764bde8p+1, 0x1.7578810d22643p+1},
     0x1.08p-4},
    {"sequence", 20260807ull, 0xd405e83aaa3f8f26ull,
     {0xfcf1a35175c8cae9ull, 0x896c0239a9000cdcull, 0x359068525f6d982full, 0xddc78c739ae7ae39ull},
     {0x1.6c249bd94baa4p+1, 0x1.726879e27176fp+1, 0x1.668b75e6ca2d8p+1, 0x1.6cf00a10ecc55p+1},
     0x1.1cp-4},
};

struct TaskCase {
  const char* task;
  std::function<std::unique_ptr<ConvergenceTask>(uint64_t)> make;
};

const TaskCase kCases[] = {
    {"vision", [](uint64_t s) { return make_vision_task(s); }},
    {"vision-1024x1024",
     [](uint64_t s) {
       return make_vision_task(s, "resnet50-proxy", {1024, 1024});
     }},
    {"sequence", [](uint64_t s) { return make_sequence_task(s); }},
};
constexpr uint64_t kSeeds[] = {7, 20260807};

uint64_t digest(std::span<const float> values) {
  return fnv1a64({reinterpret_cast<const uint8_t*>(values.data()),
                  values.size() * sizeof(float)});
}

TaskGoldenRow measure(const TaskCase& c, uint64_t seed) {
  auto task = c.make(seed);
  TaskGoldenRow row{};
  row.task = c.task;
  row.seed = seed;
  row.params_digest = digest(task->params());

  Rng rng(seed ^ 0x5eedull);
  std::vector<size_t> samples(kWorkers * kLocalBatch);
  for (size_t& s : samples) s = rng.uniform_index(task->train_size());
  parallel_for(0, kWorkers, [&](size_t w) {
    std::vector<float> grad(task->param_count());
    row.loss[w] = task->gradient(
        std::span<const size_t>(samples).subspan(w * kLocalBatch, kLocalBatch),
        grad);
    row.grad_digest[w] = digest(grad);
  });

  std::vector<size_t> batch(kSgdBatch);
  std::vector<float> grad(task->param_count());
  for (size_t step = 0; step < kSgdSteps; ++step) {
    for (size_t& s : batch) s = rng.uniform_index(task->train_size());
    task->gradient(batch, grad);
    std::span<float> params = task->params();
    for (size_t i = 0; i < params.size(); ++i) {
      params[i] -= kLearningRate * grad[i];
    }
  }
  row.quality = task->evaluate();
  return row;
}

std::string format(const TaskGoldenRow& row) {
  char buf[160];
  std::string out;
  std::snprintf(buf, sizeof buf, "    {\"%s\", %" PRIu64 "ull, 0x%016" PRIx64
                "ull,\n     {", row.task, row.seed, row.params_digest);
  out += buf;
  for (size_t w = 0; w < kWorkers; ++w) {
    std::snprintf(buf, sizeof buf, "%s0x%016" PRIx64 "ull", w ? ", " : "",
                  row.grad_digest[w]);
    out += buf;
  }
  out += "},\n     {";
  for (size_t w = 0; w < kWorkers; ++w) {
    std::snprintf(buf, sizeof buf, "%s%a", w ? ", " : "", row.loss[w]);
    out += buf;
  }
  std::snprintf(buf, sizeof buf, "},\n     %a},\n", row.quality);
  out += buf;
  return out;
}

bool same(const TaskGoldenRow& a, const TaskGoldenRow& b) {
  bool eq = std::string(a.task) == b.task && a.seed == b.seed &&
            a.params_digest == b.params_digest &&
            std::bit_cast<uint64_t>(a.quality) ==
                std::bit_cast<uint64_t>(b.quality);
  for (size_t w = 0; w < kWorkers; ++w) {
    eq = eq && a.grad_digest[w] == b.grad_digest[w] &&
         std::bit_cast<uint64_t>(a.loss[w]) ==
             std::bit_cast<uint64_t>(b.loss[w]);
  }
  return eq;
}

TEST(TaskGolden, EveryTaskIsFrozenAtTwoSeeds) {
  std::string table;
  bool all_same =
      std::size(kTaskGolden) == std::size(kCases) * std::size(kSeeds);
  size_t r = 0;
  for (const TaskCase& c : kCases) {
    for (uint64_t seed : kSeeds) {
      const TaskGoldenRow actual = measure(c, seed);
      table += format(actual);
      all_same = all_same && r < std::size(kTaskGolden) &&
                 same(kTaskGolden[r], actual);
      ++r;
    }
  }
  EXPECT_TRUE(all_same) << "task golden mismatch; actual rows:\n" << table;
}

}  // namespace
}  // namespace hitopk::train
