// The four hitopk_e2e workloads.  Each runs closed-loop with one caller and
// fills a Result: the end-to-end metrics in the untraced run, the per-layer
// metrics in the traced run (README.md lists both, with the layer ->
// end-to-end map).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "harness.h"

namespace e2e {

struct RunOptions {
  uint64_t seed = 20260807;
  double seconds = 20.0;  // wall budget; sets the operation count
  // Non-null in the traced run: spans around every layer call go here.
  Tracer* tracer = nullptr;
};

// Bound of op_ms_p50 in BENCHMARK.json; the traced train run fails when the
// re-enacted step's median strays further than this from the engine step.
inline constexpr double kStepP50Bound = 0.25;

// Set-ups per run: at least kSetups, and more until they add up to
// kSetupSeconds, so millisecond set-ups still yield a steady median.
inline constexpr size_t kSetups = 5;
inline constexpr double kSetupSeconds = 0.5;
inline constexpr size_t kMaxSetups = 100;

// Operations a run times: its wall budget divided by the operation's nominal
// cost on the reference machine (README.md), at least `min_ops`.  The count
// is fixed by --seconds, not by the clock, so every run of a seed times the
// same operations however loaded the machine is.  A training step's cost
// depends on where in training it falls (the dense fp16 step's codec time
// roughly triples over its first ~40 updates), so a clock-bounded loop
// would turn machine noise into a different workload.
inline size_t op_count(double seconds, double nominal_op_seconds,
                       size_t min_ops) {
  return std::max(min_ops, static_cast<size_t>(std::lround(
                               seconds / nominal_op_seconds)));
}

// Workloads whose operations can be repeated on identical inputs (replay_2k,
// predict) time each one kPasses times, a whole pass apart, and keep the
// fastest.  The shared host slows down in bursts of a few seconds; the
// fastest of two calls ~10 s apart is rarely caught by one, so the run's
// median moves far less than that of single calls.  Training steps change
// the model and cannot be repeated.
inline constexpr int kPasses = 2;
// Initial value of a fastest-of-kPasses wall before its first call.
inline constexpr double kUnmeasured = 1e30;

// Builds the workload state repeatedly (dropping the previous one before
// each build) and keeps the last; `setup_s` receives the median build time.
template <typename Build>
auto timed_setups(Build build, double& setup_s) -> decltype(build()) {
  decltype(build()) state;
  std::vector<double> times;
  double total = 0.0;
  while (times.size() < kMaxSetups &&
         (times.size() < kSetups || total < kSetupSeconds)) {
    state = nullptr;
    const Stopwatch sw;
    state = build();
    times.push_back(sw.seconds());
    total += times.back();
  }
  setup_s = median(times);
  return state;
}

// train_mstopk (dense_fp16 = false) / train_dense_fp16 (dense_fp16 = true).
void run_train(const RunOptions& options, bool dense_fp16, Result& result);
void run_replay(const RunOptions& options, Result& result);
void run_predict(const RunOptions& options, Result& result);

}  // namespace e2e
