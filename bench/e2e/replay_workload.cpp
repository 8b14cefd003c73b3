// replay_2k: replay_trace of 2000-job generate_trace streams (gangs {4, 8,
// 16, 32}, 100 MB/GPU, 50 ms mean interarrival) on the fig12 fabric — 16x8
// Tencent Cloud with 2:1-oversubscribed 4-node pods — under locality-aware
// placement with backfill and fp32 make_tenant_body jobs.  Arrivals outpace
// capacity, so the queue grows through every window.
//
// Each stream is replayed as eight consecutive 250-job windows, each on a
// fresh cluster: one replay of a whole 2000-job stream takes ~7 s on the
// reference machine, so a run could time only three of them, while a window
// takes ~0.13 s.  The seed draws every stream.  A window's wall depends on
// its jobs (0.7x to 1.5x the median on the reference machine), so a run
// times ~70 distinct windows to keep that input spread out of the
// run-to-run spread.
//
// Untraced: one operation is one replay_trace call on one window, with a
// fresh body (so schedule recording is part of every replay), timed in each
// of kPasses passes over all windows; the fastest call counts.  Items are
// jobs.
//
// Traced: each iteration runs replay_trace on the next window with a
// span-recording body wrapper, then JobScheduler::run alone on its own
// flow-tracing Cluster with the same (now warm) body, then the
// Cluster::submit probes.  The scheduled run must reproduce replay_trace's
// records exactly.
#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "core/rng.h"
#include "simnet/job_scheduler.h"
#include "train/tenant.h"
#include "workloads.h"

namespace e2e {
namespace {

using namespace hitopk;

constexpr int kStreamJobs = 2000;
constexpr int kWindowJobs = 250;
constexpr int kWarmupJobs = 120;  // fig12's gated replay size
constexpr simnet::PlacementPolicy kPolicy =
    simnet::PlacementPolicy::kLocalityAware;
constexpr int kSubmitProbes = 10000;
// Nominal wall seconds of one window's replay_trace call / one traced
// iteration on the reference machine (op_count).
constexpr double kNominalReplay = 0.14;
constexpr double kNominalTracedIteration = 0.35;

simnet::Topology fig12_fabric() {
  const simnet::Topology base = simnet::Topology::tencent_cloud(16, 8);
  return simnet::Topology(16, 8, base.intra(), base.inter(), base.nic_beta(),
                          /*oversubscription=*/2.0, /*nodes_per_pod=*/4);
}

using Window = std::vector<simnet::JobSpec>;

struct ReplayState {
  simnet::Topology topology;
  std::vector<Window> windows;
};

// Fabric, `windows` 250-job windows cut from seeded 2000-job streams, and a
// short warm-up replay (code and allocator warm before the first timed
// call).
std::unique_ptr<ReplayState> make_state(uint64_t seed, size_t windows) {
  auto state = std::make_unique<ReplayState>(ReplayState{fig12_fabric(), {}});
  Rng rng(seed);
  while (state->windows.size() < windows) {
    simnet::TraceOptions trace_options;
    trace_options.jobs = kStreamJobs;
    trace_options.mean_interarrival_seconds = 0.05;
    trace_options.seed = rng.next_u64();
    trace_options.bytes_per_gpu = size_t{100} << 20;
    const std::vector<simnet::JobSpec> stream =
        simnet::generate_trace(trace_options);
    for (auto it = stream.begin();
         it != stream.end() && state->windows.size() < windows;
         it += kWindowJobs) {
      state->windows.emplace_back(it, it + kWindowJobs);
    }
  }
  const Window& first = state->windows.front();
  simnet::replay_trace(state->topology,
                       Window(first.begin(), first.begin() + kWarmupJobs),
                       train::make_tenant_body(train::TenantWorkload{}),
                       kPolicy);
  return state;
}

void check_records(const Window& window,
                   const std::vector<simnet::JobRecord>& records,
                   Result& result) {
  result.check(records.size() == window.size(), "one record per job");
  long wanted = 0;
  long done = 0;
  for (const simnet::JobRecord& r : records) {
    result.check(!r.ranks.empty() && !r.aborted &&
                     r.iterations_done == r.spec.iterations,
                 format("job %d admitted and run to completion", r.spec.id));
    wanted += r.spec.iterations;
    done += r.iterations_done;
  }
  result.check(done == wanted, "iterations done == iterations asked");
}

bool same_records(const std::vector<simnet::JobRecord>& a,
                  const std::vector<simnet::JobRecord>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].ranks != b[i].ranks || a[i].start != b[i].start ||
        a[i].finish != b[i].finish ||
        a[i].iterations_done != b[i].iterations_done ||
        a[i].aborted != b[i].aborted) {
      return false;
    }
  }
  return true;
}

void run_untraced(const RunOptions& options, Result& result) {
  const size_t replays = op_count(options.seconds, kNominalReplay * kPasses,
                                  kStreamJobs / kWindowJobs);
  double setup_s = 0.0;
  const auto state = timed_setups(
      [&] { return make_state(options.seed, replays); }, setup_s);

  const size_t n = state->windows.size();
  std::vector<double> walls(n, kUnmeasured), goodput(n);
  for (int pass = 0; pass < kPasses; ++pass) {
    for (size_t w = 0; w < n; ++w) {
      const Window& window = state->windows[w];
      const Stopwatch sw;
      const simnet::ReplayMetrics m = simnet::replay_trace(
          state->topology, window,
          train::make_tenant_body(train::TenantWorkload{}), kPolicy);
      walls[w] = std::min(walls[w], sw.seconds());
      check_records(window, m.records, result);
      goodput[w] = m.goodput;
    }
  }

  result.set("setup_s", setup_s);
  report_op_walls(walls, result);
  result.set("items_per_s",
             static_cast<double>(kWindowJobs * walls.size()) / sum(walls));
  result.note(format("%zu windows of %d jobs; simulated goodput p50 %.6f",
                     walls.size(), kWindowJobs, median(goodput)));
}

// Seconds per Cluster::submit over a fixed seeded set of cross-node flows
// from a fresh job id, submitted to `cluster` in place with tracing off.
double submit_seconds(simnet::Cluster& cluster, uint64_t seed) {
  cluster.enable_tracing(false);
  const simnet::Topology& topo = cluster.topology();
  Rng rng(seed);
  std::vector<simnet::Flow> flows;
  flows.reserve(kSubmitProbes);
  while (flows.size() < kSubmitProbes) {
    const int src = static_cast<int>(rng.uniform_index(topo.world_size()));
    const int dst = static_cast<int>(rng.uniform_index(topo.world_size()));
    if (topo.same_node(src, dst)) continue;
    flows.push_back(
        {/*job=*/kStreamJobs + 1, src, dst, size_t{1} << 20, 0.0, 0.0});
  }
  const Stopwatch sw;
  for (const simnet::Flow& f : flows) cluster.submit(f);
  return sw.seconds() / kSubmitProbes;
}

// Median number of jobs waiting (arrived, not yet admitted) seen by each
// arrival.
double queue_depth_p50(const std::vector<simnet::JobRecord>& records) {
  std::vector<double> arrivals, starts;
  for (const simnet::JobRecord& r : records) {
    arrivals.push_back(r.spec.arrival);
    starts.push_back(r.start);
  }
  std::sort(arrivals.begin(), arrivals.end());
  std::sort(starts.begin(), starts.end());
  std::vector<double> depth;
  for (double t : arrivals) {
    const auto arrived = std::upper_bound(arrivals.begin(), arrivals.end(), t) -
                         arrivals.begin();
    const auto started =
        std::upper_bound(starts.begin(), starts.end(), t) - starts.begin();
    depth.push_back(static_cast<double>(arrived - started));
  }
  return median(depth);
}

// Span-recording decorator around a job body.  replay_trace first runs
// every job alone on an idle cluster (its isolated baseline, with the arrival
// rewritten to 0), then the shared-cluster JobScheduler::run; the decorator
// switches from a "simnet.baselines" to a "simnet.scheduler_run" phase span
// at the first call carrying a real arrival, and hangs every body call under
// the current phase.  (Every window's arrivals are > 0: generate_trace's
// gaps are exponential, and windows keep their stream's arrival times.)
class TracedBody {
 public:
  explicit TracedBody(Tracer& tracer) : tracer_(tracer) {}

  simnet::JobBody wrap(simnet::JobBody inner) {
    return [this, inner](simnet::Cluster& cluster, const simnet::JobSpec& spec,
                         const std::vector<int>& ranks, double start) {
      if (spec.arrival != 0.0 && scheduled_ < 0) {
        tracer_.end(baselines_);
        scheduled_ = tracer_.begin("simnet.scheduler_run", root_);
      }
      const bool shared = scheduled_ >= 0;
      const Tracer::Scope span(&tracer_, "simnet.body",
                               shared ? scheduled_ : baselines_);
      if (shared) scheduled_calls_.push_back(span.id());
      return inner(cluster, spec, ranks, start);
    };
  }

  void begin(int root) {
    root_ = root;
    baselines_ = tracer_.begin("simnet.baselines", root);
    scheduled_ = -1;
    scheduled_calls_.clear();
  }
  void end() { tracer_.end(scheduled_ >= 0 ? scheduled_ : baselines_); }

  double baseline_seconds() const { return tracer_.seconds(baselines_); }
  double scheduled_seconds() const {
    return scheduled_ >= 0 ? tracer_.seconds(scheduled_) : 0.0;
  }
  // Body call durations of the shared-cluster run, in call order.
  std::vector<double> scheduled_calls() const {
    std::vector<double> out;
    for (int id : scheduled_calls_) out.push_back(tracer_.seconds(id));
    return out;
  }

 private:
  Tracer& tracer_;
  int root_ = -1;
  int baselines_ = -1;
  int scheduled_ = -1;
  std::vector<int> scheduled_calls_;
};

void run_traced(const RunOptions& options, Result& result) {
  Tracer& tracer = *options.tracer;
  const size_t iterations =
      op_count(options.seconds, kNominalTracedIteration, 1);
  const auto state = make_state(options.seed, iterations);
  const simnet::Topology& topo = state->topology;
  TracedBody traced(tracer);

  std::vector<double> baseline_s, self_s, body_sum, growth;
  std::vector<double> calls_all, idle_ns, loaded_ns, shared_frac, flows;
  std::vector<double> queue_depth, goodput, p99_jct;
  const Stopwatch loop;
  for (size_t op = 0; op < state->windows.size(); ++op) {
    const Window& window = state->windows[op];
    tracer.set_op(static_cast<int>(op));
    // (1) replay_trace through the decorator: the timing split.
    const simnet::JobBody inner =
        train::make_tenant_body(train::TenantWorkload{});
    const int root = tracer.begin("simnet.replay_trace");
    traced.begin(root);
    const simnet::ReplayMetrics metrics =
        simnet::replay_trace(topo, window, traced.wrap(inner), kPolicy);
    traced.end();
    tracer.end(root);
    check_records(window, metrics.records, result);
    goodput.push_back(metrics.goodput);
    p99_jct.push_back(metrics.p99_jct);

    const std::vector<double> calls = traced.scheduled_calls();
    double sum = 0.0;
    for (double c : calls) sum += c;
    calls_all.insert(calls_all.end(), calls.begin(), calls.end());
    body_sum.push_back(sum);
    baseline_s.push_back(traced.baseline_seconds());
    self_s.push_back(traced.scheduled_seconds() - sum);
    const size_t tenth = std::max<size_t>(1, calls.size() / 10);
    growth.push_back(
        median(std::vector<double>(calls.end() - tenth, calls.end())) /
        median(std::vector<double>(calls.begin(), calls.begin() + tenth)));

    // (2) The shared-cluster schedule again, alone, on a Cluster recording
    // every flow (same warm body, the baselines replay_trace filled in).
    // It must reproduce (1) exactly: neither the decorator nor flow tracing
    // may change a simulated output.
    std::vector<simnet::JobSpec> specs;
    for (const simnet::JobRecord& r : metrics.records) specs.push_back(r.spec);
    simnet::Cluster cluster(topo);
    cluster.enable_tracing();
    std::vector<simnet::JobRecord> records;
    {
      const Tracer::Scope span(&tracer, "simnet.traced_cluster_run");
      simnet::JobScheduler scheduler(cluster, {kPolicy, /*backfill=*/true});
      records = scheduler.run(specs, inner);
    }
    result.check(same_records(records, metrics.records),
                 "flow-traced scheduler run reproduces replay_trace");
    size_t shared = 0;
    for (const simnet::TraceEvent& e : cluster.trace()) {
      shared += e.share > 1.0 ? 1 : 0;
    }
    const size_t n_flows = cluster.trace().size();
    flows.push_back(static_cast<double>(n_flows));
    shared_frac.push_back(static_cast<double>(shared) /
                          static_cast<double>(std::max<size_t>(1, n_flows)));
    queue_depth.push_back(queue_depth_p50(records));

    // (3) Cluster::submit on an idle cluster vs the one the replay left.
    simnet::Cluster idle(topo);
    idle_ns.push_back(submit_seconds(idle, options.seed) * 1e9);
    loaded_ns.push_back(submit_seconds(cluster, options.seed) * 1e9);
  }
  const double loop_s = loop.seconds();

  result.set("simnet.body_us_p50", median(calls_all) * 1e6);
  result.set("simnet.body_growth", median(growth));
  result.set("simnet.sched_self_s", median(self_s));
  result.set("simnet.baseline_s", median(baseline_s));
  result.set("simnet.submit_ns_idle", median(idle_ns));
  result.set("simnet.submit_ns_loaded", median(loaded_ns));
  result.set("simnet.flows", median(flows));
  result.set("simnet.shared_flow_frac", median(shared_frac));
  result.set("simnet.queue_depth_p50", median(queue_depth));
  result.set("simnet.sim_goodput", median(goodput));
  result.set("simnet.sim_p99_jct_s", median(p99_jct));
  result.set("trace.overhead_frac", static_cast<double>(tracer.size()) *
                                        Tracer::seconds_per_span() / loop_s);
  result.note(format("%zu traced windows; baselines %.3f s, scheduler run "
                     "%.3f s of which bodies %.3f s",
                     state->windows.size(), median(baseline_s),
                     median(self_s) + median(body_sum), median(body_sum)));
}

}  // namespace

void run_replay(const RunOptions& options, Result& result) {
  if (options.tracer != nullptr) {
    run_traced(options, result);
  } else {
    run_untraced(options, result);
  }
}

}  // namespace e2e
