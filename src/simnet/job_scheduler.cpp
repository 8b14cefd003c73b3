#include "simnet/job_scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <utility>

#include "core/check.h"
#include "core/rng.h"

namespace hitopk::simnet {

const char* placement_policy_name(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kPackByPod:
      return "pack-by-pod";
    case PlacementPolicy::kSpread:
      return "spread";
    case PlacementPolicy::kLocalityAware:
      return "locality-aware";
  }
  return "?";
}

JobScheduler::JobScheduler(Cluster& cluster, JobSchedulerOptions options)
    : cluster_(cluster),
      options_(options),
      busy_(static_cast<size_t>(cluster.world_size()), 0) {}

int JobScheduler::free_on_node(int node) const {
  const Topology& topo = cluster_.topology();
  int free = 0;
  for (int local = 0; local < topo.gpus_on_node(node); ++local) {
    if (rank_free(topo.rank_of(node, local))) ++free;
  }
  return free;
}

namespace {

// Takes up to `want` free ranks from `node` (lowest local rank first),
// marking them busy so repeated takes from one node within a single
// placement never hand out the same rank twice.
int take_from_node(const Topology& topo, std::vector<char>& busy, int node,
                   int want, std::vector<int>& out) {
  int taken = 0;
  for (int local = 0; local < topo.gpus_on_node(node) && taken < want;
       ++local) {
    const int rank = topo.rank_of(node, local);
    if (!busy[static_cast<size_t>(rank)]) {
      busy[static_cast<size_t>(rank)] = 1;
      out.push_back(rank);
      ++taken;
    }
  }
  return taken;
}

}  // namespace

std::vector<int> JobScheduler::place(int gpus) const {
  const Topology& topo = cluster_.topology();
  HITOPK_CHECK(gpus >= 1 && gpus <= topo.world_size())
      << "gang of " << gpus << " GPUs can never fit a world of "
      << topo.world_size();

  std::vector<int> node_free(static_cast<size_t>(topo.nodes()));
  int total_free = 0;
  for (int n = 0; n < topo.nodes(); ++n) {
    node_free[static_cast<size_t>(n)] = free_on_node(n);
    total_free += node_free[static_cast<size_t>(n)];
  }
  if (total_free < gpus) return {};

  std::vector<int> ranks;
  ranks.reserve(static_cast<size_t>(gpus));
  // Scratch occupancy: taken ranks are marked here so one placement never
  // hands a rank out twice; the real busy_ map is updated on admission.
  std::vector<char> scratch = busy_;

  // Best-fit packing: the pod with the least free capacity that still fits
  // the gang (ties on pod id), or every node when no single pod does; within
  // it, fragments first (least free GPUs, ties on node id).
  auto pack_best_fit = [&] {
    std::vector<int> pod_free(static_cast<size_t>(topo.pods()), 0);
    for (int n = 0; n < topo.nodes(); ++n) {
      pod_free[static_cast<size_t>(topo.pod_of(n))] +=
          node_free[static_cast<size_t>(n)];
    }
    int best_pod = -1;
    for (int p = 0; p < topo.pods(); ++p) {
      const int free = pod_free[static_cast<size_t>(p)];
      if (free >= gpus &&
          (best_pod < 0 || free < pod_free[static_cast<size_t>(best_pod)])) {
        best_pod = p;
      }
    }
    std::vector<int> order;
    for (int n = 0; n < topo.nodes(); ++n) {
      if (node_free[static_cast<size_t>(n)] > 0 &&
          (best_pod < 0 || topo.pod_of(n) == best_pod)) {
        order.push_back(n);
      }
    }
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return node_free[static_cast<size_t>(a)] <
             node_free[static_cast<size_t>(b)];
    });
    int want = gpus;
    for (int n : order) {
      if (want == 0) break;
      want -= take_from_node(topo, scratch, n, want, ranks);
    }
  };

  switch (options_.policy) {
    case PlacementPolicy::kSpread: {
      // One GPU at a time from the node with the most free GPUs.
      int want = gpus;
      while (want > 0) {
        int best = -1;
        for (int n = 0; n < topo.nodes(); ++n) {
          if (node_free[static_cast<size_t>(n)] >
              (best < 0 ? 0 : node_free[static_cast<size_t>(best)])) {
            best = n;
          }
        }
        HITOPK_CHECK(best >= 0);
        take_from_node(topo, scratch, best, 1, ranks);
        --node_free[static_cast<size_t>(best)];
        --want;
      }
      break;
    }
    case PlacementPolicy::kLocalityAware: {
      // Smallest single node that fits, else smallest single pod, else pack.
      int best_node = -1;
      for (int n = 0; n < topo.nodes(); ++n) {
        const int free = node_free[static_cast<size_t>(n)];
        if (free >= gpus &&
            (best_node < 0 ||
             free < node_free[static_cast<size_t>(best_node)])) {
          best_node = n;
        }
      }
      if (best_node >= 0) {
        take_from_node(topo, scratch, best_node, gpus, ranks);
        break;
      }
      pack_best_fit();
      break;
    }
    case PlacementPolicy::kPackByPod:
      pack_best_fit();
      break;
  }

  HITOPK_CHECK_EQ(ranks.size(), static_cast<size_t>(gpus));
  std::sort(ranks.begin(), ranks.end());
  return ranks;
}

void JobScheduler::admit_from_queue(double now) {
  for (size_t qi = 0; qi < queue_.size();) {
    JobRecord& rec = records_[queue_[qi]];
    // A gang larger than the free GPU count cannot fit: reject it without
    // running place(), which rebuilds its per-node view on every call.
    std::vector<int> ranks;
    if (rec.spec.gpus <= free_gpus_) ranks = place(rec.spec.gpus);
    if (ranks.empty()) {
      if (!options_.backfill) return;  // strict FIFO: blocked head blocks all
      ++qi;
      continue;
    }
    for (int r : ranks) busy_[static_cast<size_t>(r)] = 1;
    free_gpus_ -= rec.spec.gpus;
    rec.ranks = std::move(ranks);
    rec.start = now;
    running_.push_back(Running{queue_[qi], now, rec.spec.iterations});
    queue_.erase(queue_.begin() + static_cast<long>(qi));
  }
}

namespace {

// Rejects a trace the event loop cannot replay: a job that can never run
// (no iterations, or a gang that no placement could ever fit), an arrival
// the arrival sort cannot order, or two jobs sharing one id (and so one
// port-timeline lane).
void validate_trace(const std::vector<JobSpec>& jobs, int world_size) {
  std::vector<int> ids;
  ids.reserve(jobs.size());
  for (const JobSpec& spec : jobs) {
    HITOPK_VALIDATE(spec.iterations >= 1)
        << "job" << spec.id << "asks for" << spec.iterations << "iterations";
    HITOPK_VALIDATE(spec.gpus >= 1 && spec.gpus <= world_size)
        << "job" << spec.id << "asks for a gang of" << spec.gpus
        << "GPUs in a world of" << world_size;
    HITOPK_VALIDATE(std::isfinite(spec.arrival))
        << "job" << spec.id << "arrives at" << spec.arrival;
    ids.push_back(spec.id);
  }
  std::sort(ids.begin(), ids.end());
  const auto dup = std::adjacent_find(ids.begin(), ids.end());
  HITOPK_VALIDATE(dup == ids.end()) << "job id" << *dup << "appears twice";
}

}  // namespace

std::vector<JobRecord> JobScheduler::run(const std::vector<JobSpec>& jobs,
                                         const JobBody& body) {
  validate_trace(jobs, cluster_.world_size());
  records_.clear();
  running_.clear();
  queue_.clear();
  std::fill(busy_.begin(), busy_.end(), 0);
  free_gpus_ = cluster_.world_size();

  records_.reserve(jobs.size());
  for (const JobSpec& spec : jobs) {
    JobRecord rec;
    rec.spec = spec;
    records_.push_back(std::move(rec));
  }
  // Arrival order: time, then job id (deterministic for simultaneous
  // arrivals).
  std::vector<size_t> arrivals(records_.size());
  for (size_t i = 0; i < arrivals.size(); ++i) arrivals[i] = i;
  std::stable_sort(arrivals.begin(), arrivals.end(), [&](size_t a, size_t b) {
    if (records_[a].spec.arrival != records_[b].spec.arrival) {
      return records_[a].spec.arrival < records_[b].spec.arrival;
    }
    return records_[a].spec.id < records_[b].spec.id;
  });

  constexpr double kInf = std::numeric_limits<double>::infinity();
  size_t next_arrival = 0;
  while (next_arrival < arrivals.size() || !running_.empty() ||
         !queue_.empty()) {
    const double arrival_t = next_arrival < arrivals.size()
                                 ? records_[arrivals[next_arrival]].spec.arrival
                                 : kInf;
    size_t run_i = running_.size();
    double run_t = kInf;
    for (size_t i = 0; i < running_.size(); ++i) {
      const Running& r = running_[i];
      if (r.clock < run_t ||
          (r.clock == run_t &&
           records_[r.job].spec.id < records_[running_[run_i].job].spec.id)) {
        run_t = r.clock;
        run_i = i;
      }
    }

    if (arrival_t <= run_t) {
      // Admit the arrival (or queue it) before advancing anyone past it.
      HITOPK_CHECK(next_arrival < arrivals.size())
          << "scheduler deadlock: queued jobs but nothing running";
      queue_.push_back(arrivals[next_arrival]);
      ++next_arrival;
      admit_from_queue(arrival_t);
      continue;
    }

    // Advance the earliest running job by one iteration.  r.clock is the
    // minimum over running clocks and pending arrivals, and every later
    // admission happens at an arrival or a finish at or after it, so no
    // later body call submits a flow ready before it: the port history
    // behind it can be retired (Cluster::retire_before).
    Running& r = running_[run_i];
    JobRecord& rec = records_[r.job];
    cluster_.retire_before(r.clock);
    const JobIteration it = body(cluster_, rec.spec, rec.ranks, r.clock);
    HITOPK_CHECK(it.finish >= r.clock);
    rec.finish = it.finish;
    if (it.aborted) {
      rec.aborted = true;
    } else {
      ++rec.iterations_done;
      --r.remaining;
      r.clock = it.finish;
    }
    if (it.aborted || r.remaining == 0) {
      for (int rank : rec.ranks) busy_[static_cast<size_t>(rank)] = 0;
      free_gpus_ += rec.spec.gpus;
      running_.erase(running_.begin() + static_cast<long>(run_i));
      admit_from_queue(it.finish);
    }
  }

  std::vector<JobRecord> out = std::move(records_);
  records_.clear();
  std::sort(out.begin(), out.end(), [](const JobRecord& a, const JobRecord& b) {
    return a.spec.id < b.spec.id;
  });
  return out;
}

// ---- trace generation & replay --------------------------------------------

std::vector<JobSpec> generate_trace(const TraceOptions& options) {
  HITOPK_VALIDATE(options.jobs >= 0) << "negative job count" << options.jobs;
  HITOPK_VALIDATE(std::isfinite(options.mean_interarrival_seconds) &&
                  options.mean_interarrival_seconds > 0.0)
      << "mean inter-arrival gap" << options.mean_interarrival_seconds;
  HITOPK_VALIDATE(!options.gang_sizes.empty());
  for (int size : options.gang_sizes) {
    HITOPK_VALIDATE(size >= 1) << "gang size" << size;
  }
  HITOPK_VALIDATE(options.min_iterations >= 1 &&
                  options.max_iterations >= options.min_iterations);
  Rng rng(options.seed);

  std::vector<JobSpec> jobs;
  jobs.reserve(static_cast<size_t>(options.jobs));
  double t = 0.0;
  for (int i = 0; i < options.jobs; ++i) {
    t += -options.mean_interarrival_seconds * std::log(1.0 - rng.uniform());
    JobSpec spec;
    spec.id = i + 1;  // ids >= 1: never alias kDefaultJob
    spec.arrival = t;
    spec.gpus =
        options.gang_sizes[rng.uniform_index(options.gang_sizes.size())];
    spec.iterations =
        options.min_iterations +
        static_cast<int>(rng.uniform_index(static_cast<uint64_t>(
            options.max_iterations - options.min_iterations + 1)));
    spec.bytes = options.bytes_per_gpu;
    jobs.push_back(spec);
  }
  return jobs;
}

namespace {

double percentile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t n = sorted.size();
  size_t idx = static_cast<size_t>(
      std::ceil(q * static_cast<double>(n)));  // nearest-rank
  if (idx > 0) --idx;
  if (idx >= n) idx = n - 1;
  return sorted[idx];
}

}  // namespace

ReplayMetrics replay_trace(const Topology& topology,
                           const std::vector<JobSpec>& jobs,
                           const JobBody& body, PlacementPolicy policy,
                           bool backfill) {
  validate_trace(jobs, topology.world_size());
  // Isolated baselines, one run per gang shape (gpus, bytes): the shape's
  // longest job alone on a fresh cluster, same placement policy (an empty
  // cluster places identically regardless of arrival time), recording every
  // iteration's finish.  Iteration n of a lone job depends only on the
  // iterations before it, so a job of that shape with n iterations takes
  // exactly finishes[n - 1]; an abort ends the run early and its instant
  // is then every longer job's finish.
  using Shape = std::pair<int, size_t>;
  std::map<Shape, JobSpec> longest;
  for (const JobSpec& spec : jobs) {
    const auto [it, fresh] = longest.try_emplace({spec.gpus, spec.bytes}, spec);
    if (!fresh && spec.iterations > it->second.iterations) it->second = spec;
  }
  std::map<Shape, std::vector<double>> finishes;
  for (const auto& [shape, spec] : longest) {
    std::vector<double>& out = finishes[shape];
    const JobBody recording = [&](Cluster& c, const JobSpec& s,
                                  const std::vector<int>& ranks,
                                  double start) {
      const JobIteration it = body(c, s, ranks, start);
      out.push_back(it.finish);
      return it;
    };
    Cluster iso(topology);
    JobScheduler sched(iso, {policy, backfill});
    JobSpec alone = spec;
    alone.arrival = 0.0;
    sched.run({alone}, recording);
  }
  std::vector<JobSpec> specs = jobs;
  for (JobSpec& spec : specs) {
    const std::vector<double>& f = finishes.at({spec.gpus, spec.bytes});
    spec.isolated_seconds =
        f[std::min(static_cast<size_t>(spec.iterations), f.size()) - 1];
  }

  Cluster shared(topology);
  JobScheduler sched(shared, {policy, backfill});
  ReplayMetrics metrics;
  metrics.records = sched.run(specs, body);

  double first_arrival = std::numeric_limits<double>::infinity();
  double last_finish = 0.0;
  double isolated_sum = 0.0;
  double slowdown_sum = 0.0;
  size_t completed = 0;
  std::vector<double> jcts;
  for (const JobRecord& rec : metrics.records) {
    first_arrival = std::min(first_arrival, rec.spec.arrival);
    last_finish = std::max(last_finish, rec.finish);
    if (rec.aborted) continue;
    ++completed;
    isolated_sum += rec.spec.isolated_seconds;
    slowdown_sum += rec.slowdown();
    jcts.push_back(rec.jct());
  }
  std::sort(jcts.begin(), jcts.end());
  metrics.makespan =
      metrics.records.empty() ? 0.0 : last_finish - first_arrival;
  metrics.goodput =
      metrics.makespan > 0.0 ? isolated_sum / metrics.makespan : 0.0;
  metrics.mean_slowdown =
      completed > 0 ? slowdown_sum / static_cast<double>(completed) : 0.0;
  metrics.p50_jct = percentile(jcts, 0.50);
  metrics.p95_jct = percentile(jcts, 0.95);
  metrics.p99_jct = percentile(jcts, 0.99);
  return metrics;
}

}  // namespace hitopk::simnet
