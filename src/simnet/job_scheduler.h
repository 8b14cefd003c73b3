// Multi-tenant gang scheduler over a shared Cluster.
//
// The paper's setting is a public cloud cluster: many independent training
// jobs arrive over time, each needs a *gang* of GPUs for its whole lifetime
// (synchronous data-parallel training cannot run on a partial allocation),
// and they contend for the shared NIC/uplink/core fabric that the Cluster's
// reservation timelines model (see cluster.h).  This is the operating model
// of IBM's Deep Learning Service and the motivation for placement-aware
// bandwidth partitioning in MiCS (see PAPERS.md).
//
// The scheduler is an event-driven simulation in one OS thread:
//
//   - Jobs arrive at scripted instants (JobSpec::arrival) and queue FIFO.
//   - Admission scans the queue in arrival order whenever GPUs free up; with
//     backfill enabled (default) a later job that fits may jump a blocked
//     head-of-line job, otherwise admission is strict FIFO.
//   - Placement maps a job to a concrete rank set via one of three gang
//     policies (kPackByPod / kSpread / kLocalityAware, below).
//   - Running jobs advance ONE training iteration per event, cheapest-clock
//     first (ties break on job id).  Interleaving iterations of concurrent
//     jobs is what makes their flows overlap on the port timelines, so
//     cross-job contention emerges from the Cluster model rather than being
//     assumed here.
//
// The actual per-iteration work is a caller-supplied JobBody callback, so
// simnet stays independent of the collectives layer; train/tenant.h
// provides a body that runs a real ring All-Reduce schedule plus a
// PerfModel compute phase (see make_tenant_body).
//
// Everything is deterministic: scripted arrivals, ordered tie-breaks, and
// an explicitly seeded Rng for the Poisson trace generator.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "simnet/cluster.h"

namespace hitopk::simnet {

// Gang placement policies.
//
//   kPackByPod      — best-fit: prefer the pod, then the node, with the
//                     least free capacity that still fits the job.  Keeps
//                     jobs dense so big arrivals find contiguous room, at
//                     the price of stacking tenants onto the same uplinks.
//   kSpread         — round-robin one GPU at a time across the nodes with
//                     the most free GPUs.  Maximizes per-job NIC count
//                     (each rank gets its own NIC share) but forces almost
//                     all traffic inter-node.
//   kLocalityAware  — smallest single node that fits, else smallest single
//                     pod that fits, else fall back to pack-by-pod.  The
//                     paper's hierarchy argument applied to placement:
//                     NVLink first, one uplink domain second.
enum class PlacementPolicy : uint8_t { kPackByPod, kSpread, kLocalityAware };

const char* placement_policy_name(PlacementPolicy policy);

// One job of a replay trace.  `isolated_seconds`, when > 0, is the job's
// runtime on an otherwise-idle cluster (filled in by replay_trace for
// slowdown reporting); generators may leave it 0.
struct JobSpec {
  int id = 0;
  double arrival = 0.0;
  int gpus = 1;           // gang size (whole allocation or nothing)
  int iterations = 1;     // training iterations to run
  size_t bytes = 0;       // gradient payload per iteration (body-defined)
  double isolated_seconds = 0.0;
};

// What a JobBody reports back for one iteration.
struct JobIteration {
  double finish = 0.0;   // cluster time the iteration completed
  bool aborted = false;  // a fault killed the job (scheduler frees its gang)
};

// Runs one training iteration of `spec` on `ranks` starting at `start`,
// submitting flows under job id spec.id, none of them ready before `start`
// (JobScheduler::run retires port history behind its event clock; see
// Cluster::retire_before).  Must be deterministic.
using JobBody = std::function<JobIteration(
    Cluster& cluster, const JobSpec& spec, const std::vector<int>& ranks,
    double start)>;

// Per-job outcome of a scheduler run.
struct JobRecord {
  JobSpec spec;
  std::vector<int> ranks;     // the placed gang (empty if never admitted)
  double start = 0.0;         // admission instant
  double finish = 0.0;        // last iteration (or abort) instant
  int iterations_done = 0;
  bool aborted = false;
  double queued_seconds() const { return start - spec.arrival; }
  double jct() const { return finish - spec.arrival; }
  double slowdown() const {
    return spec.isolated_seconds > 0.0 ? jct() / spec.isolated_seconds : 0.0;
  }
};

struct JobSchedulerOptions {
  PlacementPolicy policy = PlacementPolicy::kPackByPod;
  // Allow a queued job to be admitted ahead of a blocked earlier one.
  bool backfill = true;
};

class JobScheduler {
 public:
  JobScheduler(Cluster& cluster, JobSchedulerOptions options = {});

  // Runs every job to completion (or abort) and returns one record per
  // job, in job-id order.  Jobs need not arrive sorted.  Throws ConfigError
  // unless every job has iterations >= 1, 1 <= gpus <= world size and a
  // finite arrival, and no two jobs share an id.  Before each body call the
  // cluster's port history behind the event clock is retired, so a replay
  // costs time linear in its length; flows submitted to the cluster after
  // run() returns must not be ready before the last job's final clock.
  std::vector<JobRecord> run(const std::vector<JobSpec>& jobs,
                             const JobBody& body);

  // Places a gang of `gpus` on the currently-free GPUs under the configured
  // policy; returns the rank set (sorted ascending) or empty when it does
  // not fit.  Exposed for tests; run() uses it internally.
  std::vector<int> place(int gpus) const;

 private:
  struct Running {
    size_t job = 0;        // index into records_
    double clock = 0.0;    // finish time of the job's last iteration
    int remaining = 0;     // iterations left
  };

  bool rank_free(int rank) const { return !busy_[static_cast<size_t>(rank)]; }
  int free_on_node(int node) const;
  void admit_from_queue(double now);

  Cluster& cluster_;
  JobSchedulerOptions options_;
  std::vector<char> busy_;          // per world rank
  int free_gpus_ = 0;               // count of !busy_ ranks during run()
  std::vector<JobRecord> records_;
  std::vector<Running> running_;
  std::vector<size_t> queue_;       // record indices, arrival order
};

// ---- trace generation & replay --------------------------------------------

// Poisson-arrival mixed-size workload generator.  Fully determined by the
// seed: gang sizes draw uniformly from `gang_sizes`, iteration counts
// uniform in [min_iterations, max_iterations], inter-arrival gaps
// exponential with mean `mean_interarrival_seconds`.
struct TraceOptions {
  int jobs = 120;
  double mean_interarrival_seconds = 0.05;
  uint64_t seed = 1;
  std::vector<int> gang_sizes = {4, 8, 16, 32};
  int min_iterations = 2;
  int max_iterations = 6;
  size_t bytes_per_gpu = 100 << 20;  // gradient payload per iteration
};

// Throws ConfigError on a negative job count, a non-finite or non-positive
// mean inter-arrival gap, an empty gang_sizes or an entry below 1, and on
// min_iterations < 1 or max_iterations < min_iterations.
std::vector<JobSpec> generate_trace(const TraceOptions& options);

// Aggregate metrics of one replay (see bench_fig12_multitenant).
struct ReplayMetrics {
  double makespan = 0.0;        // last finish - first arrival
  double goodput = 0.0;         // sum(isolated) / makespan (jobs "worth" run)
  double mean_slowdown = 0.0;   // mean over completed jobs
  double p50_jct = 0.0;
  double p95_jct = 0.0;
  double p99_jct = 0.0;
  std::vector<JobRecord> records;
};

// Fills every job's isolated_seconds from runs alone on fresh clones of
// `topology`, then replays `jobs` on another fresh clone under `policy`,
// and reports per-job slowdown plus cluster-level metrics.  Deterministic.
//
// One isolated run serves every job of a gang shape (gpus, bytes): the
// shape's longest job runs alone at arrival 0 and each job takes the
// finish of its own last iteration from that run.  Precondition: on an
// idle cluster the body's clocks do not depend on spec.id, spec.arrival or
// spec.iterations (make_tenant_body qualifies; FlowApi's
// JobIdInvariantOnIdleCluster test pins the cluster side).  Throws
// ConfigError on the traces JobScheduler::run rejects.
ReplayMetrics replay_trace(const Topology& topology,
                           const std::vector<JobSpec>& jobs,
                           const JobBody& body, PlacementPolicy policy,
                           bool backfill = true);

}  // namespace hitopk::simnet
