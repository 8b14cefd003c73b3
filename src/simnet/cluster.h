// Timed message-passing engine over a Topology — multi-tenant edition.
//
// The Cluster does not own tensor data — collectives keep per-rank buffers —
// it owns *time*.  Transfers are submitted as *flows*: Flow{job, src, dst,
// bytes, ready, extra} resolves to the port set it occupies (the endpoint
// GPU ports, the per-node NICs, and — on oversubscribed fat trees — the pod
// uplinks or the shared core) and returns a structured FlowOutcome.  Each
// contended port keeps a *reservation timeline* instead of one scalar
// "free at" clock:
//
//   - flows of ONE job serialize on a port exactly like the original
//     single-tenant engine: a job-keyed free-at clock advances by the
//     port's service time (the NIC serves a flow's bytes at aggregate line
//     rate and is then free for the job's next flow, while the flow itself
//     completes at its slower per-flow rate — processor sharing in time);
//   - flows of DIFFERENT jobs overlapping on a port do not queue behind
//     each other; they processor-share the port rate.  A flow whose service
//     window overlaps reservations of k-1 other jobs on its bottleneck port
//     runs at 1/k of its isolated rate (duration and service stretch by
//     the share factor, and the stretched window is what later flows see).
//
// A single job on an otherwise-idle cluster never observes a share factor,
// takes the exact arithmetic path of the legacy scalar clocks, and so
// reproduces every pre-refactor timing bit for bit (pinned by
// schedule_equivalence_test and the BENCH reference JSONs).
//
// The two properties the paper's analysis relies on are unchanged:
//
//   1. intra-node transfers use dedicated NVLink peer ports (GPUs move data
//      in parallel inside a node), and
//   2. every inter-node transfer serializes through the node's single NIC,
//      so n concurrent inter-node streams from one node share 25 GbE.
//
// When the Topology declares a fat-tree oversubscription factor f > 1, a
// third constraint applies exactly as before (single-switch core of
// capacity nodes * nic_rate / f, or per-pod uplinks of capacity
// nodes_per_pod * nic_rate / f); with f == 1 neither layer is consulted.
//
// All flows are simulated deterministically in a single OS thread;
// simulated concurrency comes from the port timelines.  The engine is
// fault-free: every submitted flow is delivered.  Preemptions and
// degradation windows are a simnet::FaultPlan script that the training
// drivers consume between iterations (train::FaultDriver,
// train::simulate_scenario), not a property of individual messages.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "simnet/topology.h"

namespace hitopk::simnet {

// Job id of single-tenant traffic (the Flow default).  Job ids are small
// non-negative integers; the JobScheduler hands out ids >= 1 so tenant
// traffic never aliases the default lane.
inline constexpr int kDefaultJob = 0;

// One transfer request.  `ready` is the instant the payload is available at
// the source; `extra_seconds` models per-message protocol overhead that
// occupies the ports for the whole duration (e.g. proxy-thread handoff on
// flat world-scale rings, see models/calibration.h).
struct Flow {
  int job = kDefaultJob;
  int src = 0;
  int dst = 0;
  size_t bytes = 0;
  double ready = 0.0;
  double extra_seconds = 0.0;
};

// Structured result of submitting a Flow.
struct FlowOutcome {
  double start = 0.0;   // instant the flow occupied its ports
  double time = 0.0;    // completion
  double share = 1.0;   // processor-sharing factor (1 = exclusive ports)
  bool inter_node = false;
};

// One recorded transfer (tracing enabled only).
struct TraceEvent {
  int src = 0;
  int dst = 0;
  size_t bytes = 0;
  double start = 0.0;
  double duration = 0.0;
  bool inter_node = false;
  int job = kDefaultJob;
  double share = 1.0;
};

// Reservation timeline of one direction of a contended port (a NIC, a pod
// uplink, or the fat-tree core).  Per job it keeps a free-at clock (the
// job's own flows serialize, exactly the legacy scalar behavior) plus the
// merged intervals the job's flows have reserved; cross-job contention is
// answered by counting *other* jobs with reservations overlapping a
// window.  Back-to-back reservations of one job merge into a single
// interval, so a busy streak costs O(1) memory, and each lane keeps at most
// kMaxIntervals intervals (oldest dropped — older history can only be
// overlapped by flows that have already been submitted).  retire_before()
// drops the history behind a watermark, so a port's lanes are the jobs
// active around the clock rather than every job that ever used it.
class PortTimeline {
 public:
  // Earliest instant `job` may start its next flow through this port.
  double free_at(int job) const;
  // Number of distinct jobs other than `job` holding a reservation
  // overlapping [begin, end).
  int sharers(int job, double begin, double end) const;
  // Records that the port serves `job` on [begin, end) and advances the
  // job's free-at clock to `end`.  begin must be >= free_at(job).
  void reserve(int job, double begin, double end);
  // Drops every interval ending before `t`, then every lane left with no
  // interval whose free-at clock is at or before `t`.  See
  // Cluster::retire_before for the contract.
  void retire_before(double t);
  void clear() { lanes_.clear(); }
  // Largest free-at clock over every job (quiescence).
  double max_free() const;

 private:
  struct Interval {
    double begin = 0.0;
    double end = 0.0;
  };
  struct Lane {
    int job = kDefaultJob;
    double free = 0.0;
    std::vector<Interval> intervals;  // sorted, disjoint, merged
  };
  static constexpr size_t kMaxIntervals = 64;

  Lane& lane(int job);
  const Lane* find(int job) const;

  std::vector<Lane> lanes_;  // few jobs per port: linear scan
};

class Cluster {
 public:
  explicit Cluster(Topology topology);

  const Topology& topology() const { return topology_; }
  int world_size() const { return topology_.world_size(); }

  // Resets all port timelines to zero (start of a fresh measurement).
  void reset();

  // Submits one flow.  The transfer starts at max(flow.ready, ports free
  // for flow.job) and the outcome reports start/completion plus the
  // processor-sharing factor its bottleneck port imposed.
  FlowOutcome submit(const Flow& flow);

  // Models local (non-communication) work on a rank: occupies no ports,
  // returns ready + duration.  Exists so call sites read uniformly.
  static double compute(double ready, double duration);

  // Retires port history behind the watermark `t`: every reservation
  // interval ending before `t`, then every lane left with no interval whose
  // free-at clock is at or before `t` (PortTimeline::retire_before; the
  // scalar GPU port clocks are kept).
  //
  // Contract: no flow submitted afterwards is ready before `t`.  Such a
  // flow starts at or after `t`, so a retired interval could neither
  // overlap its window nor be extended by its reservation, and a retired
  // lane's clock could not delay it: every later FlowOutcome is
  // bit-identical to the one the unretired cluster returns.  (An interval
  // ending exactly at `t` is kept: a reservation beginning at `t` still
  // merges into it.)  A flow that breaks the contract (ready before `t`) is
  // still served, but sees the retired history as idle ports.
  // JobScheduler::run retires behind its event clock before every body
  // call, which keeps a port's lanes to the jobs running around that clock.
  void retire_before(double t);

  // Largest port timestamp: when the whole cluster is quiescent.  Retired
  // lanes no longer count.
  double quiescent_time() const;
  // True when no flow has been submitted since construction/reset() —
  // the state in which contention-aware planning must match idle planning.
  bool idle() const { return quiescent_time() == 0.0 && traffic_.empty(); }

  // Cumulative bytes that crossed node boundaries / stayed intra-node since
  // the last reset.  The no-argument totals are the sum over every job.
  size_t inter_node_bytes() const { return inter_node_bytes_; }
  size_t intra_node_bytes() const { return intra_node_bytes_; }
  size_t inter_node_bytes(int job) const;
  size_t intra_node_bytes(int job) const;
  // Jobs that have moved at least one byte, ascending.
  std::vector<int> traffic_jobs() const;

  // ---- transfer tracing (off by default; reset() clears events).
  void enable_tracing(bool enabled = true) { tracing_ = enabled; }
  const std::vector<TraceEvent>& trace() const { return trace_; }

  // Writes the recorded transfers as a Chrome-tracing (chrome://tracing /
  // Perfetto) JSON document.  Single-tenant traces keep the original
  // layout (one process, one track per rank); traces containing jobs other
  // than kDefaultJob get one process per job (pid = job + 1) with per-rank
  // tracks under it, so concurrent tenants are visually separable.
  void write_chrome_trace(std::ostream& os,
                          const std::string& process_name = "cluster") const;

 private:
  struct Port {
    double send_free = 0.0;
    double recv_free = 0.0;
  };
  struct JobTraffic {
    size_t inter = 0;
    size_t intra = 0;
  };

  Topology topology_;
  std::vector<Port> gpu_ports_;          // one per rank (tenant-exclusive)
  std::vector<PortTimeline> nic_send_;   // one per node
  std::vector<PortTimeline> nic_recv_;
  std::vector<PortTimeline> pod_send_;   // one uplink per pod (oversub > 1)
  std::vector<PortTimeline> pod_recv_;
  PortTimeline core_;             // shared fat-tree core (oversub > 1, 1 pod)
  double core_beta_ = 0.0;        // seconds/byte of the aggregate core
  double uplink_beta_ = 0.0;      // seconds/byte of one pod uplink
  size_t inter_node_bytes_ = 0;
  size_t intra_node_bytes_ = 0;
  std::map<int, JobTraffic> traffic_;  // ordered: deterministic iteration
  bool tracing_ = false;
  std::vector<TraceEvent> trace_;
};

}  // namespace hitopk::simnet
