#include "simnet/cluster.h"

#include <algorithm>
#include <ostream>
#include <set>

#include "core/check.h"

namespace hitopk::simnet {

// ------------------------------------------------------------ PortTimeline

PortTimeline::Lane& PortTimeline::lane(int job) {
  for (Lane& l : lanes_) {
    if (l.job == job) return l;
  }
  lanes_.push_back(Lane{job, 0.0, {}});
  return lanes_.back();
}

const PortTimeline::Lane* PortTimeline::find(int job) const {
  for (const Lane& l : lanes_) {
    if (l.job == job) return &l;
  }
  return nullptr;
}

double PortTimeline::free_at(int job) const {
  const Lane* l = find(job);
  return l != nullptr ? l->free : 0.0;
}

int PortTimeline::sharers(int job, double begin, double end) const {
  int count = 0;
  for (const Lane& l : lanes_) {
    if (l.job == job) continue;
    // First interval ending after `begin` (intervals are sorted and
    // disjoint); it is the only one that can overlap [begin, end).
    const auto it = std::partition_point(
        l.intervals.begin(), l.intervals.end(),
        [begin](const Interval& iv) { return iv.end <= begin; });
    if (it != l.intervals.end() && it->begin < end) ++count;
  }
  return count;
}

void PortTimeline::reserve(int job, double begin, double end) {
  Lane& l = lane(job);
  HITOPK_CHECK(begin >= l.free)
      << "reservation at" << begin << "before the job's port clock" << l.free;
  l.free = std::max(l.free, end);
  if (end <= begin) return;  // zero-length service: clock only
  if (!l.intervals.empty() && begin <= l.intervals.back().end) {
    // Back-to-back with the previous reservation: extend it in place.
    l.intervals.back().end = std::max(l.intervals.back().end, end);
    return;
  }
  l.intervals.push_back({begin, end});
  if (l.intervals.size() > kMaxIntervals) {
    l.intervals.erase(l.intervals.begin());
  }
}

void PortTimeline::retire_before(double t) {
  for (Lane& l : lanes_) {
    const auto live = std::partition_point(
        l.intervals.begin(), l.intervals.end(),
        [t](const Interval& iv) { return iv.end < t; });
    l.intervals.erase(l.intervals.begin(), live);
  }
  std::erase_if(lanes_, [t](const Lane& l) {
    return l.intervals.empty() && l.free <= t;
  });
}

double PortTimeline::max_free() const {
  double t = 0.0;
  for (const Lane& l : lanes_) t = std::max(t, l.free);
  return t;
}

// ----------------------------------------------------------------- Cluster

Cluster::Cluster(Topology topology)
    : topology_(std::move(topology)),
      gpu_ports_(static_cast<size_t>(topology_.world_size())),
      nic_send_(static_cast<size_t>(topology_.nodes())),
      nic_recv_(static_cast<size_t>(topology_.nodes())) {
  if (topology_.oversubscription() > 1.0) {
    if (topology_.pods() > 1) {
      // Edge/aggregation fat tree: one uplink per pod of capacity
      // nodes_per_pod * nic_rate / f, as seconds/byte.
      pod_send_.resize(static_cast<size_t>(topology_.pods()));
      pod_recv_.resize(static_cast<size_t>(topology_.pods()));
      uplink_beta_ = topology_.nic_beta() * topology_.oversubscription() /
                     static_cast<double>(topology_.nodes_per_pod());
    } else {
      // Single switch layer: aggregate core capacity nodes * nic_rate / f.
      core_beta_ = topology_.nic_beta() * topology_.oversubscription() /
                   static_cast<double>(topology_.nodes());
    }
  }
}

void Cluster::reset() {
  for (auto& p : gpu_ports_) p = Port{};
  for (auto& p : nic_send_) p.clear();
  for (auto& p : nic_recv_) p.clear();
  for (auto& p : pod_send_) p.clear();
  for (auto& p : pod_recv_) p.clear();
  core_.clear();
  inter_node_bytes_ = 0;
  intra_node_bytes_ = 0;
  traffic_.clear();
  trace_.clear();
}

void Cluster::retire_before(double t) {
  for (auto& p : nic_send_) p.retire_before(t);
  for (auto& p : nic_recv_) p.retire_before(t);
  for (auto& p : pod_send_) p.retire_before(t);
  for (auto& p : pod_recv_) p.retire_before(t);
  core_.retire_before(t);
}

FlowOutcome Cluster::submit(const Flow& flow) {
  const int src = flow.src;
  const int dst = flow.dst;
  const int job = flow.job;
  const size_t bytes = flow.bytes;
  HITOPK_CHECK(job >= 0) << "job id" << job << "must be non-negative";
  HITOPK_CHECK(src >= 0 && src < world_size());
  HITOPK_CHECK(dst >= 0 && dst < world_size());
  HITOPK_CHECK_NE(src, dst);

  const bool crosses_node = !topology_.same_node(src, dst);
  const LinkParams& link = topology_.link_between(src, dst);
  double duration = link.transfer_seconds(bytes) + flow.extra_seconds;

  const int src_node = crosses_node ? topology_.node_of(src) : 0;
  const int dst_node = crosses_node ? topology_.node_of(dst) : 0;
  const bool crosses_pod =
      crosses_node && uplink_beta_ > 0.0 &&
      !topology_.same_pod(src_node, dst_node);
  const int src_pod = crosses_pod ? topology_.pod_of(src_node) : 0;
  const int dst_pod = crosses_pod ? topology_.pod_of(dst_node) : 0;

  double start = std::max(flow.ready, gpu_ports_[src].send_free);
  start = std::max(start, gpu_ports_[dst].recv_free);
  if (crosses_node) {
    start = std::max(start, nic_send_[src_node].free_at(job));
    start = std::max(start, nic_recv_[dst_node].free_at(job));
    if (core_beta_ > 0.0) start = std::max(start, core_.free_at(job));
    if (crosses_pod) {
      start = std::max(start, pod_send_[src_pod].free_at(job));
      start = std::max(start, pod_recv_[dst_pod].free_at(job));
    }
  }

  FlowOutcome outcome;
  outcome.start = start;
  outcome.inter_node = crosses_node;

  // Processor sharing across jobs: the flow's service window is checked
  // against every contended port it crosses; overlapping reservations of
  // k-1 other jobs on the bottleneck port slow it to 1/k of its isolated
  // rate.  A single-tenant flow never enters the branch, so its arithmetic
  // is exactly the legacy path.
  double share = 1.0;
  if (crosses_node) {
    const double window_end = start + duration;
    int others = nic_send_[src_node].sharers(job, start, window_end);
    others = std::max(others, nic_recv_[dst_node].sharers(job, start,
                                                          window_end));
    if (core_beta_ > 0.0) {
      others = std::max(others, core_.sharers(job, start, window_end));
    }
    if (crosses_pod) {
      others = std::max(others,
                        pod_send_[src_pod].sharers(job, start, window_end));
      others = std::max(others,
                        pod_recv_[dst_pod].sharers(job, start, window_end));
    }
    if (others > 0) {
      share = 1.0 + static_cast<double>(others);
      duration *= share;
    }
  }
  outcome.share = share;

  const double done = start + duration;
  outcome.time = done;

  gpu_ports_[src].send_free = done;
  gpu_ports_[dst].recv_free = done;
  if (crosses_node) {
    // The NIC serves the flow's bytes at aggregate line rate and is then
    // free for the job's next flow — processor sharing in time — while the
    // flow itself completes at its (slower) per-flow rate.  Under cross-job
    // sharing the service window stretches with the share factor: the job
    // receives 1/share of the port rate while contended.
    double nic_service =
        static_cast<double>(bytes) * topology_.nic_beta() + flow.extra_seconds;
    if (share > 1.0) nic_service *= share;
    nic_send_[src_node].reserve(job, start, start + nic_service);
    nic_recv_[dst_node].reserve(job, start, start + nic_service);
    if (core_beta_ > 0.0) {
      // Shared oversubscribed core: serves the flow's bytes at the
      // aggregate core rate, then frees for the job's next inter-node flow.
      double core_service = static_cast<double>(bytes) * core_beta_;
      if (share > 1.0) core_service *= share;
      core_.reserve(job, start, start + core_service);
    }
    if (crosses_pod) {
      // Oversubscribed pod uplinks, same processor-sharing treatment.
      double uplink_service = static_cast<double>(bytes) * uplink_beta_;
      if (share > 1.0) uplink_service *= share;
      pod_send_[src_pod].reserve(job, start, start + uplink_service);
      pod_recv_[dst_pod].reserve(job, start, start + uplink_service);
    }
    inter_node_bytes_ += bytes;
    traffic_[job].inter += bytes;
  } else {
    intra_node_bytes_ += bytes;
    traffic_[job].intra += bytes;
  }
  if (tracing_) {
    trace_.push_back(TraceEvent{src, dst, bytes, start, duration,
                                crosses_node, job, share});
  }
  return outcome;
}

size_t Cluster::inter_node_bytes(int job) const {
  const auto it = traffic_.find(job);
  return it != traffic_.end() ? it->second.inter : 0;
}

size_t Cluster::intra_node_bytes(int job) const {
  const auto it = traffic_.find(job);
  return it != traffic_.end() ? it->second.intra : 0;
}

std::vector<int> Cluster::traffic_jobs() const {
  std::vector<int> jobs;
  jobs.reserve(traffic_.size());
  for (const auto& [job, bytes] : traffic_) jobs.push_back(job);
  return jobs;
}

void Cluster::write_chrome_trace(std::ostream& os,
                                 const std::string& process_name) const {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\""
     << process_name << "\"}}";
  for (int rank = 0; rank < world_size(); ++rank) {
    os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << rank
       << ",\"args\":{\"name\":\"gpu" << rank << " (node"
       << topology_.node_of(rank) << ")\"}}";
  }
  // Multi-tenant traces: one process per non-default job (pid = job + 1),
  // with per-rank tracks named only for the ranks that job actually used.
  std::set<std::pair<int, int>> job_tracks;  // (job, dst rank)
  for (const auto& event : trace_) {
    if (event.job != kDefaultJob) job_tracks.insert({event.job, event.dst});
  }
  int named_job = kDefaultJob;
  for (const auto& [job, rank] : job_tracks) {
    if (job != named_job) {
      named_job = job;
      os << ",\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << job + 1
         << ",\"args\":{\"name\":\"" << process_name << "/job" << job
         << "\"}}";
    }
    os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << job + 1
       << ",\"tid\":" << rank << ",\"args\":{\"name\":\"job" << job << " gpu"
       << rank << " (node" << topology_.node_of(rank) << ")\"}}";
  }
  for (const auto& event : trace_) {
    // Complete events ("X") on the *destination* rank's track of the
    // owning job's process: that is the port the transfer occupies for its
    // duration.
    os << ",\n{\"name\":\"" << (event.inter_node ? "inter " : "intra ")
       << event.src << "->" << event.dst << "\",\"cat\":\""
       << (event.inter_node ? "nic" : "nvlink") << "\",\"ph\":\"X\",\"ts\":"
       << event.start * 1e6 << ",\"dur\":" << event.duration * 1e6
       << ",\"pid\":" << event.job + 1 << ",\"tid\":" << event.dst
       << ",\"args\":{\"bytes\":" << event.bytes << ",\"job\":" << event.job
       << ",\"share\":" << event.share << "}}";
  }
  os << "\n]}\n";
}

double Cluster::compute(double ready, double duration) {
  return ready + duration;
}

double Cluster::quiescent_time() const {
  double t = 0.0;
  for (const auto& p : gpu_ports_) {
    t = std::max({t, p.send_free, p.recv_free});
  }
  for (const auto& p : nic_send_) t = std::max(t, p.max_free());
  for (const auto& p : nic_recv_) t = std::max(t, p.max_free());
  for (const auto& p : pod_send_) t = std::max(t, p.max_free());
  for (const auto& p : pod_recv_) t = std::max(t, p.max_free());
  return std::max(t, core_.max_free());
}

}  // namespace hitopk::simnet
